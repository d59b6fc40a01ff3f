package epoch

import "repro/internal/telemetry"

// publish writes a finished epoch's Step to set's epoch families. It is
// the only place internal/epoch writes a metric: RunController fills each
// Step and publishes it when the epoch ends. A nil step registers every
// family and records nothing (RunController does before the first epoch).
func publish(set *telemetry.Set, st *Step) {
	if set == nil {
		return
	}
	set.Metrics.Help("epoch_drift_max_rel", "largest relative per-client rate drift vs the standing decision, this epoch")
	resolves, skips := set.Counter("epoch_resolves_total"), set.Counter("epoch_skips_total")
	drift := set.Gauge("epoch_drift_max_rel")
	solveDur := set.Histogram("epoch_solve_seconds", telemetry.DurationBuckets)
	if st == nil {
		return
	}
	drift.Set(st.Drift)
	if st.Resolved {
		resolves.Inc()
		solveDur.Observe(st.SolveTime.Seconds())
	} else {
		skips.Inc()
	}
}
