package cluster

import (
	"strconv"

	"repro/internal/telemetry"
)

// publish writes a completed solve's ManagerStats to set's manager
// families, with profits each cluster's profit after the solve's last
// improvement round. It is the only place internal/cluster writes a
// metric: SolveCtx fills ManagerStats and publishes it when the solve
// ends, so manager_solves_total counts completed solves. An empty stats
// (Elapsed zero) registers every family, one profit gauge per cluster,
// and records nothing (NewManager does).
func publish(set *telemetry.Set, st *ManagerStats, profits []float64) {
	if set == nil {
		return
	}
	set.Metrics.Help("manager_cluster_profit", "per-cluster profit after the most recent improvement round")
	solves := set.Counter("manager_solves_total")
	initDur := set.Histogram("manager_initial_pass_seconds", telemetry.DurationBuckets)
	roundDur := set.Histogram("manager_round_seconds", telemetry.DurationBuckets)
	done := st.Elapsed > 0
	for k, p := range profits {
		g := set.Gauge(telemetry.Name("manager_cluster_profit", "cluster", strconv.Itoa(k)))
		if done {
			g.Set(p)
		}
	}
	if !done {
		return
	}
	solves.Inc()
	initDur.Observe(st.InitElapsed.Seconds())
	for _, d := range st.RoundDurations {
		roundDur.Observe(d.Seconds())
	}
}
