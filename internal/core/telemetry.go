package core

import (
	"time"

	"repro/internal/model"
	"repro/internal/telemetry"
)

// Phase labels used by the solver's metrics and spans.
const (
	phaseGreedy     = "greedy"
	phaseShare      = "share_adjust"
	phaseDispersion = "dispersion_adjust"
	phaseTurnOn     = "turn_on"
	phaseTurnOff    = "turn_off"
	phaseReassign   = "reassign"
	// phaseReconcile is a sharded solve's whole-cloud reassignment pass,
	// the serial cross-shard reconciliation (Attribution.Reconcile).
	phaseReconcile = "reconcile"

	// Stages of a reassignment pass (reassign_pipeline.go): candidate
	// scoring, the serial commit loop, and the rescoring of candidates
	// invalidated by earlier commits.
	phaseReassignScore   = "reassign_score"
	phaseReassignCommit  = "reassign_commit"
	phaseReassignRescore = "reassign_rescore"
)

// solverHelp is the help text of each solver family.
var solverHelp = [][2]string{
	{"solver_phase_seconds", "time spent in each Resource_Alloc phase, one sample per solve (or exported pass)"},
	{"solver_moves_total", "local-search moves attempted per phase"},
	{"solver_moves_accepted_total", "local-search moves accepted per phase"},
	{"solver_profit_delta_total", "cumulative profit change contributed per phase"},
	{"solver_reassign_scored_total", "clients whose reassignment candidates were (re)scored"},
	{"solver_reassign_dirty_skipped_total", "clients that skipped reassignment scoring because their clusters were clean"},
	{"solver_reassign_rescores_total", "reassignment candidates rescored after an earlier commit dirtied their clusters"},
	{"solver_reassign_commit_failures_total", "reassignment commits rejected by the allocation despite a feasible score"},
	{"solver_reassign_restore_failures_total", "clients left unserved because restoring their previous placement failed after a rejected move"},
	{"solver_index_evaluated_total", "candidate clusters evaluated exactly after index pruning"},
	{"solver_index_pruned_total", "candidate clusters skipped by the index's gain upper bound, feasibility screens or top-k cutoff"},
}

// publish writes st to set's solver families. It is the only place
// internal/core writes a metric: the hot path only fills Stats, and the
// entry points that do solver work publish what they did when they end,
// so the metrics equal Stats by construction. A solve (Elapsed set) also
// counts in solver_solves_total and sets solver_unplaced_clients; a phase
// that did not run (zero time) adds no sample. Publishing an empty Stats
// registers every family (NewSolver does).
func publish(set *telemetry.Set, st *Stats) {
	if set == nil {
		return
	}
	for _, h := range solverHelp {
		set.Metrics.Help(h[0], h[1])
	}
	solves, unplaced := set.Counter("solver_solves_total"), set.Gauge("solver_unplaced_clients")
	if st.Elapsed > 0 {
		solves.Inc()
		unplaced.Set(float64(st.Unplaced))
	}
	round := set.Histogram("solver_round_seconds", telemetry.DurationBuckets)
	for _, d := range st.RoundDurations {
		round.Observe(d.Seconds())
	}
	for _, c := range []struct {
		counter *telemetry.Counter
		n       int
	}{
		{set.Counter("solver_local_search_rounds_total"), st.LocalSearchIters},
		{set.Counter("solver_activations_total"), st.Activations},
		{set.Counter("solver_deactivations_total"), st.Deactivations},
		{set.Counter("solver_reassignments_total"), st.Reassignments},
		{set.Counter(telemetry.Name("solver_moves_total", "phase", phaseShare)), st.ShareMoves},
		{set.Counter(telemetry.Name("solver_moves_accepted_total", "phase", phaseShare)), st.ShareAccepts},
		{set.Counter(telemetry.Name("solver_moves_total", "phase", phaseDispersion)), st.DispersionMoves},
		{set.Counter(telemetry.Name("solver_moves_accepted_total", "phase", phaseDispersion)), st.DispersionAccepts},
		{set.Counter("solver_reassign_scored_total"), st.ReassignScored},
		{set.Counter("solver_reassign_dirty_skipped_total"), st.ReassignSkipped},
		{set.Counter("solver_reassign_rescores_total"), st.ReassignRescores},
		{set.Counter("solver_reassign_commit_failures_total"), st.CommitFailures},
		{set.Counter("solver_reassign_restore_failures_total"), st.RestoreFailures},
		{set.Counter("solver_index_evaluated_total"), st.IndexEvaluated},
		{set.Counter("solver_index_pruned_total"), st.IndexPruned},
	} {
		c.counter.Add(int64(c.n))
	}
	tm, at := &st.Timings, &st.Attribution
	for _, p := range []struct {
		phase string
		dur   time.Duration
		delta *float64 // nil: the phase has no profit-delta gauge
	}{
		{phaseGreedy, tm.Greedy, nil},
		{phaseShare, tm.ShareAdjust, &at.ShareAdjust},
		{phaseDispersion, tm.DispersionAdjust, &at.DispersionAdjust},
		{phaseTurnOn, tm.TurnOn, &at.TurnOn},
		{phaseTurnOff, tm.TurnOff, &at.TurnOff},
		{phaseReassign, tm.Reassign, &at.Reassign},
		{phaseReconcile, tm.Reconcile, &at.Reconcile},
		{phaseReassignScore, tm.ReassignScore, nil},
		{phaseReassignCommit, tm.ReassignCommit, nil},
		{phaseReassignRescore, tm.ReassignRescore, nil},
	} {
		h := set.Histogram(telemetry.Name("solver_phase_seconds", "phase", p.phase), telemetry.DurationBuckets)
		if p.dur > 0 {
			h.Observe(p.dur.Seconds())
		}
		if p.delta != nil {
			set.Gauge(telemetry.Name("solver_profit_delta_total", "phase", p.phase)).Add(*p.delta)
		}
	}
}

// flightSampled returns the flight recorder when client i falls into its
// deterministic sample; nil otherwise (and always when telemetry is off),
// so hot-path callers skip building the event entirely.
func (s *Solver) flightSampled(i model.ClientID) *telemetry.Flight {
	f := s.cfg.Telemetry.FlightRecorder()
	if f == nil || !f.SampleClient(int64(i)) {
		return nil
	}
	return f
}

// flightRecord logs an event unconditionally — for rare outcomes
// (commit/restore failures) that must never be sampled away. Inert when
// telemetry is off.
func (s *Solver) flightRecord(e telemetry.Event) {
	s.cfg.Telemetry.FlightRecorder().Record(e)
}

// debugf emits a debug log line through the telemetry set's logger; inert
// when telemetry is disabled.
func (s *Solver) debugf(msg string, args ...any) {
	s.cfg.Telemetry.Logger().Debug(msg, args...)
}
