package core

import (
	"context"

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

	// Sub-phases of the reassignment pass (reassign_pipeline.go):
	// parallel candidate scoring, the serial commit loop, and the
	// rescoring of candidates invalidated by earlier commits.
	phaseReassignScore   = "reassign_score"
	phaseReassignCommit  = "reassign_commit"
	phaseReassignRescore = "reassign_rescore"
)

// solverTel bundles the solver's pre-resolved metric handles so the hot
// path never performs registry lookups. A nil *solverTel is the
// disabled state: callers guard with `s.tel != nil` (spans/timing) or
// rely on the handles' own nil-safety (counters).
type solverTel struct {
	set *telemetry.Set
	// flight is the set's flight recorder (flight.go): typed placement /
	// pruning / commit-failure events, deterministically sampled by
	// client ID. A nil *Flight is a valid no-op recorder.
	flight *telemetry.Flight

	solves *telemetry.Counter
	rounds *telemetry.Counter

	greedyDur     *telemetry.Histogram
	roundDur      *telemetry.Histogram
	shareDur      *telemetry.Histogram
	dispersionDur *telemetry.Histogram
	turnOnDur     *telemetry.Histogram
	turnOffDur    *telemetry.Histogram
	reassignDur   *telemetry.Histogram
	reconcileDur  *telemetry.Histogram

	reassignScoreDur   *telemetry.Histogram
	reassignCommitDur  *telemetry.Histogram
	reassignRescoreDur *telemetry.Histogram

	reassignScored       *telemetry.Counter
	reassignSkipped      *telemetry.Counter
	reassignRescores     *telemetry.Counter
	reassignCommitFails  *telemetry.Counter
	reassignRestoreFails *telemetry.Counter

	// Candidate-index instrumentation (candidates.go, alloc.Index):
	// exact evaluations performed after pruning vs clusters skipped via
	// the gain upper bound / feasibility screens / top-k cutoff.
	indexEvaluated *telemetry.Counter
	indexPruned    *telemetry.Counter

	shareMoves      *telemetry.Counter
	shareAccepts    *telemetry.Counter
	dispMoves       *telemetry.Counter
	dispAccepts     *telemetry.Counter
	activations     *telemetry.Counter
	deactivations   *telemetry.Counter
	reassignments   *telemetry.Counter
	unplacedClients *telemetry.Gauge

	shareDelta     *telemetry.Gauge
	dispDelta      *telemetry.Gauge
	turnOnDelta    *telemetry.Gauge
	turnOffDelta   *telemetry.Gauge
	reassignDelta  *telemetry.Gauge
	reconcileDelta *telemetry.Gauge
}

// newSolverTel resolves every handle once; nil in, nil out.
func newSolverTel(set *telemetry.Set) *solverTel {
	if set == nil {
		return nil
	}
	set.Metrics.Help("solver_phase_seconds", "time spent in each Resource_Alloc phase")
	set.Metrics.Help("solver_moves_total", "local-search moves attempted per phase")
	set.Metrics.Help("solver_moves_accepted_total", "local-search moves accepted per phase")
	set.Metrics.Help("solver_profit_delta_total", "cumulative profit change contributed per phase")
	set.Metrics.Help("solver_reassign_scored_total", "clients whose reassignment candidates were (re)scored")
	set.Metrics.Help("solver_reassign_dirty_skipped_total", "clients that skipped reassignment scoring because their clusters were clean")
	set.Metrics.Help("solver_reassign_rescores_total", "reassignment candidates rescored after an earlier commit dirtied their clusters")
	set.Metrics.Help("solver_reassign_commit_failures_total", "reassignment commits rejected by the allocation despite a feasible score")
	set.Metrics.Help("solver_reassign_restore_failures_total", "clients left unserved because restoring their previous placement failed after a rejected move")
	set.Metrics.Help("solver_index_evaluated_total", "candidate clusters evaluated exactly after index pruning")
	set.Metrics.Help("solver_index_pruned_total", "candidate clusters skipped by the index's gain upper bound, feasibility screens or top-k cutoff")
	phaseDur := func(phase string) *telemetry.Histogram {
		return set.Histogram(telemetry.Name("solver_phase_seconds", "phase", phase), telemetry.DurationBuckets)
	}
	phaseDelta := func(phase string) *telemetry.Gauge {
		return set.Gauge(telemetry.Name("solver_profit_delta_total", "phase", phase))
	}
	return &solverTel{
		set:    set,
		flight: set.FlightRecorder(),
		solves: set.Counter("solver_solves_total"),
		rounds: set.Counter("solver_local_search_rounds_total"),

		greedyDur:     phaseDur(phaseGreedy),
		roundDur:      set.Histogram("solver_round_seconds", telemetry.DurationBuckets),
		shareDur:      phaseDur(phaseShare),
		dispersionDur: phaseDur(phaseDispersion),
		turnOnDur:     phaseDur(phaseTurnOn),
		turnOffDur:    phaseDur(phaseTurnOff),
		reassignDur:   phaseDur(phaseReassign),
		reconcileDur:  phaseDur(phaseReconcile),

		reassignScoreDur:   phaseDur(phaseReassignScore),
		reassignCommitDur:  phaseDur(phaseReassignCommit),
		reassignRescoreDur: phaseDur(phaseReassignRescore),

		reassignScored:       set.Counter("solver_reassign_scored_total"),
		reassignSkipped:      set.Counter("solver_reassign_dirty_skipped_total"),
		reassignRescores:     set.Counter("solver_reassign_rescores_total"),
		reassignCommitFails:  set.Counter("solver_reassign_commit_failures_total"),
		reassignRestoreFails: set.Counter("solver_reassign_restore_failures_total"),

		indexEvaluated: set.Counter("solver_index_evaluated_total"),
		indexPruned:    set.Counter("solver_index_pruned_total"),

		shareMoves:      set.Counter(telemetry.Name("solver_moves_total", "phase", phaseShare)),
		shareAccepts:    set.Counter(telemetry.Name("solver_moves_accepted_total", "phase", phaseShare)),
		dispMoves:       set.Counter(telemetry.Name("solver_moves_total", "phase", phaseDispersion)),
		dispAccepts:     set.Counter(telemetry.Name("solver_moves_accepted_total", "phase", phaseDispersion)),
		activations:     set.Counter("solver_activations_total"),
		deactivations:   set.Counter("solver_deactivations_total"),
		reassignments:   set.Counter("solver_reassignments_total"),
		unplacedClients: set.Gauge("solver_unplaced_clients"),

		shareDelta:     phaseDelta(phaseShare),
		dispDelta:      phaseDelta(phaseDispersion),
		turnOnDelta:    phaseDelta(phaseTurnOn),
		turnOffDelta:   phaseDelta(phaseTurnOff),
		reassignDelta:  phaseDelta(phaseReassign),
		reconcileDelta: phaseDelta(phaseReconcile),
	}
}

// startCtx opens a span as a child of the span in ctx; inert (and ctx
// unchanged) when disabled.
func (t *solverTel) startCtx(ctx context.Context, name string) (telemetry.Span, context.Context) {
	if t == nil {
		return telemetry.Span{}, ctx
	}
	return t.set.StartCtx(ctx, name)
}

// startCtxAt is startCtx with an explicit child index: fan-out sites
// (per-shard spans) pass their task index so the span ID is independent
// of goroutine scheduling.
func (t *solverTel) startCtxAt(ctx context.Context, name string, index int) (telemetry.Span, context.Context) {
	if t == nil {
		return telemetry.Span{}, ctx
	}
	return t.set.Tracer.StartCtxAt(ctx, name, index)
}

// flightRec returns the flight recorder; nil when telemetry is off.
func (t *solverTel) flightRec() *telemetry.Flight {
	if t == nil {
		return nil
	}
	return t.flight
}
