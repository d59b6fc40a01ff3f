package core

import "time"

// Attribution splits a solve's profit between its initial value and the
// contribution of each local-search phase, read from the allocation's
// incremental per-cluster ledger (O(touched) per read, so the breakdown
// is always on — no telemetry required). The identity
//
//	Initial + phaseSum() ≈ Final
//
// holds up to floating-point summation order: the ledger groups Kahan
// sums per cluster, so the per-phase deltas and the final whole-cloud
// profit fold the same terms in different orders. Residual() reports the
// gap; tests bound it by the ledger's drift tolerance.
type Attribution struct {
	// Initial is the profit of the greedy initial solution (or the warm
	// start) before any local search.
	Initial float64 `json:"initial"`
	// ShareAdjust .. TurnOff are the cumulative profit deltas of the
	// per-cluster sweep phases across all improvement rounds.
	ShareAdjust      float64 `json:"share_adjust"`
	DispersionAdjust float64 `json:"dispersion_adjust"`
	TurnOn           float64 `json:"turn_on"`
	TurnOff          float64 `json:"turn_off"`
	// Reassign is the cumulative delta of the reassignment passes (the
	// whole-cloud pass, or the shard-scoped passes in sharded mode).
	Reassign float64 `json:"reassign"`
	// Reconcile is the cumulative delta of the sharded solve's serial
	// cross-shard reconciliation passes (zero when not sharded).
	Reconcile float64 `json:"reconcile"`
	// Final is the profit after the last round.
	Final float64 `json:"final"`
}

// phaseSum is the total profit attributed to the local-search phases.
func (at Attribution) phaseSum() float64 {
	return at.ShareAdjust + at.DispersionAdjust + at.TurnOn + at.TurnOff +
		at.Reassign + at.Reconcile
}

// Residual is the part of Final − Initial the phase deltas do not
// account for — floating-point regrouping only, bounded by the ledger
// drift tolerance.
func (at Attribution) Residual() float64 {
	return at.Final - at.Initial - at.phaseSum()
}

// PhaseTimings reports where a solve's wall-clock time went. Sweep (and
// Reassign in sharded mode) sum the busy time of the sweep's parts: wall
// time for the single-part default, more than the elapsed wall clock when
// Config.Parallel or shards run parts concurrently; so do the phase and
// stage times that split them.
type PhaseTimings struct {
	// Greedy covers the initial-solution construction (all starts, or
	// the warm-start replay plus re-placements).
	Greedy time.Duration `json:"greedy"`
	// Sweep covers the per-cluster phases (share adjust, dispersion
	// adjust, turn on, turn off) across all rounds.
	Sweep time.Duration `json:"sweep"`
	// Reassign covers the reassignment passes across all rounds.
	Reassign time.Duration `json:"reassign"`
	// Reconcile covers the sharded solve's serial cross-shard
	// reconciliation passes (zero when not sharded).
	Reconcile time.Duration `json:"reconcile"`
	// ShareAdjust .. TurnOff split Sweep by phase.
	ShareAdjust      time.Duration `json:"share_adjust"`
	DispersionAdjust time.Duration `json:"dispersion_adjust"`
	TurnOn           time.Duration `json:"turn_on"`
	TurnOff          time.Duration `json:"turn_off"`
	// ReassignScore, ReassignCommit and ReassignRescore split the
	// reassignment passes (Reassign plus Reconcile) by stage: candidate
	// scoring, the commit loop, and rescoring after a commit dirtied a
	// candidate's clusters.
	ReassignScore   time.Duration `json:"reassign_score"`
	ReassignCommit  time.Duration `json:"reassign_commit"`
	ReassignRescore time.Duration `json:"reassign_rescore"`
}

// add folds o's counts, rounds, phase deltas and times into st; the
// profits, Unplaced and Elapsed stay st's own.
func (st *Stats) add(o *Stats) {
	st.LocalSearchIters += o.LocalSearchIters
	st.Activations += o.Activations
	st.Deactivations += o.Deactivations
	st.Reassignments += o.Reassignments
	st.ShareMoves += o.ShareMoves
	st.ShareAccepts += o.ShareAccepts
	st.DispersionMoves += o.DispersionMoves
	st.DispersionAccepts += o.DispersionAccepts
	st.ReassignScored += o.ReassignScored
	st.ReassignSkipped += o.ReassignSkipped
	st.ReassignRescores += o.ReassignRescores
	st.CommitFailures += o.CommitFailures
	st.RestoreFailures += o.RestoreFailures
	st.IndexEvaluated += o.IndexEvaluated
	st.IndexPruned += o.IndexPruned
	st.RoundDurations = append(st.RoundDurations, o.RoundDurations...)

	at, oa := &st.Attribution, &o.Attribution
	at.ShareAdjust += oa.ShareAdjust
	at.DispersionAdjust += oa.DispersionAdjust
	at.TurnOn += oa.TurnOn
	at.TurnOff += oa.TurnOff
	at.Reassign += oa.Reassign
	at.Reconcile += oa.Reconcile

	tm, ot := &st.Timings, &o.Timings
	tm.Greedy += ot.Greedy
	tm.Sweep += ot.Sweep
	tm.Reassign += ot.Reassign
	tm.Reconcile += ot.Reconcile
	tm.ShareAdjust += ot.ShareAdjust
	tm.DispersionAdjust += ot.DispersionAdjust
	tm.TurnOn += ot.TurnOn
	tm.TurnOff += ot.TurnOff
	tm.ReassignScore += ot.ReassignScore
	tm.ReassignCommit += ot.ReassignCommit
	tm.ReassignRescore += ot.ReassignRescore
}
