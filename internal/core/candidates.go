package core

import (
	"errors"
	"math"

	"repro/internal/alloc"
	"repro/internal/model"
	"repro/internal/parallel"
	"repro/internal/telemetry"
)

// Candidate generation for the greedy phase. placeBest dispatches between
// the exact full scan (placeBestFull — every cluster in scope priced with
// Assign_Distribute, the seed behaviour, bit-compatible) and the indexed
// path (placeBestIndexed — the alloc.Index yields the top-k clusters by
// gain upper bound, which are evaluated exactly in bound order with early
// exit once no remaining bound can beat the best exact estimate). The
// pruning is sound because the index bound dominates the Assign_Distribute
// estimate as well as the exact gain: the DP's revenue term is λ·(Base −
// Slope·Σα_j d_j) with every portion's tandem delay d_j at least the
// bound's r_lb, and its cost term is at least the bound's cost floor.

// greedyEval is one exactly-evaluated candidate cluster, with eval-owned
// (recycled) portions. bound keeps the index's gain upper bound (zero on
// the full scan) so the flight recorder can report bound vs exact for the
// chosen candidate.
type greedyEval struct {
	k        model.ClusterID
	est      float64
	bound    float64
	portions []alloc.Portion
	ok       bool
}

// greedyState carries one greedy pass's candidate-generation machinery:
// the index (nil for the exact path), the cluster scope (nil for the
// whole cloud — the sharded solve passes its own clusters), recycled
// buffers, the Assign_Distribute scratches (one per pricing worker: the
// scope's size when Config.Parallel prices clusters concurrently, else
// one), the trace context stamped onto flight-recorder events, and the
// index hit/prune counts the owner folds into its Stats when the pass
// ends.
type greedyState struct {
	ix     *alloc.Index
	subset []model.ClusterID
	scope  int // clusters in scope
	cands  []alloc.Candidate
	evals  []greedyEval // cap scope: never grows mid-pass
	dist   []distScratch
	ref    telemetry.TraceRef

	evaluated int
	pruned    int
}

// newGreedyState builds the candidate-generation state for one greedy
// pass over allocation a: index-backed when Config.CandidateClusters
// enables top-k pruning within the scope, plain (exact scan) otherwise.
func (s *Solver) newGreedyState(a *alloc.Allocation, subset []model.ClusterID) *greedyState {
	scope := s.scen.Cloud.NumClusters()
	if subset != nil {
		scope = len(subset)
	}
	workers := 1
	if s.cfg.Parallel {
		workers = scope
	}
	gs := &greedyState{
		subset: subset,
		scope:  scope,
		evals:  make([]greedyEval, 0, scope),
		dist:   make([]distScratch, workers),
	}
	if k := s.cfg.CandidateClusters; k > 0 && k < scope {
		gs.ix = alloc.NewIndex(a)
	}
	return gs
}

// clusterAt maps a position in the scope to its cluster.
func (gs *greedyState) clusterAt(idx int) model.ClusterID {
	if gs.subset != nil {
		return gs.subset[idx]
	}
	return model.ClusterID(idx)
}

// fold adds the pass's index counts to st.
func (gs *greedyState) fold(st *Stats) {
	st.IndexEvaluated += gs.evaluated
	st.IndexPruned += gs.pruned
}

// placeBest assigns client i to its most profitable cluster within gs's
// scope; ErrCannotPlace when no cluster can host it, any other error when
// a cluster's evaluation itself failed.
func (s *Solver) placeBest(a *alloc.Allocation, i model.ClientID, gs *greedyState) error {
	if gs.ix != nil {
		return s.placeBestIndexed(a, i, gs)
	}
	return s.placeBestFull(a, i, gs)
}

// bestEval returns the position of the live eval with the highest
// estimate (the first on ties), -1 when none is left.
func bestEval(evals []greedyEval) int {
	best := -1
	for idx := range evals {
		if !evals[idx].ok {
			continue
		}
		if best == -1 || evals[idx].est > evals[best].est {
			best = idx
		}
	}
	return best
}

// assignBest commits client i to the best-estimated cluster in evals,
// falling through the descending estimate order until one Assign sticks:
// the estimate is approximate, so an Assign can still fail in rare
// borderline cases. It reports whether the client was placed.
func (s *Solver) assignBest(a *alloc.Allocation, i model.ClientID, evals []greedyEval, ref telemetry.TraceRef) bool {
	for best := bestEval(evals); best != -1; best = bestEval(evals) {
		ev := &evals[best]
		if err := a.Assign(i, ev.k, ev.portions); err == nil {
			if f := s.flightSampled(i); f != nil {
				f.Record(telemetry.Event{Kind: telemetry.EventPlaceAccept, Client: int64(i),
					Cluster: int64(ev.k), Bound: ev.bound, Exact: ev.est, Trace: ref})
			}
			return true
		}
		ev.ok = false
	}
	return false
}

// placeBestFull is the exact path: price every cluster in scope, pick the
// best estimate, and fall through the estimate order until one Assign
// sticks. Over the whole cloud this is exactly the seed solver's
// placeBest.
func (s *Solver) placeBestFull(a *alloc.Allocation, i model.ClientID, gs *greedyState) error {
	evals := gs.evals[:gs.scope]
	// The paper's distributed decision making: with Config.Parallel each
	// cluster agent evaluates the client on its own goroutine, in its own
	// scratch; the portions are copied into the eval-owned recycled slice
	// before that scratch's next evaluation.
	err := parallel.ForErr(parallel.Options{Workers: len(gs.dist)}, gs.scope, func(w, idx int) error {
		ev := &evals[idx]
		ev.k, ev.bound, ev.ok = gs.clusterAt(idx), 0, false
		est, portions, err := s.assignDistribute(a, i, ev.k, noServer, &gs.dist[w])
		if err != nil {
			if errors.Is(err, ErrCannotPlace) {
				return nil
			}
			return err
		}
		ev.est, ev.ok = est, true
		ev.portions = append(ev.portions[:0], portions...)
		return nil
	})
	if err != nil {
		return err
	}

	if best := bestEval(evals); s.cfg.AdmissionControl && best != -1 && evals[best].est < 0 {
		// Serving this client anywhere would lose money; leave it out and
		// let the exact-profit reassignment pass re-admit it if the
		// linearized estimate was too pessimistic.
		if f := s.flightSampled(i); f != nil {
			f.Record(telemetry.Event{Kind: telemetry.EventPlaceReject, Client: int64(i),
				Reason: "negative_gain", Exact: evals[best].est, Trace: gs.ref})
		}
		return ErrCannotPlace
	}
	if s.assignBest(a, i, evals, gs.ref) {
		return nil
	}
	if f := s.flightSampled(i); f != nil {
		f.Record(telemetry.Event{Kind: telemetry.EventPlaceReject, Client: int64(i),
			Reason: "no_feasible_cluster", Trace: gs.ref})
	}
	return ErrCannotPlace
}

// placeBestIndexed is the pruned path: refresh the index (lazy — only
// clusters whose version moved are recomputed), take the top-k clusters
// by gain upper bound, and evaluate them exactly in bound order, stopping
// as soon as the next bound cannot beat the best exact estimate seen.
func (s *Solver) placeBestIndexed(a *alloc.Allocation, i model.ClientID, gs *greedyState) error {
	if gs.subset != nil {
		gs.ix.RefreshClusters(gs.subset)
	} else {
		gs.ix.Refresh()
	}
	gs.cands = gs.ix.TopK(i, s.cfg.CandidateClusters, gs.subset, gs.cands)

	evals := gs.evals[:0]
	bestEst := math.Inf(-1)
	var evaluated int
	var boundPruned bool
	var prunedBound float64
	for _, c := range gs.cands {
		if c.Bound <= bestEst {
			// Candidates are bound-descending: nothing after this one can
			// strictly beat the best exact estimate either.
			boundPruned, prunedBound = true, c.Bound
			break
		}
		est, portions, err := s.assignDistribute(a, i, c.Cluster, noServer, &gs.dist[0])
		evaluated++
		if err != nil {
			if errors.Is(err, ErrCannotPlace) {
				continue
			}
			return err
		}
		evals = evals[:len(evals)+1] // within cap: top-k yields fewer than scope
		ev := &evals[len(evals)-1]
		ev.k, ev.est, ev.bound, ev.ok = c.Cluster, est, c.Bound, true
		// The scratch-backed portions alias gs.dist; copy into the
		// eval-owned recycled slice before the next evaluation.
		ev.portions = append(ev.portions[:0], portions...)
		if est > bestEst {
			bestEst = est
		}
	}
	gs.evaluated += evaluated
	gs.pruned += gs.scope - evaluated
	if boundPruned {
		// Bound-vs-exact at the prune decision: the best bound left
		// unevaluated against the exact estimate that beat it.
		if f := s.flightSampled(i); f != nil {
			f.Record(telemetry.Event{Kind: telemetry.EventPruneBound, Client: int64(i),
				Bound: prunedBound, Exact: bestEst, Trace: gs.ref})
		}
	}

	if best := bestEval(evals); s.cfg.AdmissionControl && best != -1 && evals[best].est < 0 {
		return s.escalateFull(a, i, gs, evaluated, "negative_gain")
	}
	if s.assignBest(a, i, evals, gs.ref) {
		return nil
	}
	return s.escalateFull(a, i, gs, evaluated, "topk_rejected")
}

// escalateFull is the indexed path's exactness fallback for rejections:
// when none of the top-k candidates accepts the client, the pruned
// clusters are the only hope left, so the client gets the full exact
// scan over the scope before being declared unplaceable. On loaded
// clouds the gain bound separates candidates poorly (many clusters have
// a thin positive bound but a negative exact gain) and top-k-only
// admission rejects far too many clients; the escalation bounds that
// damage at the cost of O(scope) exact evaluations per rejected client
// — in the sharded solve the scope is one shard's clusters, keeping the
// fallback cheap.
func (s *Solver) escalateFull(a *alloc.Allocation, i model.ClientID, gs *greedyState, evaluated int, reason string) error {
	pruned := gs.scope - evaluated
	if pruned <= 0 {
		// Nothing was pruned; the rejection is exact.
		if f := s.flightSampled(i); f != nil {
			f.Record(telemetry.Event{Kind: telemetry.EventPlaceReject, Client: int64(i),
				Reason: "no_feasible_cluster", Trace: gs.ref})
		}
		return ErrCannotPlace
	}
	gs.pruned -= pruned
	gs.evaluated += pruned
	if f := s.flightSampled(i); f != nil {
		f.Record(telemetry.Event{Kind: telemetry.EventEscalate, Client: int64(i),
			Reason: reason, Trace: gs.ref})
	}
	return s.placeBestFull(a, i, gs)
}
