package core

import (
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

// greedyEval is one exactly-evaluated candidate cluster of the indexed
// greedy path, with eval-owned (recycled) portions. bound keeps the
// index's gain upper bound so the flight recorder can report bound vs
// exact for the chosen candidate.
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
// buffers, the trace context stamped onto flight-recorder events, and
// the index hit/prune counts the owner folds into telemetry when the
// pass ends.
type greedyState struct {
	ix     *alloc.Index
	subset []model.ClusterID
	cands  []alloc.Candidate
	evals  []greedyEval
	dist   distScratch
	ref    telemetry.TraceRef

	evaluated int64
	pruned    int64
}

// newGreedyState builds the candidate-generation state for one greedy
// pass over allocation a: index-backed when Config.CandidateClusters
// enables top-k pruning within the scope, plain (exact scan) otherwise.
func (s *Solver) newGreedyState(a *alloc.Allocation, subset []model.ClusterID) *greedyState {
	limit := s.scen.Cloud.NumClusters()
	if subset != nil {
		limit = len(subset)
	}
	if k := s.cfg.CandidateClusters; k > 0 && k < limit {
		return &greedyState{ix: alloc.NewIndex(a), subset: subset}
	}
	return &greedyState{subset: subset}
}

// setRef stamps the pass's flight-recorder events with the enclosing
// span's trace context. Nil-safe (placeBest accepts a nil state).
func (gs *greedyState) setRef(ref telemetry.TraceRef) {
	if gs != nil {
		gs.ref = ref
	}
}

// flushTelemetry folds the pass's index counters into the solver metrics.
func (gs *greedyState) flushTelemetry(tel *solverTel) {
	if gs == nil || tel == nil {
		return
	}
	if gs.evaluated > 0 {
		tel.indexEvaluated.Add(gs.evaluated)
	}
	if gs.pruned > 0 {
		tel.indexPruned.Add(gs.pruned)
	}
	gs.evaluated, gs.pruned = 0, 0
}

// placeBest assigns client i to its most profitable cluster within gs's
// scope (nil gs = exact whole-cloud scan); ErrCannotPlace when no cluster
// can host it.
func (s *Solver) placeBest(a *alloc.Allocation, i model.ClientID, gs *greedyState) error {
	if gs != nil && gs.ix != nil {
		return s.placeBestIndexed(a, i, gs)
	}
	var subset []model.ClusterID
	var ref telemetry.TraceRef
	if gs != nil {
		subset = gs.subset
		ref = gs.ref
	}
	return s.placeBestFull(a, i, subset, ref)
}

// flightSampled returns the flight recorder when client i falls into its
// deterministic sample; nil otherwise (and always when telemetry is off),
// so hot-path callers skip building the event entirely.
func (s *Solver) flightSampled(i model.ClientID) *telemetry.Flight {
	f := s.tel.flightRec()
	if f == nil || !f.SampleClient(int64(i)) {
		return nil
	}
	return f
}

// flightRecord logs an event unconditionally — for rare outcomes
// (commit/restore failures) that must never be sampled away. Inert when
// telemetry is off.
func (s *Solver) flightRecord(e telemetry.Event) {
	if f := s.tel.flightRec(); f != nil {
		f.Record(e)
	}
}

// placeBestFull is the exact path: price every cluster in scope, pick the
// best estimate, and fall through the estimate order until one Assign
// sticks. With a nil subset this is exactly the seed solver's placeBest.
// ref stamps the outcome's flight-recorder event.
func (s *Solver) placeBestFull(a *alloc.Allocation, i model.ClientID, subset []model.ClusterID, ref telemetry.TraceRef) error {
	type result struct {
		est      float64
		portions []alloc.Portion
		ok       bool
	}
	numC := s.scen.Cloud.NumClusters()
	clusterAt := func(idx int) model.ClusterID { return model.ClusterID(idx) }
	if subset != nil {
		numC = len(subset)
		clusterAt = func(idx int) model.ClusterID { return subset[idx] }
	}
	results := make([]result, numC)
	// The paper's distributed decision making: with Config.Parallel each
	// cluster agent evaluates the client on its own goroutine.
	workers := 1
	if s.cfg.Parallel {
		workers = numC
	}
	parallel.For(parallel.Options{Workers: workers}, numC, func(_, idx int) {
		est, portions, err := s.AssignDistribute(a, i, clusterAt(idx))
		if err == nil {
			results[idx] = result{est: est, portions: portions, ok: true}
		}
	})

	best := -1
	for idx, r := range results {
		if !r.ok {
			continue
		}
		if best == -1 || r.est > results[best].est {
			best = idx
		}
	}
	if s.cfg.AdmissionControl && best != -1 && results[best].est < 0 {
		// Serving this client anywhere would lose money; leave it out and
		// let the exact-profit reassignment pass re-admit it if the
		// linearized estimate was too pessimistic.
		if f := s.flightSampled(i); f != nil {
			f.Record(telemetry.Event{Kind: telemetry.EventPlaceReject, Client: int64(i),
				Reason: "negative_gain", Exact: results[best].est, Trace: ref})
		}
		return ErrCannotPlace
	}
	// Try clusters in descending estimate order until one accepts: the
	// estimate is approximate, so an Assign can still fail in rare
	// borderline cases.
	for best != -1 {
		r := results[best]
		if err := a.Assign(i, clusterAt(best), r.portions); err == nil {
			if f := s.flightSampled(i); f != nil {
				f.Record(telemetry.Event{Kind: telemetry.EventPlaceAccept, Client: int64(i),
					Cluster: int64(clusterAt(best)), Exact: r.est, Trace: ref})
			}
			return nil
		}
		results[best].ok = false
		best = -1
		for idx, rr := range results {
			if !rr.ok {
				continue
			}
			if best == -1 || rr.est > results[best].est {
				best = idx
			}
		}
	}
	if f := s.flightSampled(i); f != nil {
		f.Record(telemetry.Event{Kind: telemetry.EventPlaceReject, Client: int64(i),
			Reason: "no_feasible_cluster", Trace: ref})
	}
	return ErrCannotPlace
}

// placeBestIndexed is the pruned path: refresh the index (lazy — only
// clusters whose version moved are recomputed), take the top-k clusters
// by gain upper bound, and evaluate them exactly in bound order, stopping
// as soon as the next bound cannot beat the best exact estimate seen.
func (s *Solver) placeBestIndexed(a *alloc.Allocation, i model.ClientID, gs *greedyState) error {
	scope := s.scen.Cloud.NumClusters()
	if gs.subset != nil {
		scope = len(gs.subset)
		gs.ix.RefreshClusters(gs.subset)
	} else {
		gs.ix.Refresh()
	}
	gs.cands = gs.ix.TopK(i, s.cfg.CandidateClusters, gs.subset, gs.cands)

	evals := gs.evals[:0]
	bestEst := math.Inf(-1)
	var evaluated int64
	var boundPruned bool
	var prunedBound float64
	for _, c := range gs.cands {
		if c.Bound <= bestEst {
			// Candidates are bound-descending: nothing after this one can
			// strictly beat the best exact estimate either.
			boundPruned, prunedBound = true, c.Bound
			break
		}
		est, portions, err := s.assignDistribute(a, i, c.Cluster, nil, &gs.dist)
		evaluated++
		if err != nil {
			continue
		}
		n := len(evals)
		if n < cap(evals) {
			evals = evals[:n+1]
		} else {
			evals = append(evals, greedyEval{})
		}
		ev := &evals[n]
		ev.k, ev.est, ev.bound, ev.ok = c.Cluster, est, c.Bound, true
		// The scratch-backed portions alias gs.dist; copy into the
		// eval-owned recycled slice before the next evaluation.
		ev.portions = append(ev.portions[:0], portions...)
		if est > bestEst {
			bestEst = est
		}
	}
	gs.evals = evals
	gs.evaluated += evaluated
	gs.pruned += int64(scope) - evaluated
	if boundPruned {
		// Bound-vs-exact at the prune decision: the best bound left
		// unevaluated against the exact estimate that beat it.
		if f := s.flightSampled(i); f != nil {
			f.Record(telemetry.Event{Kind: telemetry.EventPruneBound, Client: int64(i),
				Bound: prunedBound, Exact: bestEst, Trace: gs.ref})
		}
	}

	best := -1
	for idx := range evals {
		if !evals[idx].ok {
			continue
		}
		if best == -1 || evals[idx].est > evals[best].est {
			best = idx
		}
	}
	if s.cfg.AdmissionControl && best != -1 && evals[best].est < 0 {
		return s.escalateFull(a, i, gs, evaluated, scope, "negative_gain")
	}
	for best != -1 {
		if err := a.Assign(i, evals[best].k, evals[best].portions); err == nil {
			if f := s.flightSampled(i); f != nil {
				f.Record(telemetry.Event{Kind: telemetry.EventPlaceAccept, Client: int64(i),
					Cluster: int64(evals[best].k), Bound: evals[best].bound,
					Exact: evals[best].est, Trace: gs.ref})
			}
			return nil
		}
		evals[best].ok = false
		best = -1
		for idx := range evals {
			if !evals[idx].ok {
				continue
			}
			if best == -1 || evals[idx].est > evals[best].est {
				best = idx
			}
		}
	}
	return s.escalateFull(a, i, gs, evaluated, scope, "topk_rejected")
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
func (s *Solver) escalateFull(a *alloc.Allocation, i model.ClientID, gs *greedyState, evaluated int64, scope int, reason string) error {
	if evaluated >= int64(scope) {
		// Nothing was pruned; the rejection is exact.
		if f := s.flightSampled(i); f != nil {
			f.Record(telemetry.Event{Kind: telemetry.EventPlaceReject, Client: int64(i),
				Reason: "no_feasible_cluster", Trace: gs.ref})
		}
		return ErrCannotPlace
	}
	gs.pruned -= int64(scope) - evaluated
	gs.evaluated += int64(scope) - evaluated
	if f := s.flightSampled(i); f != nil {
		f.Record(telemetry.Event{Kind: telemetry.EventEscalate, Client: int64(i),
			Reason: reason, Trace: gs.ref})
	}
	return s.placeBestFull(a, i, gs.subset, gs.ref)
}
