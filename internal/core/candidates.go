package core

import (
	"errors"
	"math"
	"math/rand"

	"repro/internal/alloc"
	"repro/internal/model"
	"repro/internal/parallel"
	"repro/internal/telemetry"
)

// Candidate generation for the greedy phase. Every placement works on a
// scope — the solver's every-cluster list for the whole cloud, a shard's
// own clusters — and one placement loop (place) serves every builder.
// placeBest takes its candidates from the exact scan of the scope
// (priceScope — every cluster priced with Assign_Distribute, the seed
// behaviour, bit-compatible) or from the index (priceTopK — the
// alloc.Index yields the top-k clusters by gain upper bound, which are
// evaluated exactly in bound order with early exit once no remaining bound
// can beat the best exact estimate). The pruning is sound because the
// index bound dominates the Assign_Distribute estimate as well as the
// exact gain: the DP's revenue term is λ·(Base − Slope·Σα_j d_j) with
// every portion's tandem delay d_j at least the bound's r_lb, and its cost
// term is at least the bound's cost floor.

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
// the clusters in scope (every cluster for the whole cloud, its own for
// a shard), the index (nil for the exact scan), the recycled evals, the
// scratches borrowed from the solver's pool (one per pricing worker: the
// scope's size when Config.Parallel prices clusters concurrently, else
// one; released by place), the trace context stamped onto flight-recorder
// events, and the index hit/prune counts.
type greedyState struct {
	scope []model.ClusterID
	ix    *alloc.Index
	evals []greedyEval // cap len(scope): never grows mid-pass
	scr   []*distScratch
	ref   telemetry.TraceRef

	evaluated int
	pruned    int
}

// newGreedyState builds the candidate-generation state for one greedy
// pass over allocation a on the clusters in scope: index-backed when
// Config.CandidateClusters enables top-k pruning within the scope, plain
// (exact scan) otherwise.
func (s *Solver) newGreedyState(a *alloc.Allocation, scope []model.ClusterID, ref telemetry.TraceRef) *greedyState {
	workers := 1
	if s.cfg.Parallel {
		workers = len(scope)
	}
	gs := &greedyState{
		scope: scope,
		evals: make([]greedyEval, 0, len(scope)),
		scr:   s.borrowDists(nil, workers),
		ref:   ref,
	}
	if k := s.cfg.CandidateClusters; k > 0 && k < len(scope) {
		gs.ix = alloc.NewIndex(a)
	}
	return gs
}

// place is the greedy placement loop of every builder: it places clients
// in the order given, each on its most profitable cluster in scope, and
// returns how many it placed. Absent (zero-rate) clients have nothing to
// place and are skipped; a client no cluster in scope can host stays
// unplaced. The pass's index counts are added to st.
func (s *Solver) place(a *alloc.Allocation, clients []model.ClientID, scope []model.ClusterID,
	ref telemetry.TraceRef, st *Stats) (int, error) {
	gs := s.newGreedyState(a, scope, ref)
	defer s.returnDists(gs.scr)
	var placed int
	for _, i := range clients {
		if s.scen.Clients[i].PredictedRate == 0 {
			continue
		}
		switch err := s.placeBest(a, i, gs); {
		case err == nil:
			placed++
		case !errors.Is(err, ErrCannotPlace):
			return placed, err
		}
	}
	st.IndexEvaluated += gs.evaluated
	st.IndexPruned += gs.pruned
	return placed, nil
}

// shuffled returns clients in the order of rng.Perm(len(clients)).
func shuffled(rng *rand.Rand, clients []model.ClientID) []model.ClientID {
	out := make([]model.ClientID, len(clients))
	for idx, p := range rng.Perm(len(clients)) {
		out[idx] = clients[p]
	}
	return out
}

// placeBest assigns client i to its most profitable cluster within gs's
// scope; ErrCannotPlace when no cluster can host it, any other error when
// a cluster's evaluation itself failed. The candidates are the whole
// scope (priceScope) or, with an index, the top-k clusters by gain upper
// bound (priceTopK). Either way the best estimate is admitted or rejected
// once, then committed by falling through the estimate order. When none
// of the top-k candidates takes the client, the pruned clusters are the
// only hope left, so the client escalates to the exact scan of the scope
// before it is declared unplaceable: on loaded clouds the gain bound
// separates candidates poorly (many clusters have a thin positive bound
// but a negative exact gain), and top-k-only admission would reject far
// too many clients. In the sharded solve the scope is one shard's
// clusters, keeping the fallback cheap.
func (s *Solver) placeBest(a *alloc.Allocation, i model.ClientID, gs *greedyState) error {
	topK := gs.ix != nil
	for {
		var evals []greedyEval
		var evaluated int
		var err error
		if topK {
			evals, evaluated, err = s.priceTopK(a, i, gs)
		} else {
			evals, err = s.priceScope(a, i, gs)
		}
		if err != nil {
			return err
		}
		ev := telemetry.Event{Kind: telemetry.EventPlaceReject, Client: int64(i),
			Reason: "no_feasible_cluster", Trace: gs.ref}
		if topK {
			ev.Kind, ev.Reason = telemetry.EventEscalate, "topk_rejected"
		}
		if best := bestEval(evals); s.cfg.AdmissionControl && best != -1 && evals[best].est < 0 {
			// Serving this client here would lose money; leave it out and
			// let the exact-profit reassignment pass re-admit it if the
			// linearized estimate was too pessimistic.
			ev.Reason, ev.Exact = "negative_gain", evals[best].est
		} else if s.assignBest(a, i, evals, gs.ref) {
			if topK {
				gs.evaluated += evaluated
				gs.pruned += len(gs.scope) - evaluated
			}
			return nil
		}
		if f := s.flightSampled(i); f != nil {
			f.Record(ev)
		}
		if !topK {
			return ErrCannotPlace
		}
		// Escalate: the exact scan prices every cluster in scope, so none
		// of them counts as pruned.
		gs.evaluated += len(gs.scope)
		topK = false
	}
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

// priceScope is the exact candidate source: every cluster in scope,
// priced in cluster order. Over the whole cloud this is exactly the seed
// solver's scan.
func (s *Solver) priceScope(a *alloc.Allocation, i model.ClientID, gs *greedyState) ([]greedyEval, error) {
	evals := gs.evals[:len(gs.scope)]
	// The paper's distributed decision making: with Config.Parallel each
	// cluster agent evaluates the client on its own goroutine, in its own
	// scratch; the portions are copied into the eval-owned recycled slice
	// before that scratch's next evaluation.
	err := parallel.ForErr(parallel.Options{Workers: len(gs.scr)}, len(gs.scope), func(w, idx int) error {
		ev := &evals[idx]
		ev.k, ev.bound, ev.ok = gs.scope[idx], 0, false
		est, portions, err := s.assignDistribute(a, i, ev.k, noServer, gs.scr[w])
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
	return evals, err
}

// priceTopK is the pruned candidate source: refresh the index (lazy —
// only clusters whose version moved are recomputed), take the top-k
// clusters in scope by gain upper bound, and evaluate them exactly in
// bound order, stopping as soon as the next bound cannot beat the best
// exact estimate seen. It also returns how many clusters it evaluated.
func (s *Solver) priceTopK(a *alloc.Allocation, i model.ClientID, gs *greedyState) ([]greedyEval, int, error) {
	scr := gs.scr[0]
	gs.ix.RefreshClusters(gs.scope)
	scr.topK = gs.ix.TopK(i, s.cfg.CandidateClusters, gs.scope, scr.topK)

	evals := gs.evals[:0]
	bestEst := math.Inf(-1)
	var evaluated int
	for _, c := range scr.topK {
		if c.Bound <= bestEst {
			// Candidates are bound-descending: nothing after this one can
			// strictly beat the best exact estimate either. Bound-vs-exact
			// at the prune decision: the best bound left unevaluated
			// against the exact estimate that beat it.
			if f := s.flightSampled(i); f != nil {
				f.Record(telemetry.Event{Kind: telemetry.EventPruneBound, Client: int64(i),
					Bound: c.Bound, Exact: bestEst, Trace: gs.ref})
			}
			break
		}
		est, portions, err := s.assignDistribute(a, i, c.Cluster, noServer, scr)
		evaluated++
		if err != nil {
			if errors.Is(err, ErrCannotPlace) {
				continue
			}
			return nil, evaluated, err
		}
		evals = evals[:len(evals)+1] // within cap: top-k yields fewer than the scope
		ev := &evals[len(evals)-1]
		ev.k, ev.est, ev.bound, ev.ok = c.Cluster, est, c.Bound, true
		// The scratch-backed portions alias scr; copy into the
		// eval-owned recycled slice before the next evaluation.
		ev.portions = append(ev.portions[:0], portions...)
		if est > bestEst {
			bestEst = est
		}
	}
	return evals, evaluated, nil
}
