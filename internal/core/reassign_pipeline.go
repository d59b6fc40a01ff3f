package core

import (
	"context"
	"math"
	"time"

	"repro/internal/alloc"
	"repro/internal/model"
	"repro/internal/parallel"
	"repro/internal/telemetry"
)

// The reassignment pass (see ReassignmentPassCtx) runs in two stages:
//
//  1. Scoring: an internal/parallel fan-out prices every client's
//     candidate placements (one Assign_Distribute plus one exact
//     marginal gain per cluster) against the frozen allocation through a
//     read-only alloc.View —
//     no mutation, no ledger traffic, so workers share the allocation
//     without locks.
//  2. Commit: a serial loop pops candidates in descending profit-delta
//     order (ties broken by ascending ClientID — this fixed order is
//     what makes the result independent of the worker count) and applies
//     each through a Txn, revalidating the exact delta against the live
//     allocation. Candidates whose source or target cluster was dirtied
//     by an earlier commit are rescored against the live state and
//     re-enter the queue.
//
// Across passes the solver remembers, per client, the cluster versions
// its last decision depended on (its own cluster and its best candidate
// cluster). A client whose relevant clusters are untouched since then is
// skipped entirely, so passes on a converged allocation approach
// O(changed) instead of O(clients × clusters).

// reassignCand is one client's committed-to-be-tried action: a move to
// cluster toK (fromK = -1 re-admits an unserved client), or an eviction
// (toK = -1).
type reassignCand struct {
	client   model.ClientID
	fromK    int
	toK      int
	delta    float64 // expected profit improvement; the commit-order key
	minDelta float64 // live-revalidation threshold (Txn.Delta must exceed it)
	fromVer  uint64  // ClusterVersion(fromK) at scoring time
	toVer    uint64  // ClusterVersion(toK) at scoring time
	portions []alloc.Portion
}

// clientMark records what a client's most recent scoring decision
// depended on, for the cross-pass skip rule.
type clientMark struct {
	scored bool
	cur    int32 // cluster the client was on when scored (-1 unassigned)
	best   int32 // best candidate cluster found (-1 when none was feasible)
	curVer uint64
	// bestVer is ClusterVersion(best) when best >= 0; when no cluster
	// could host the client it is the version sum over the pass's scope
	// instead — any change there may have opened capacity, so every
	// cluster in scope counts.
	bestVer uint64
}

// stale reports whether the mark no longer covers the allocation's
// current state and the client must be rescored.
func (m *clientMark) stale(a *alloc.Allocation, i model.ClientID, sumVer uint64) bool {
	if !m.scored || int(m.cur) != a.ClusterOf(i) {
		return true
	}
	if m.cur >= 0 && a.ClusterVersion(model.ClusterID(m.cur)) != m.curVer {
		return true
	}
	if m.best >= 0 {
		return a.ClusterVersion(model.ClusterID(m.best)) != m.bestVer
	}
	return sumVer != m.bestVer
}

// scoreResult is one client's scoring outcome, plus the index's
// evaluated/pruned tallies (folded into Stats serially by the pass).
type scoreResult struct {
	cand      reassignCand
	hasCand   bool
	mark      clientMark
	evaluated int
	pruned    int
}

// reassignState carries one pass scope's recycled buffers and candidate
// index across its passes. Solver.run keeps a mark-less one for the whole
// cloud per solve (its sweeps touch every cluster before each pass) and one
// per shard in the shard plan; the exported entry points keep theirs, with
// cross-pass skip marks, in the solver's pass slot (exportedPass).
type reassignState struct {
	a       *alloc.Allocation
	marks   []clientMark
	toScore []model.ClientID
	results []scoreResult
	heap    []reassignCand
	// scorers are the scoring workers' scratches, borrowed for one pass;
	// scorer 0 also serves the commit loop's rescoring.
	scorers []*distScratch
	// ix is the candidate index when Config.CandidateClusters enables
	// top-k pruning; refreshed serially before the parallel scoring stage
	// and before each commit-loop rescore.
	ix *alloc.Index
}

// exportedPass runs fn on the exported pass slot's state for allocation
// a: the previous call's, skip marks included, when that call ran on a;
// a fresh one otherwise. Concurrent calls each get their own.
func (s *Solver) exportedPass(a *alloc.Allocation, fn func(*reassignState)) {
	s.passMu.Lock()
	rs := s.pass
	s.pass = nil
	s.passMu.Unlock()
	if rs == nil || rs.a != a {
		rs = &reassignState{a: a, marks: make([]clientMark, len(s.clients))}
	}
	fn(rs)
	s.passMu.Lock()
	s.pass = rs
	s.passMu.Unlock()
}

// reassignmentPass scores clients against the clusters in scope and
// commits the improving moves: the whole cloud's pass (every client over
// every cluster, Config.Workers scoring workers) and each shard's own
// pass in the sharded round loop. Absent (zero-rate)
// clients are neither scored nor re-admitted. When rs holds skip marks a
// client whose own and best candidate clusters are untouched since its
// last scoring keeps its decision. workers bounds the scoring fan-out;
// reconcile marks the sharded solve's serial cross-shard reconciliation,
// whose moves are logged (sampled) to the flight recorder as
// reconcile_move events. What the pass counts is added to st.
func (s *Solver) reassignmentPass(ctx context.Context, a *alloc.Allocation, rs *reassignState,
	clients []model.ClientID, scope []model.ClusterID, workers int, reconcile bool, st *Stats) int {
	// Candidate index: built once per state, refreshed lazily here
	// (serial — the scoring workers only read it).
	var ix *alloc.Index
	if k := s.cfg.CandidateClusters; k > 0 && k < len(scope) {
		if rs.ix == nil {
			rs.ix = alloc.NewIndex(a)
		}
		rs.ix.RefreshClusters(scope)
		ix = rs.ix
	}

	outGain := math.Inf(-1)
	if s.cfg.AdmissionControl {
		outGain = 0
	}

	// Stage 0: absent clients drop out, and with marks the cross-pass skip
	// rule keeps the decision of every client whose own and best
	// candidate clusters are untouched since its last scoring.
	sumVer := a.ClusterVersionSumOf(scope)
	toScore := rs.toScore[:0]
	var absent int
	for _, i := range clients {
		switch {
		case s.scen.Clients[i].PredictedRate == 0:
			absent++
		case rs.marks == nil || rs.marks[i].stale(a, i, sumVer):
			toScore = append(toScore, i)
		}
	}
	rs.toScore = toScore

	// Stage 1: score all stale clients against the frozen allocation.
	t0 := time.Now()
	if cap(rs.results) < len(toScore) {
		rs.results = make([]scoreResult, len(toScore))
	}
	results := rs.results[:len(toScore)]
	scorers := s.borrowDists(rs.scorers, parallel.Bound(workers, len(toScore)))
	rs.scorers = scorers
	defer s.returnDists(scorers)
	parallel.For(parallel.Options{Workers: len(scorers)}, len(toScore), func(w, idx int) {
		results[idx] = s.scoreClient(a, toScore[idx], outGain, scorers[w], ix, scope)
	})

	// Fold the results serially in client order: deterministic marks and
	// a deterministic initial heap regardless of worker interleaving.
	heap := rs.heap[:0]
	for idx, i := range toScore {
		r := &results[idx]
		if rs.marks != nil {
			rs.marks[i] = r.mark
		}
		st.IndexEvaluated += r.evaluated
		st.IndexPruned += r.pruned
		if r.hasCand {
			heap = candPush(heap, r.cand)
		}
	}
	st.ReassignScored += len(toScore)
	st.ReassignSkipped += len(clients) - absent - len(toScore)
	st.Timings.ReassignScore += time.Since(t0)

	// Stage 2: serial commit loop in descending-delta order.
	moves := s.commitCandidates(ctx, a, rs, heap, outGain, ix, scope, reconcile, st)
	rs.heap = heap[:0]
	return moves
}

// commitCandidates is stage 2 of a reassignment pass: pop candidates in
// descending-delta order and apply each through a Txn, revalidating the
// exact delta against the live allocation; a candidate priced against a
// cluster that an earlier commit dirtied is rescored and re-enters the
// queue. Returns the number of committed moves; the stage's counts and
// its commit/rescore time split are added to st.
//
// Index refreshes and rescoring stay inside the scope, and rs's skip
// marks, when it has them, follow every rescore and commit. A shard's
// transactions cover exactly the clusters a move touches, so concurrent
// shards never read or settle each other's ledgers.
func (s *Solver) commitCandidates(ctx context.Context, a *alloc.Allocation, rs *reassignState,
	heap []reassignCand, outGain float64, ix *alloc.Index, scope []model.ClusterID,
	reconcile bool, st *Stats) int {
	ref := telemetry.RefFromContext(ctx)
	tCommit := time.Now()
	var moves int
	var rescoreDur time.Duration
	rollback := func(txn *alloc.Txn, c *reassignCand) {
		if err := txn.Rollback(); err != nil {
			st.RestoreFailures++
			s.flightRecord(telemetry.Event{Kind: telemetry.EventRestoreFail,
				Client: int64(c.client), Cluster: int64(c.fromK), Trace: ref})
			s.debugf("reassign: rollback failed", "client", c.client, "err", err)
		}
	}
	for len(heap) > 0 {
		var c reassignCand
		heap, c = candPop(heap)

		if (c.fromK >= 0 && a.ClusterVersion(model.ClusterID(c.fromK)) != c.fromVer) ||
			(c.toK >= 0 && a.ClusterVersion(model.ClusterID(c.toK)) != c.toVer) {
			// An earlier commit dirtied a cluster this candidate was
			// priced against: rescore against the live allocation.
			tr := time.Now()
			if ix != nil {
				ix.RefreshClusters(scope) // lazy: only the committed-to clusters recompute
			}
			r := s.scoreClient(a, c.client, outGain, rs.scorers[0], ix, scope)
			if rs.marks != nil {
				rs.marks[c.client] = r.mark
			}
			st.IndexEvaluated += r.evaluated
			st.IndexPruned += r.pruned
			st.ReassignRescores++
			rescoreDur += time.Since(tr)
			if r.hasCand {
				heap = candPush(heap, r.cand)
			}
			continue
		}

		// The whole cloud's transaction measures the cloud's profit change;
		// a shard's covers exactly the clusters the move touches, so no
		// other shard's ledger is read or settled (a shard never spans
		// the cloud: the plan has at least two).
		var txn *alloc.Txn
		switch {
		case len(scope) == len(s.all):
			txn = a.Begin()
		case c.fromK >= 0 && c.toK >= 0 && c.fromK != c.toK:
			txn = a.BeginClusters(model.ClusterID(c.fromK), model.ClusterID(c.toK))
		case c.fromK >= 0:
			txn = a.BeginClusters(model.ClusterID(c.fromK))
		default:
			txn = a.BeginClusters(model.ClusterID(c.toK))
		}
		txn.Capture(c.client)
		if c.fromK >= 0 {
			a.Unassign(c.client)
		}
		if c.toK >= 0 {
			if err := a.Assign(c.client, model.ClusterID(c.toK), c.portions); err != nil {
				// The scored candidate does not fit the live allocation
				// after all (borderline DP estimate). Restore and drop it —
				// rescoring the unchanged state would reproduce it.
				st.CommitFailures++
				s.flightRecord(telemetry.Event{Kind: telemetry.EventCommitFail,
					Client: int64(c.client), Cluster: int64(c.toK),
					Delta: finiteOr0(c.delta), Trace: ref})
				s.debugf("reassign: commit of scored candidate failed",
					"client", c.client, "cluster", c.toK, "err", err)
				rollback(txn, &c)
				continue
			}
		}
		if delta := txn.Delta(); delta > c.minDelta {
			txn.Commit()
			moves++
			if reconcile {
				if f := s.flightSampled(c.client); f != nil {
					f.Record(telemetry.Event{Kind: telemetry.EventReconcileMove,
						Client: int64(c.client), Cluster: int64(c.toK),
						Delta: delta, Trace: ref})
				}
			}
			if rs.marks != nil {
				// The commit changed the clusters this client's own decision
				// depended on; make sure the next pass rescores it.
				rs.marks[c.client] = clientMark{}
			}
		} else {
			rollback(txn, &c)
		}
	}
	st.Timings.ReassignCommit += max(0, time.Since(tCommit)-rescoreDur)
	st.Timings.ReassignRescore += rescoreDur
	return moves
}

// scoreClient prices candidate clusters for one client against the
// current allocation (read-only, through an exclusion view) and picks at
// most one candidate action: move to the best cluster when its gain beats
// both staying put (by more than 1e-9) and leaving the client out, else
// evict when staying put earns less than leaving it out. The mark records
// what the decision depended on.
//
// The candidates are the clusters in scope (the whole cloud, or a shard's
// own clusters so no cross-shard state is read). With a nil ix each is
// evaluated exactly (the seed behaviour). With an index, the client's own
// cluster is always evaluated exactly (the index bound is not sound for
// it) and the remaining clusters come from TopK within the scope in
// bound-descending order, stopping once no bound can clear the acceptance
// threshold max(bestGain, prevGain+1e-9, outGain) — every pruned cluster
// provably cannot change the action.
func (s *Solver) scoreClient(a *alloc.Allocation, i model.ClientID, outGain float64,
	ws *distScratch, ix *alloc.Index, scope []model.ClusterID) scoreResult {
	view := a.Excluding(i)
	prevK := a.ClusterOf(i)

	prevGain := math.Inf(-1)
	if prevK != alloc.Unassigned {
		if g, ok := view.CurrentGain(&ws.gain); ok {
			prevGain = g
		}
	}

	bestGain := math.Inf(-1)
	bestK := -1
	var evaluated int
	evalCluster := func(k model.ClusterID) {
		evaluated++
		_, portions, err := s.assignDistribute(&view, i, k, noServer, ws)
		if err != nil {
			return
		}
		if g, ok := view.PlacementGain(k, portions, &ws.gain); ok && g > bestGain {
			bestGain = g
			bestK = int(k)
			ws.best = append(ws.best[:0], portions...)
		}
	}
	if ix == nil {
		for _, k := range scope {
			evalCluster(k)
		}
	} else {
		if prevK != alloc.Unassigned {
			evalCluster(model.ClusterID(prevK))
		}
		ws.topK = ix.TopK(i, s.cfg.CandidateClusters, scope, ws.topK)
		for _, c := range ws.topK {
			if int(c.Cluster) == prevK {
				continue
			}
			threshold := bestGain
			if t := prevGain + 1e-9; t > threshold {
				threshold = t
			}
			if outGain > threshold {
				threshold = outGain
			}
			if c.Bound <= threshold {
				// Bound-descending order: no remaining candidate can strictly
				// beat the threshold, so none can change the action below.
				break
			}
			evalCluster(c.Cluster)
		}
	}

	mark := clientMark{scored: true, cur: int32(prevK), best: int32(bestK)}
	if prevK != alloc.Unassigned {
		mark.curVer = a.ClusterVersion(model.ClusterID(prevK))
	}
	if bestK >= 0 {
		mark.bestVer = a.ClusterVersion(model.ClusterID(bestK))
	} else {
		mark.bestVer = a.ClusterVersionSumOf(scope)
	}
	res := scoreResult{mark: mark, evaluated: evaluated, pruned: len(scope) - evaluated}

	// "Which action" is decided here on scored gains; "apply" is the
	// commit loop's, revalidated against the live ledger.
	switch {
	case bestK >= 0 && bestGain > prevGain+1e-9 && bestGain > outGain:
		c := reassignCand{
			client:   i,
			fromK:    prevK,
			toK:      bestK,
			toVer:    mark.bestVer,
			portions: append([]alloc.Portion(nil), ws.best...),
		}
		switch {
		case prevK == alloc.Unassigned:
			// Re-admission: the live delta is the full placement gain.
			c.fromK = -1
			c.delta = bestGain
			c.minDelta = 0
			if !s.cfg.AdmissionControl {
				c.minDelta = math.Inf(-1)
			}
		case math.IsInf(prevGain, -1):
			// The current placement is saturated (no finite gain): any
			// feasible move out of it is taken, and taken first.
			c.delta = math.Inf(1)
			c.minDelta = math.Inf(-1)
		default:
			c.delta = bestGain - prevGain
			c.minDelta = 1e-9
		}
		if c.fromK >= 0 {
			c.fromVer = mark.curVer
		}
		res.cand = c
		res.hasCand = true
	case prevK != alloc.Unassigned && prevGain < outGain:
		// Eviction (admission control only): serving this client at its
		// current placement loses money.
		res.cand = reassignCand{
			client:  i,
			fromK:   prevK,
			toK:     -1,
			delta:   -prevGain,
			fromVer: mark.curVer,
		}
		res.hasCand = true
	}
	return res
}

// finiteOr0 clamps non-finite deltas (the saturated-placement sentinel
// is +Inf) so flight events stay JSON-encodable.
func finiteOr0(x float64) float64 {
	if math.IsInf(x, 0) || math.IsNaN(x) {
		return 0
	}
	return x
}

// candBefore orders the commit queue: larger expected delta first,
// ClientID ascending on ties. The total order is what keeps the commit
// sequence — and therefore the whole pass — independent of the scoring
// worker count.
func candBefore(x, y *reassignCand) bool {
	if x.delta != y.delta {
		return x.delta > y.delta
	}
	return x.client < y.client
}

// candPush/candPop implement a plain binary max-heap on a recycled slice.
func candPush(h []reassignCand, c reassignCand) []reassignCand {
	h = append(h, c)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !candBefore(&h[i], &h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	return h
}

func candPop(h []reassignCand) ([]reassignCand, reassignCand) {
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h[last] = reassignCand{} // release the portions slice
	h = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		next := i
		if l < len(h) && candBefore(&h[l], &h[next]) {
			next = l
		}
		if r < len(h) && candBefore(&h[r], &h[next]) {
			next = r
		}
		if next == i {
			break
		}
		h[i], h[next] = h[next], h[i]
		i = next
	}
	return h, top
}
