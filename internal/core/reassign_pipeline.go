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
	// could host the client it is the ClusterVersionSum instead — any
	// change anywhere may have opened capacity, so everything counts.
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

// reassignScratch is one scoring worker's reusable working memory.
type reassignScratch struct {
	dist  distScratch
	gain  alloc.GainScratch
	best  []alloc.Portion
	cands []alloc.Candidate
}

// reassignState carries the cross-pass skip marks plus recycled pass
// buffers. It is bound to one allocation; a pass over a different
// allocation starts fresh.
type reassignState struct {
	a       *alloc.Allocation
	marks   []clientMark
	toScore []model.ClientID
	results []scoreResult
	heap    []reassignCand
	scratch reassignScratch // serial-path and commit-loop scratch
	// ix is the candidate index when Config.CandidateClusters enables
	// top-k pruning; refreshed serially before the parallel scoring stage
	// and before each commit-loop rescore.
	ix *alloc.Index
}

// takeReassignState checks the solver's cached state out (concurrent
// passes on different allocations each get their own).
func (s *Solver) takeReassignState(a *alloc.Allocation, n int) *reassignState {
	s.reassignMu.Lock()
	st := s.reassignSt
	s.reassignSt = nil
	s.reassignMu.Unlock()
	if st == nil || st.a != a || len(st.marks) != n {
		st = &reassignState{a: a, marks: make([]clientMark, n)}
	}
	return st
}

func (s *Solver) storeReassignState(st *reassignState) {
	s.reassignMu.Lock()
	s.reassignSt = st
	s.reassignMu.Unlock()
}

// reassignmentPass is the pass behind ReassignmentPassCtx; what it counts
// is added to st. reconcile marks the sharded solve's serial cross-shard
// reconciliation: successful moves are then logged (sampled) to the
// flight recorder as reconcile_move events.
func (s *Solver) reassignmentPass(ctx context.Context, a *alloc.Allocation, reconcile bool, st *Stats) int {
	n := s.scen.NumClients()
	rs := s.takeReassignState(a, n)
	defer s.storeReassignState(rs)

	// Candidate index: built once per allocation, refreshed lazily here
	// (serial — the scoring workers only read it).
	var ix *alloc.Index
	if k := s.cfg.CandidateClusters; k > 0 && k < s.scen.Cloud.NumClusters() {
		if rs.ix == nil || rs.ix.Allocation() != a {
			rs.ix = alloc.NewIndex(a)
		}
		rs.ix.Refresh()
		ix = rs.ix
	}

	outGain := math.Inf(-1)
	if s.cfg.AdmissionControl {
		outGain = 0
	}

	// Stage 0: the cross-pass skip rule — clients whose own and best
	// candidate clusters are untouched since their last scoring keep
	// their decision.
	sumVer := a.ClusterVersionSum()
	toScore := rs.toScore[:0]
	for ci := 0; ci < n; ci++ {
		if s.scen.Clients[ci].PredictedRate == 0 {
			continue // absent client: never scored, never re-admitted
		}
		if rs.marks[ci].stale(a, model.ClientID(ci), sumVer) {
			toScore = append(toScore, model.ClientID(ci))
		}
	}
	rs.toScore = toScore

	// Stage 1: score all stale clients against the frozen allocation.
	t0 := time.Now()
	if cap(rs.results) < len(toScore) {
		rs.results = make([]scoreResult, len(toScore))
	}
	results := rs.results[:len(toScore)]
	// Worker 0 borrows the pass's cached scratch; the others get their own.
	workers := parallel.Bound(s.cfg.Workers, len(toScore))
	extra := make([]reassignScratch, workers-1)
	parallel.For(parallel.Options{Workers: workers}, len(toScore), func(w, idx int) {
		ws := &rs.scratch
		if w > 0 {
			ws = &extra[w-1]
		}
		results[idx] = s.scoreClient(a, toScore[idx], outGain, ws, ix, nil)
	})

	// Fold the results serially in client order: deterministic marks and
	// a deterministic initial heap regardless of worker interleaving.
	heap := rs.heap[:0]
	for idx, i := range toScore {
		r := &results[idx]
		rs.marks[i] = r.mark
		st.IndexEvaluated += r.evaluated
		st.IndexPruned += r.pruned
		if r.hasCand {
			heap = candPush(heap, r.cand)
		}
	}
	st.ReassignScored += len(toScore)
	st.ReassignSkipped += n - len(toScore)
	st.Timings.ReassignScore += time.Since(t0)

	// Stage 2: serial commit loop in descending-delta order.
	moves := s.commitCandidates(ctx, a, heap, outGain, &rs.scratch, ix, nil, rs.marks, reconcile, st)
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
// A nil scope is the whole-cloud pass: transactions and index refreshes
// span the cloud, and marks (the cross-pass skip marks) follow every
// rescore and commit. A non-nil scope is one shard's clusters:
// transactions, index refreshes and rescoring stay inside it, so
// concurrent shards never read or settle each other's ledgers; marks is
// nil there.
func (s *Solver) commitCandidates(ctx context.Context, a *alloc.Allocation, heap []reassignCand,
	outGain float64, ws *reassignScratch, ix *alloc.Index, scope []model.ClusterID,
	marks []clientMark, reconcile bool, st *Stats) int {
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
			if ix != nil && scope == nil {
				ix.Refresh() // lazy: only the committed-to clusters recompute
			} else if ix != nil {
				ix.RefreshClusters(scope)
			}
			r := s.scoreClient(a, c.client, outGain, ws, ix, scope)
			if marks != nil {
				marks[c.client] = r.mark
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

		// A scoped transaction covers exactly the clusters the move
		// touches, so no other shard's ledger is read or settled.
		var txn *alloc.Txn
		switch {
		case scope == nil:
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
			if marks != nil {
				// The commit changed the clusters this client's own decision
				// depended on; make sure the next pass rescores it.
				marks[c.client] = clientMark{}
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
// With a nil ix every cluster in scope is evaluated exactly (the seed
// behaviour). With an index, the client's own cluster is always evaluated
// exactly (the index bound is not sound for it) and the remaining
// clusters come from TopK in bound-descending order, stopping once no
// bound can clear the acceptance threshold max(bestGain, prevGain+1e-9,
// outGain) — every pruned cluster provably cannot change the action.
// subset restricts the scope (nil = whole cloud); the sharded solve
// passes its own clusters so no cross-shard state is read.
func (s *Solver) scoreClient(a *alloc.Allocation, i model.ClientID, outGain float64,
	ws *reassignScratch, ix *alloc.Index, subset []model.ClusterID) scoreResult {
	scope := s.scen.Cloud.NumClusters()
	if subset != nil {
		scope = len(subset)
	}
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
		_, portions, err := s.assignDistribute(&view, i, k, noServer, &ws.dist)
		if err != nil {
			return
		}
		if g, ok := view.PlacementGain(k, portions, &ws.gain); ok && g > bestGain {
			bestGain = g
			bestK = int(k)
			ws.best = append(ws.best[:0], portions...)
		}
	}
	switch {
	case ix == nil && subset == nil:
		for k := 0; k < scope; k++ {
			evalCluster(model.ClusterID(k))
		}
	case ix == nil:
		for _, k := range subset {
			evalCluster(k)
		}
	default:
		if prevK != alloc.Unassigned {
			evalCluster(model.ClusterID(prevK))
		}
		ws.cands = ix.TopK(i, s.cfg.CandidateClusters, subset, ws.cands)
		for _, c := range ws.cands {
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
	switch {
	case bestK >= 0:
		mark.bestVer = a.ClusterVersion(model.ClusterID(bestK))
	case subset != nil:
		mark.bestVer = a.ClusterVersionSumOf(subset)
	default:
		mark.bestVer = a.ClusterVersionSum()
	}
	res := scoreResult{mark: mark, evaluated: evaluated, pruned: scope - evaluated}

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
