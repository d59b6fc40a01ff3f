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

// Sharded solve (Config.Shards > 1): the clusters are partitioned into
// contiguous shards that build and improve the solution independently on
// the fan-out pool, so one allocation arena can absorb 100k–1M clients
// without every phase scanning the whole cloud.
//
// Safety is inherited from the allocation's per-cluster ownership
// discipline: every mutation (Assign/Unassign, ledger settles, version
// bumps) is confined to the touched cluster, each client is owned by
// exactly one shard at any time (the shard of its current cluster, or of
// its statically routed cluster while unassigned), and shard-scoped
// transactions (BeginClusters) and version folds (ClusterVersionSumOf)
// never read another shard's ledgers or counters. Cross-shard moves only
// happen in the serial reconciliation pass between rounds, when no shard
// goroutine is running.
//
// Determinism: shard membership, per-shard client order (seed-split RNG
// per shard), per-shard commit order, and the serial reconciliation are
// all independent of the worker count, so the solve is bit-identical for
// W=1 and W=N — the same property the unsharded fan-outs guarantee.
type shardPlan struct {
	clusters [][]model.ClusterID // shard -> owned clusters
	byTopKey []int               // client -> statically routed shard
	owner    [][]model.ClientID  // shard -> currently owned clients (rebuilt per round)
	shardOf  []int               // cluster -> shard
}

// planShards partitions the clusters contiguously and routes the
// clients round-robin across the shards. Round-robin — not
// best-bound-first — because on an empty cloud the gain bound is
// dominated by the clusters' static costs, which are the same for every
// client: attractiveness-based routing would herd the whole population
// onto the shard owning the statically cheapest cluster, overloading it
// while the rest of the cloud idles. Uniform routing keeps the load
// balanced (the scale workloads draw clusters i.i.d.), and the
// reconciliation pass corrects the residual imbalance. The routing is
// static: it only depends on client IDs.
func (s *Solver) planShards(a *alloc.Allocation, numShards int) *shardPlan {
	numK := s.scen.Cloud.NumClusters()
	if numShards > numK {
		numShards = numK
	}
	p := &shardPlan{
		clusters: make([][]model.ClusterID, numShards),
		byTopKey: make([]int, s.scen.NumClients()),
		owner:    make([][]model.ClientID, numShards),
		shardOf:  make([]int, numK),
	}
	for sh := 0; sh < numShards; sh++ {
		lo, hi := sh*numK/numShards, (sh+1)*numK/numShards
		for k := lo; k < hi; k++ {
			p.clusters[sh] = append(p.clusters[sh], model.ClusterID(k))
			p.shardOf[k] = sh
		}
	}
	for i := range p.byTopKey {
		p.byTopKey[i] = i % numShards
	}
	return p
}

// rebuildOwners recomputes each shard's client set: the shard of the
// client's current cluster, or its static route while unassigned. Must
// run serially (reads every client's assignment).
func (p *shardPlan) rebuildOwners(a *alloc.Allocation) {
	for sh := range p.owner {
		p.owner[sh] = p.owner[sh][:0]
	}
	for i := range p.byTopKey {
		id := model.ClientID(i)
		sh := p.byTopKey[i]
		if k := a.ClusterOf(id); k != alloc.Unassigned {
			sh = p.shardOf[k]
		}
		p.owner[sh] = append(p.owner[sh], id)
	}
}

// solveSharded is the sharded twin of Solve. Per-shard spans are started
// with the shard index as the explicit child index (StartCtxAt), so the
// span tree — IDs included — is identical at any worker count.
func (s *Solver) solveSharded(ctx context.Context) (*alloc.Allocation, Stats, error) {
	start := time.Now()
	sp, ctx := s.tel.startCtx(ctx, "solver.solve_sharded")
	if s.tel != nil {
		s.tel.solves.Inc()
		sp.Attr("clients", s.scen.NumClients())
		sp.Attr("shards", s.cfg.Shards)
	}

	a := alloc.New(s.scen)
	if s.tel != nil {
		a.Instrument(s.tel.set)
	}
	plan := s.planShards(a, s.cfg.Shards)
	numShards := len(plan.clusters)
	workers := parallel.Bound(s.cfg.Workers, numShards)
	opts := parallel.Options{Workers: workers, Phase: "shard"}
	if s.tel != nil {
		opts.Tel = s.tel.set
	}

	// Phase 1: parallel greedy. Each shard places its routed clients on
	// its own clusters in a seed-split random order. One greedy start per
	// shard: the multi-start diversification buys little once the cloud
	// is sliced, and at shard scale one pass is the budget.
	tGreedy := time.Now()
	gsp, gctx := s.tel.startCtx(ctx, "solver.greedy")
	plan.rebuildOwners(a)
	gss := make([]*greedyState, numShards)
	gopts := opts
	gopts.Ctx = gctx
	parallel.For(gopts, numShards, func(w, sh int) {
		ssp, sctx := s.tel.startCtxAt(gctx, "solver.shard_greedy", sh)
		ssp.Attr("shard", sh)
		gs := s.newGreedyState(a, plan.clusters[sh])
		gs.setRef(telemetry.RefFromContext(sctx))
		gss[sh] = gs
		rng := parallel.Rand(s.cfg.Seed, uint64(sh))
		clients := plan.owner[sh]
		for _, idx := range rng.Perm(len(clients)) {
			// ErrCannotPlace is expected (the client may only fit on another
			// shard; reconciliation will pick it up).
			_ = s.placeBest(a, clients[idx], gs)
		}
		ssp.End()
	})
	for _, gs := range gss {
		gs.flushTelemetry(s.tel)
	}
	if s.tel != nil {
		s.tel.greedyDur.ObserveSince(tGreedy)
	}
	gsp.End()
	stats := Stats{InitialProfit: a.Profit()}
	stats.Timings.Greedy = time.Since(tGreedy)

	// Phase 2: improvement rounds. Each round runs the per-cluster
	// sweeps and a shard-scoped reassignment pass on every shard in
	// parallel, then a serial whole-cloud reassignment pass that
	// reconciles shard boundaries (the only place clients cross shards).
	prev := stats.InitialProfit
	for iter := 0; iter < s.cfg.MaxLocalSearchIters; iter++ {
		stats.LocalSearchIters = iter + 1
		rsp, rctx := s.tel.startCtx(ctx, "solver.shard_round")
		var t0 time.Time
		if s.tel != nil {
			t0 = time.Now()
			s.tel.rounds.Inc()
			rsp.Attr("round", iter+1)
		}
		members := s.clusterMembers(a)
		plan.rebuildOwners(a)
		acts := make([]int, numShards)
		deacts := make([]int, numShards)
		moves := make([]int, numShards)
		deltas := make([]sweepDeltas, numShards)
		reassignDelta := make([]float64, numShards)
		sweepNanos := make([]int64, numShards)
		reassignNanos := make([]int64, numShards)
		ropts := opts
		ropts.Ctx = rctx
		parallel.For(ropts, numShards, func(w, sh int) {
			ssp, sctx := s.tel.startCtxAt(rctx, "solver.shard_sweep", sh)
			ssp.Attr("shard", sh)
			tSweep := time.Now()
			for _, kid := range plan.clusters[sh] {
				ak, dk, dd := s.sweepCluster(a, kid, members[kid])
				acts[sh] += ak
				deacts[sh] += dk
				deltas[sh].add(dd)
			}
			sweepNanos[sh] = int64(time.Since(tSweep))
			if !s.cfg.DisableReassign {
				tr := time.Now()
				// Profit reads stay within the shard's own clusters, so they
				// are safe inside the shard goroutine.
				before := s.clustersProfit(a, plan.clusters[sh])
				moves[sh] = s.reassignScoped(sctx, a, plan.owner[sh], plan.clusters[sh])
				reassignDelta[sh] = s.clustersProfit(a, plan.clusters[sh]) - before
				reassignNanos[sh] = int64(time.Since(tr))
			}
			ssp.End()
		})
		for sh := 0; sh < numShards; sh++ {
			stats.Activations += acts[sh]
			stats.Deactivations += deacts[sh]
			stats.Reassignments += moves[sh]
			stats.Attribution.ShareAdjust += deltas[sh].share
			stats.Attribution.DispersionAdjust += deltas[sh].disp
			stats.Attribution.TurnOn += deltas[sh].turnOn
			stats.Attribution.TurnOff += deltas[sh].turnOff
			stats.Attribution.Reassign += reassignDelta[sh]
			stats.Timings.Sweep += time.Duration(sweepNanos[sh])
			stats.Timings.Reassign += time.Duration(reassignNanos[sh])
		}
		if !s.cfg.DisableReassign {
			// Serial boundary reconciliation: clients are scored against the
			// whole cloud, so profitable cross-shard moves happen here. The
			// flight recorder logs the (sampled) moves as reconcile_move.
			tr := time.Now()
			before := a.Profit()
			moved := s.reassignmentPass(rctx, a, true)
			stats.Reassignments += moved
			delta := a.Profit() - before
			stats.Attribution.Reconcile += delta
			stats.Timings.Reconcile += time.Since(tr)
			if s.tel != nil {
				s.tel.reassignDur.ObserveSince(tr)
				s.tel.reassignments.Add(int64(moved))
				s.tel.reassignDelta.Add(delta)
			}
		}
		p := a.Profit()
		if s.tel != nil {
			s.tel.roundDur.ObserveSince(t0)
			rsp.Attr("profit", p)
			rsp.Attr("delta", p-prev)
		}
		rsp.End()
		if p-prev <= s.cfg.Tolerance*(1+absf(prev)) {
			break
		}
		prev = p
	}

	stats.FinalProfit = a.Profit()
	stats.Attribution.Initial = stats.InitialProfit
	stats.Attribution.Final = stats.FinalProfit
	stats.Unplaced = s.scen.NumClients() - a.NumAssigned()
	stats.Elapsed = time.Since(start)
	if s.tel != nil {
		s.tel.unplacedClients.Set(float64(stats.Unplaced))
		sp.Attr("final_profit", stats.FinalProfit)
		sp.Attr("rounds", stats.LocalSearchIters)
	}
	sp.End()
	return a, stats, nil
}

// clustersProfit folds the given clusters' ledger profits (each read is
// O(entries touched since the last read) and confined to that cluster).
func (s *Solver) clustersProfit(a *alloc.Allocation, clusters []model.ClusterID) float64 {
	var p float64
	for _, k := range clusters {
		p += a.ClusterProfit(k)
	}
	return p
}

// reassignScoped is the shard-local reassignment pass: score the shard's
// clients against the shard's clusters only, then commit improving moves
// through commitCandidates scoped to those clusters. It runs inside a
// shard goroutine, so everything it reads or writes — exclusion views,
// candidate index, transactions, version counters — stays within the
// shard's clusters.
func (s *Solver) reassignScoped(ctx context.Context, a *alloc.Allocation, clients []model.ClientID, clusters []model.ClusterID) int {
	outGain := math.Inf(-1)
	if s.cfg.AdmissionControl {
		outGain = 0
	}
	var ix *alloc.Index
	if k := s.cfg.CandidateClusters; k > 0 && k < len(clusters) {
		ix = alloc.NewIndex(a)
		ix.RefreshClusters(clusters)
	}

	var ws reassignScratch
	var heap []reassignCand
	var ixEvaluated, ixPruned int64
	for _, i := range clients {
		r := s.scoreClient(a, i, outGain, &ws, ix, clusters)
		ixEvaluated += r.evaluated
		ixPruned += r.pruned
		if r.hasCand {
			heap = candPush(heap, r.cand)
		}
	}
	return s.commitCandidates(ctx, a, heap, outGain, &ws, ix, clusters, nil, false, ixEvaluated, ixPruned)
}
