package core

import (
	"context"

	"repro/internal/alloc"
	"repro/internal/model"
	"repro/internal/parallel"
	"repro/internal/telemetry"
)

// Sharded solve (Config.Shards > 1): the clusters are partitioned into
// contiguous shards that build and improve the solution independently on
// the fan-out pool, so one allocation arena can absorb 100k–1M clients
// without every phase scanning the whole cloud: the common pipeline
// (Solver.run) with shardedGreedy as the initial-solution builder and the
// plan's shards as the partition the round loop sweeps.
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
	// passes is each shard's reassignment pass state (no skip marks),
	// kept for the whole solve so its index and buffers are built once.
	passes []reassignState
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
func (s *Solver) planShards(numShards int) *shardPlan {
	numK := s.scen.Cloud.NumClusters()
	if numShards > numK {
		numShards = numK
	}
	p := &shardPlan{
		clusters: make([][]model.ClusterID, numShards),
		byTopKey: make([]int, s.scen.NumClients()),
		owner:    make([][]model.ClientID, numShards),
		shardOf:  make([]int, numK),
		passes:   make([]reassignState, numShards),
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

// shardedGreedy is the sharded solve's initial-solution builder: each
// shard places its routed clients on its own clusters in a seed-split
// random order, on the fan-out pool. One greedy start per shard: the
// multi-start diversification buys little once the cloud is sliced, and
// at shard scale one pass is the budget. A client that fits only on
// another shard stays unplaced until the reconciliation pass picks it
// up. Per-shard spans are indexed by shard (StartCtxAt): the same span
// tree at any worker count. Each shard counts into its own Stats; they
// fold into st in shard order.
func (s *Solver) shardedGreedy(ctx context.Context, plan *shardPlan, st *Stats) (*alloc.Allocation, error) {
	a := alloc.New(s.scen)
	a.Instrument(s.cfg.Telemetry)
	plan.rebuildOwners(a)
	tallies := make([]Stats, len(plan.clusters))
	err := parallel.ForErr(s.fanOpts(ctx, "shard"), len(plan.clusters), func(_, sh int) error {
		ssp, sctx := s.cfg.Telemetry.StartCtxAt(ctx, "solver.shard_greedy", sh)
		defer ssp.End()
		ssp.Attr("shard", sh)
		clients := shuffled(parallel.Rand(s.cfg.Seed, uint64(sh)), plan.owner[sh])
		_, err := s.place(a, clients, plan.clusters[sh], telemetry.RefFromContext(sctx), &tallies[sh])
		return err
	})
	if err != nil {
		return nil, err
	}
	for sh := range tallies {
		st.add(&tallies[sh])
	}
	return a, nil
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
