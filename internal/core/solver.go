package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/alloc"
	"repro/internal/model"
	"repro/internal/parallel"
	"repro/internal/telemetry"
)

// Solver runs the Resource_Alloc heuristic on one scenario. A Solver is
// safe for concurrent use as long as each goroutine works on its own
// allocation: a solve keeps its own pass state, and the solver's only
// mutable fields are the two mutex-guarded ones below. It must not be
// copied.
type Solver struct {
	scen   *model.Scenario
	cfg    Config
	prices shadowPrices
	// all and clients list every cluster and every client in ID order:
	// the scope and the client list of whole-cloud placement and
	// reassignment (a shard passes its own). Never mutated.
	all     []model.ClusterID
	clients []model.ClientID

	// distFree is the pool every Assign_Distribute scratch comes from
	// (assign.go: borrowDist), serving each task that runs the kernel.
	distMu   sync.Mutex
	distFree []*distScratch
	// pass is the exported pass slot (exportedPass): the skip marks that
	// ReassignmentPassCtx and ImproveLocalCtx carry from one call to the
	// next on the same allocation. Solves keep their own pass state.
	passMu sync.Mutex
	pass   *reassignState
}

// Stats reports what the solver did. It is the solver's only record:
// the solver_* metrics are published from it (telemetry.go).
type Stats struct {
	InitialProfit    float64
	FinalProfit      float64
	LocalSearchIters int
	Activations      int
	Deactivations    int
	Reassignments    int
	Unplaced         int
	Elapsed          time.Duration
	// Moves tried and accepted by the two adjust phases: one share move
	// per server swept, one dispersion move per member client.
	ShareMoves, ShareAccepts           int
	DispersionMoves, DispersionAccepts int
	// Clients the reassignment passes scored, skipped under the
	// clean-cluster rule and rescored after an earlier commit dirtied
	// their clusters; scored candidates the allocation then rejected
	// (CommitFailures) and rollbacks that failed, leaving the client
	// unserved (RestoreFailures).
	ReassignScored, ReassignSkipped, ReassignRescores int
	CommitFailures, RestoreFailures                   int
	// Candidate clusters priced exactly and skipped by the candidate
	// index, in greedy placement and reassignment scoring.
	IndexEvaluated, IndexPruned int
	// RoundDurations is each local-search round's wall time.
	RoundDurations []time.Duration
	// Attribution splits the profit between the initial solution and the
	// local-search phases (attribution.go). Always populated — the deltas
	// come from the allocation's O(touched) per-cluster ledger reads, so
	// no telemetry set is needed. ImproveLocalCtx fills the phase deltas;
	// the solves additionally set Initial and Final.
	Attribution Attribution
	// Timings is the per-phase wall-clock breakdown (attribution.go).
	Timings PhaseTimings
}

// NewSolver validates the inputs and calibrates the capacity shadow
// prices for the scenario.
func NewSolver(scen *model.Scenario, cfg Config) (*Solver, error) {
	if scen == nil {
		return nil, errors.New("core: nil scenario")
	}
	if err := scen.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	publish(cfg.Telemetry, &Stats{}) // register the solver families
	s := &Solver{
		scen:    scen,
		cfg:     cfg,
		prices:  calibratePrices(scen, cfg.ShadowPriceScale),
		all:     make([]model.ClusterID, scen.Cloud.NumClusters()),
		clients: make([]model.ClientID, scen.NumClients()),
	}
	for k := range s.all {
		s.all[k] = model.ClusterID(k)
	}
	for i := range s.clients {
		s.clients[i] = model.ClientID(i)
	}
	return s, nil
}

// Scenario returns the scenario the solver was built for.
func (s *Solver) Scenario() *model.Scenario { return s.scen }

// Solve runs the full heuristic: multi-start greedy initial solutions,
// then local search on the best one (paper Figure 3).
//
// The greedy starts fan out over a bounded worker pool (Config.Workers).
// Each start derives its own RNG by seed-splitting from Config.Seed —
// start i sees the same random client order at any worker count — and
// the winner is reduced under the total order (profit descending, start
// index ascending), so the solve is bit-identical for W=1 and W=N. Each
// worker recycles one allocation arena across its starts (alloc.Reset),
// keeping only its running best.
func (s *Solver) Solve() (*alloc.Allocation, Stats, error) {
	return s.SolveCtx(context.Background())
}

// SolveCtx is Solve under a caller-provided context: every span the
// solve records — greedy, rounds, fan-outs, shards — parents into the
// span carried by ctx (a fresh trace tree when ctx carries none), and
// flight-recorder events are stamped with that trace context.
func (s *Solver) SolveCtx(ctx context.Context) (*alloc.Allocation, Stats, error) {
	if s.cfg.Shards > 1 && s.scen.Cloud.NumClusters() > 1 {
		// Sharded mode (shard.go): shards build and sweep independently on
		// the fan-out pool; the reassignment pass reconciles them each round.
		plan := s.planShards(s.cfg.Shards)
		return s.run(ctx, "solver.solve_sharded", plan, func(ctx context.Context, _ *telemetry.Span, st *Stats) (*alloc.Allocation, error) {
			return s.shardedGreedy(ctx, plan, st)
		})
	}
	return s.run(ctx, "solver.solve", nil, s.multiStart)
}

// run is the one Resource_Alloc pipeline (paper Figure 3) behind every
// public solve: build an initial solution, alternate the per-cluster
// phases and the cloud-level reassignment until the profit is steady,
// report. Cold, warm and sharded solves differ only in the builder they
// hand in (multiStart, replay, shardedGreedy — each runs under the
// solver.greedy span it is given) and in the partition the round loop
// sweeps (plan's shards, or nil for the whole cloud). The builder adds
// what it counts to the Stats it is handed; the finished Stats is
// published to Config.Telemetry.
func (s *Solver) run(ctx context.Context, spanName string, plan *shardPlan,
	initial func(context.Context, *telemetry.Span, *Stats) (*alloc.Allocation, error)) (*alloc.Allocation, Stats, error) {
	start := time.Now()
	tel := s.cfg.Telemetry
	sp, ctx := tel.StartCtx(ctx, spanName)
	defer sp.End()
	if tel != nil {
		sp.Attr("clients", s.scen.NumClients())
		sp.Attr("clusters", s.scen.Cloud.NumClusters())
		if plan != nil {
			sp.Attr("shards", s.cfg.Shards)
		}
	}

	var stats Stats
	gsp, gctx := tel.StartCtx(ctx, "solver.greedy")
	a, err := initial(gctx, &gsp, &stats)
	if err != nil {
		gsp.End()
		return nil, Stats{}, err
	}
	stats.InitialProfit = a.Profit()
	stats.Timings.Greedy = time.Since(start)
	if tel != nil {
		gsp.Attr("initial_profit", stats.InitialProfit)
	}
	gsp.End()

	s.improve(ctx, a, &stats, plan, &reassignState{a: a})
	stats.FinalProfit = a.Profit()
	stats.Attribution.Initial = stats.InitialProfit
	stats.Attribution.Final = stats.FinalProfit
	stats.Unplaced = s.scen.NumClients() - a.NumAssigned()
	stats.Elapsed = time.Since(start)
	publish(tel, &stats)
	if tel != nil {
		sp.Attr("final_profit", stats.FinalProfit)
		sp.Attr("rounds", stats.LocalSearchIters)
	}
	return a, stats, nil
}

// fanOpts configures a fan-out on the solver's bounded worker pool
// (Config.Workers), recorded as phase when telemetry is attached.
func (s *Solver) fanOpts(ctx context.Context, phase string) parallel.Options {
	return parallel.Options{Workers: s.cfg.Workers, Phase: phase, Ctx: ctx, Tel: s.cfg.Telemetry}
}

// multiStart is the cold solve's initial-solution builder: it runs the
// NumInitSolutions greedy starts on the fan-out engine and returns the
// winner under (profit desc, start index asc). Each worker tallies its
// starts' index counts apart; they fold into st once the fan-out ends.
func (s *Solver) multiStart(ctx context.Context, gsp *telemetry.Span, st *Stats) (*alloc.Allocation, error) {
	n := s.cfg.NumInitSolutions
	gsp.Attr("starts", n)
	workers := parallel.Bound(s.cfg.Workers, n)
	// Per-worker state: cur is the recycled arena for the next start,
	// best the worker's winner so far under the global total order.
	type workerBest struct {
		a      *alloc.Allocation
		profit float64
		index  int
	}
	curs := make([]*alloc.Allocation, workers)
	bests := make([]workerBest, workers)
	tallies := make([]Stats, workers)
	ref := telemetry.RefFromContext(ctx)
	err := parallel.ForErr(s.fanOpts(ctx, "multistart"), n, func(w, iter int) error {
		a := curs[w]
		if a == nil {
			a = alloc.New(s.scen)
			a.Instrument(s.cfg.Telemetry)
		} else {
			a.Reset()
		}
		rng := parallel.Rand(s.cfg.Seed, uint64(iter))
		if _, err := s.place(a, shuffled(rng, s.clients), s.all, ref, &tallies[w]); err != nil {
			curs[w] = a
			return err
		}
		p := a.Profit()
		if b := &bests[w]; b.a == nil || p > b.profit || (p == b.profit && iter < b.index) {
			curs[w] = b.a
			*b = workerBest{a: a, profit: p, index: iter}
		} else {
			curs[w] = a
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for w := range tallies {
		st.add(&tallies[w])
	}
	var best *alloc.Allocation
	var bestProfit float64
	bestIndex := n
	for w := range bests {
		b := &bests[w]
		if b.a == nil {
			continue
		}
		if best == nil || b.profit > bestProfit || (b.profit == bestProfit && b.index < bestIndex) {
			best, bestProfit, bestIndex = b.a, b.profit, b.index
		}
	}
	if best == nil {
		return nil, errors.New("core: no initial solution produced")
	}
	return best, nil
}

// InitialSolution builds one greedy solution: clients in random order,
// each placed on the cluster whose Assign_Distribute promises the highest
// approximate profit. Clients that fit nowhere stay unassigned (the paper
// assumes a feasible instance; we degrade gracefully). What it counts is
// published to Config.Telemetry.
func (s *Solver) InitialSolution(rng *rand.Rand) (*alloc.Allocation, error) {
	a := alloc.New(s.scen)
	a.Instrument(s.cfg.Telemetry)
	var st Stats
	if _, err := s.place(a, shuffled(rng, s.clients), s.all, telemetry.TraceRef{}, &st); err != nil {
		return nil, err
	}
	publish(s.cfg.Telemetry, &st)
	return a, nil
}

// ImproveLocalCtx runs the local-search phases until the profit is steady
// or the iteration budget is exhausted. It mutates a in place and adds
// what it did to stats (which may be nil): counts, rounds, per-phase
// profit deltas and timings (Initial/Final stay as they are; the solves
// set them). Round and reassignment spans parent into the span carried by
// ctx, and what this call did is published to Config.Telemetry.
func (s *Solver) ImproveLocalCtx(ctx context.Context, a *alloc.Allocation, stats *Stats) {
	var st Stats
	s.exportedPass(a, func(rs *reassignState) { s.improve(ctx, a, &st, nil, rs) })
	publish(s.cfg.Telemetry, &st)
	if stats != nil {
		stats.add(&st)
	}
}

// steadyTolerance is the relative profit gain of one round below which
// the local search counts as steady and stops.
const steadyTolerance = 1e-4

// improve is the round loop of every solve: sweep the partition (plan's
// shards, or the whole cloud when plan is nil), then run the whole-cloud
// reassignment pass on cloud's state — a central-manager move, the only
// place clients cross clusters and shards. With a plan that pass is the
// serial boundary reconciliation, booked to Reconcile (and the reconcile
// phase metrics) and logged as reconcile_move.
func (s *Solver) improve(ctx context.Context, a *alloc.Allocation, stats *Stats, plan *shardPlan, cloud *reassignState) {
	tel := s.cfg.Telemetry
	parts := s.sweepPartition(plan)
	prev := a.Profit()
	for iter := 0; iter < s.cfg.MaxLocalSearchIters; iter++ {
		stats.LocalSearchIters++
		t0 := time.Now()
		rsp, rctx := tel.StartCtx(ctx, "solver.round")
		if tel != nil {
			rsp.Attr("round", iter+1)
		}
		s.sweepParts(rctx, a, stats, plan, parts)
		if !s.cfg.DisableReassign {
			tr := time.Now()
			before := a.Profit()
			stats.Reassignments += s.reassignmentPass(rctx, a, cloud, s.clients, s.all, s.cfg.Workers, plan != nil, stats)
			delta := a.Profit() - before
			if plan != nil {
				stats.Attribution.Reconcile += delta
				stats.Timings.Reconcile += time.Since(tr)
			} else {
				stats.Attribution.Reassign += delta
				stats.Timings.Reassign += time.Since(tr)
			}
		}
		p := a.Profit()
		stats.RoundDurations = append(stats.RoundDurations, time.Since(t0))
		if tel != nil {
			rsp.Attr("profit", p)
			rsp.Attr("delta", p-prev)
		}
		rsp.End()
		if p-prev <= steadyTolerance*(1+absf(prev)) {
			break
		}
		prev = p
	}
}

// sweepPartition chooses the parts one sweep runs concurrently: the
// plan's shards; else one part per cluster when Config.Parallel; else a
// single part holding every cluster.
func (s *Solver) sweepPartition(plan *shardPlan) [][]model.ClusterID {
	if plan != nil {
		return plan.clusters
	}
	if !s.cfg.Parallel {
		return [][]model.ClusterID{s.all}
	}
	parts := make([][]model.ClusterID, len(s.all))
	for k := range parts {
		parts[k] = s.all[k : k+1]
	}
	return parts
}

// sweepParts runs one sweep of the per-cluster phases, one
// parallel.For task per part: shards on the bounded Config.Workers pool,
// Config.Parallel's per-cluster parts on a goroutine each, the single
// default part inline. Every mutation a phase makes is confined to one
// cluster (constraint (6) pins a client to one) and membership is
// snapshotted up front, so parts touch disjoint state. A shard also runs
// the reassignment pass over its own clients and clusters (one scoring
// worker, no skip marks), under a span indexed by shard (StartCtxAt) so
// the span tree is identical at any worker count, on the shard's own pass
// state, kept in the plan for the whole solve. Each part counts into its
// own Stats; they fold serially in part order.
func (s *Solver) sweepParts(ctx context.Context, a *alloc.Allocation, stats *Stats, plan *shardPlan, parts [][]model.ClusterID) {
	members := s.clusterMembers(a)
	opts := parallel.Options{Workers: len(parts)}
	if plan != nil {
		plan.rebuildOwners(a)
		opts = s.fanOpts(ctx, "shard")
	}
	results := make([]Stats, len(parts))
	parallel.For(opts, len(parts), func(_, p int) {
		r := &results[p]
		var psp telemetry.Span
		pctx := ctx
		if plan != nil {
			psp, pctx = s.cfg.Telemetry.StartCtxAt(ctx, "solver.shard_sweep", p)
			psp.Attr("shard", p)
		}
		scr := s.borrowDist()
		defer s.returnDist(scr)
		tSweep := time.Now()
		for _, kid := range parts[p] {
			s.sweepCluster(a, kid, members[kid], scr, r)
		}
		r.Timings.Sweep = time.Since(tSweep)
		if plan != nil && !s.cfg.DisableReassign {
			tr := time.Now()
			// Profit reads stay within the shard's own clusters, so they
			// are safe inside the shard goroutine.
			before := s.clustersProfit(a, parts[p])
			r.Reassignments = s.reassignmentPass(pctx, a, &plan.passes[p], plan.owner[p], parts[p], 1, false, r)
			r.Attribution.Reassign = s.clustersProfit(a, parts[p]) - before
			r.Timings.Reassign = time.Since(tr)
		}
		psp.End()
	})
	for p := range results {
		stats.add(&results[p])
	}
}

// SweepCluster runs the four per-cluster local-search phases once on
// cluster k — the sweep each solve round runs on every cluster — and
// returns the number of servers it activated and deactivated.
func (s *Solver) SweepCluster(a *alloc.Allocation, k model.ClusterID) (activations, deactivations int) {
	scr := s.borrowDist()
	defer s.returnDist(scr)
	var st Stats
	s.sweepCluster(a, k, s.membersOf(a, k), scr, &st)
	return st.Activations, st.Deactivations
}

// sweepCluster runs the four per-cluster local-search phases on one
// cluster and adds to st each phase's moves, time and profit delta, read
// through the allocation's O(touched) per-cluster ledger. Every mutation
// (and every profit read) is confined to the cluster, so callers may run
// sweeps on distinct clusters concurrently (sweepParts), each with its
// own scr (TurnOFF's Assign_Distribute scratch) and st.
func (s *Solver) sweepCluster(a *alloc.Allocation, kid model.ClusterID, members []model.ClientID, scr *distScratch, st *Stats) {
	t, before := time.Now(), a.ClusterProfit(kid)
	// lap books the time and profit change since the previous lap to one
	// phase.
	lap := func(dur *time.Duration, delta *float64) {
		now, p := time.Now(), a.ClusterProfit(kid)
		*dur += now.Sub(t)
		*delta += p - before
		t, before = now, p
	}
	servers := s.scen.Cloud.ClusterServers(kid)
	for _, j := range servers {
		if s.AdjustResourceShares(a, j) {
			st.ShareAccepts++
		}
	}
	st.ShareMoves += len(servers)
	lap(&st.Timings.ShareAdjust, &st.Attribution.ShareAdjust)

	for _, id := range members {
		if s.AdjustDispersionRates(a, id) {
			st.DispersionAccepts++
		}
	}
	st.DispersionMoves += len(members)
	lap(&st.Timings.DispersionAdjust, &st.Attribution.DispersionAdjust)

	st.Activations += s.turnOnServers(a, kid, members)
	lap(&st.Timings.TurnOn, &st.Attribution.TurnOn)

	st.Deactivations += s.turnOffServers(a, kid, scr)
	lap(&st.Timings.TurnOff, &st.Attribution.TurnOff)
}

// clusterMembers snapshots the assigned clients of every cluster.
func (s *Solver) clusterMembers(a *alloc.Allocation) [][]model.ClientID {
	members := make([][]model.ClientID, s.scen.Cloud.NumClusters())
	for i := range s.scen.Clients {
		id := model.ClientID(i)
		if k := a.ClusterOf(id); k != alloc.Unassigned {
			members[k] = append(members[k], id)
		}
	}
	return members
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
