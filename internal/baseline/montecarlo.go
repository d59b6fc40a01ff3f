package baseline

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/parallel"
	"repro/internal/telemetry"
)

// MCConfig tunes the Monte-Carlo envelope.
type MCConfig struct {
	// Draws is the number of random solutions to generate (the paper uses
	// at least 10,000 per scenario).
	Draws int
	// Seed drives the random assignments. Each draw derives its own RNG
	// stream by seed-splitting (internal/parallel), so the envelope is
	// identical for every worker count.
	Seed int64
	// MaxSearchPasses bounds the per-draw client-reassignment local
	// search ("repeats until no further reassignment is possible").
	MaxSearchPasses int
	// Workers bounds the draw fan-out: 0, the default, uses GOMAXPROCS;
	// 1 draws sequentially. The envelope — every field, including which
	// draw wins Best — does not depend on the worker count.
	Workers int
	// Telemetry, when non-nil, instruments the draw fan-out and the
	// solver.
	Telemetry *telemetry.Set
}

// DefaultMCConfig returns a medium-effort configuration; benchmarks raise
// Draws to the paper's numbers.
func DefaultMCConfig() MCConfig {
	return MCConfig{
		Draws:           200,
		Seed:            1,
		MaxSearchPasses: 10,
	}
}

// Envelope summarizes a Monte-Carlo run. "Initial" profits are measured
// right after the random assignment; "optimized" profits after the
// client-reassignment local search.
type Envelope struct {
	Draws          int
	BestInitial    float64
	WorstInitial   float64
	BestOptimized  float64
	WorstOptimized float64
	// Best is the best optimized allocation found.
	Best *alloc.Allocation
}

// RunMonteCarlo generates Draws random client→cluster assignments with
// proposed-solution resource allocation inside each cluster (the paper
// allocates resources in clusters "based on the proposed solution": the
// default solver here), optimizes each with the client-level
// reassignment search, and reports the best/worst envelope (paper
// Section VI, Figures 4 and 5).
//
// Draws fan out over a bounded worker pool; each worker has its own
// solver, so no two draws share its reassignment pass state, recycles
// one allocation arena across its draws (alloc.Reset) and keeps only its
// running best under (optimized profit desc, draw index asc). The
// per-draw profits are folded into the envelope serially in draw order
// afterwards, so the result, and every count the solvers publish, is the
// same for W=1 and W=N.
func RunMonteCarlo(scen *model.Scenario, cfg MCConfig) (Envelope, error) {
	if cfg.Draws <= 0 {
		return Envelope{}, fmt.Errorf("baseline: Draws = %d", cfg.Draws)
	}
	scfg := core.DefaultConfig()
	scfg.Telemetry = cfg.Telemetry
	n := cfg.Draws
	workers := parallel.Bound(cfg.Workers, n)
	solvers := make([]*core.Solver, workers)
	for w := range solvers {
		var err error
		if solvers[w], err = core.NewSolver(scen, scfg); err != nil {
			return Envelope{}, err
		}
	}

	type drawResult struct {
		initial, optimized float64
		err                error
	}
	type workerBest struct {
		a      *alloc.Allocation
		profit float64
		index  int
	}
	results := make([]drawResult, n)
	curs := make([]*alloc.Allocation, workers)
	bests := make([]workerBest, workers)
	parallel.For(parallel.Options{Workers: workers, Tel: cfg.Telemetry, Phase: "mc_draws"},
		n, func(w, d int) {
			a := curs[w]
			if a == nil {
				a = alloc.New(scen)
			} else {
				a.Reset()
			}
			solver := solvers[w]
			if err := randomAssign(solver, a, parallel.Rand(cfg.Seed, uint64(d))); err != nil {
				results[d].err = err
				curs[w] = a
				return
			}
			// First evaluation of a fresh draw settles every ledger entry
			// (O(clients+servers), unavoidable); the post-search evaluation
			// below then re-prices only the clients the search actually moved.
			p0 := a.Profit()
			reassignmentSearch(solver, a, cfg.MaxSearchPasses)
			p1 := a.Profit()
			results[d] = drawResult{initial: p0, optimized: p1}
			if b := &bests[w]; b.a == nil || p1 > b.profit || (p1 == b.profit && d < b.index) {
				curs[w] = b.a
				*b = workerBest{a: a, profit: p1, index: d}
			} else {
				curs[w] = a
			}
		})

	env := Envelope{
		Draws:          n,
		BestInitial:    math.Inf(-1),
		WorstInitial:   math.Inf(1),
		BestOptimized:  math.Inf(-1),
		WorstOptimized: math.Inf(1),
	}
	for d := range results {
		r := &results[d]
		if r.err != nil {
			return Envelope{}, r.err
		}
		env.BestInitial = math.Max(env.BestInitial, r.initial)
		env.WorstInitial = math.Min(env.WorstInitial, r.initial)
		env.BestOptimized = math.Max(env.BestOptimized, r.optimized)
		env.WorstOptimized = math.Min(env.WorstOptimized, r.optimized)
	}
	bestProfit, bestIndex := math.Inf(-1), n
	for w := range bests {
		b := &bests[w]
		if b.a == nil {
			continue
		}
		if env.Best == nil || b.profit > bestProfit || (b.profit == bestProfit && b.index < bestIndex) {
			env.Best, bestProfit, bestIndex = b.a, b.profit, b.index
		}
	}
	return env, nil
}

// RandomAssignment assigns every client to a uniformly random cluster
// (falling back to the remaining clusters in random order when the drawn
// one cannot host it) with the proposed cluster-level resource allocation.
func RandomAssignment(solver *core.Solver, rng *rand.Rand) (*alloc.Allocation, error) {
	a := alloc.New(solver.Scenario())
	if err := randomAssign(solver, a, rng); err != nil {
		return nil, err
	}
	return a, nil
}

// randomAssign fills an empty (fresh or Reset) allocation with one
// random draw.
func randomAssign(solver *core.Solver, a *alloc.Allocation, rng *rand.Rand) error {
	scen := solver.Scenario()
	numK := scen.Cloud.NumClusters()
	for _, ci := range rng.Perm(scen.NumClients()) {
		i := model.ClientID(ci)
		for _, k := range rng.Perm(numK) {
			_, portions, err := solver.AssignDistribute(a, i, model.ClusterID(k))
			if err != nil {
				if errors.Is(err, core.ErrCannotPlace) {
					continue
				}
				return err
			}
			if err := a.Assign(i, model.ClusterID(k), portions); err == nil {
				break
			}
		}
	}
	return nil
}

// reassignmentSearch is the client-level local search used on random
// solutions: each client in turn is removed and re-placed on its best
// cluster; passes repeat until no reassignment improves the profit or the
// pass budget is exhausted. It delegates to the solver's cloud-level
// ReassignmentPassCtx (the same move the proposed heuristic uses). Returns
// the number of improving moves.
func reassignmentSearch(solver *core.Solver, a *alloc.Allocation, maxPasses int) int {
	var moves int
	for pass := 0; pass < maxPasses; pass++ {
		m := solver.ReassignmentPassCtx(context.Background(), a)
		moves += m
		if m == 0 {
			break
		}
	}
	return moves
}
