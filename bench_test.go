package cloudalloc

// Benchmark harness: one benchmark per paper artifact (see DESIGN.md §4).
//
//	BenchmarkFig4NormalizedProfit — Figure 4 series (proposed / modified
//	  PS / best-found, normalized). Normalized profits are attached as
//	  custom metrics (proposed/best, ps/best).
//	BenchmarkFig5WorstCase — Figure 5 worst-case envelope metrics.
//	BenchmarkComplexityScaling — Section VI decision-time scaling:
//	  sequential vs cluster-parallel solver across client counts.
//	BenchmarkDistributedSpeedup — manager + per-cluster agents vs the
//	  sequential solver.
//	BenchmarkSimValidation — analytic model vs discrete-event simulation
//	  (mean relative response-time error as a metric).
//	BenchmarkAblations — profit of each solver variant relative to full.
//
// Absolute numbers are hardware-dependent; the paper-shape assertions
// live in the test suite and EXPERIMENTS.md records a full run.

import (
	"fmt"
	"testing"

	"repro/internal/alloc"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/workload"
)

// benchScenario builds a deterministic paper-shaped scenario.
func benchScenario(b *testing.B, n int, seed int64) *model.Scenario {
	b.Helper()
	cfg := workload.DefaultConfig()
	cfg.NumClients = n
	cfg.Seed = seed
	scen, err := workload.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return scen
}

// BenchmarkFig4NormalizedProfit regenerates the Figure 4 comparison on a
// reduced sweep per iteration and reports the normalized series as
// metrics. Run cmd/experiments -run fig4 for the full paper-scale sweep.
func BenchmarkFig4NormalizedProfit(b *testing.B) {
	for _, n := range []int{20, 50, 100, 200} {
		b.Run(fmt.Sprintf("clients=%d", n), func(b *testing.B) {
			cfg := experiment.DefaultSweepConfig()
			cfg.ClientCounts = []int{n}
			cfg.ScenariosPerCount = 3
			cfg.ScenariosAtMaxCount = 3
			cfg.MCDraws = 30
			cfg.MCPasses = 3
			var last experiment.Fig4Row
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				points, err := experiment.RunSweep(cfg)
				if err != nil {
					b.Fatal(err)
				}
				last = experiment.Fig4Rows(points)[0]
			}
			b.ReportMetric(last.Proposed, "proposed/best")
			b.ReportMetric(last.ModifiedPS, "ps/best")
			b.ReportMetric(last.BestFound, "mc/best")
		})
	}
}

// BenchmarkFig5WorstCase regenerates the Figure 5 worst-case envelope on
// a reduced sweep per iteration.
func BenchmarkFig5WorstCase(b *testing.B) {
	for _, n := range []int{20, 100} {
		b.Run(fmt.Sprintf("clients=%d", n), func(b *testing.B) {
			cfg := experiment.DefaultSweepConfig()
			cfg.ClientCounts = []int{n}
			cfg.ScenariosPerCount = 3
			cfg.ScenariosAtMaxCount = 3
			cfg.MCDraws = 30
			cfg.MCPasses = 3
			var last experiment.Fig5Row
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				points, err := experiment.RunSweep(cfg)
				if err != nil {
					b.Fatal(err)
				}
				last = experiment.Fig5Rows(points)[0]
			}
			b.ReportMetric(last.WorstInitialBefore, "worstInit/best")
			b.ReportMetric(last.WorstInitialAfter, "worstLS/best")
			b.ReportMetric(last.WorstProposed, "worstProposed/best")
		})
	}
}

// BenchmarkComplexityScaling measures one full solve per iteration at
// each client count, sequential and cluster-parallel (the paper's
// distributed speedup claim).
func BenchmarkComplexityScaling(b *testing.B) {
	for _, n := range []int{25, 50, 100, 200} {
		for _, parallel := range []bool{false, true} {
			name := fmt.Sprintf("clients=%d/parallel=%v", n, parallel)
			b.Run(name, func(b *testing.B) {
				scen := benchScenario(b, n, int64(n))
				cfg := core.DefaultConfig()
				cfg.Parallel = parallel
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					solver, err := core.NewSolver(scen, cfg)
					if err != nil {
						b.Fatal(err)
					}
					if _, _, err := solver.Solve(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkDistributedSpeedup runs the manager-with-agents decomposition.
func BenchmarkDistributedSpeedup(b *testing.B) {
	for _, n := range []int{50, 100} {
		b.Run(fmt.Sprintf("clients=%d", n), func(b *testing.B) {
			scen := benchScenario(b, n, int64(n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				agents := make([]Agent, scen.Cloud.NumClusters())
				for k := range agents {
					ag, err := NewLocalAgent(scen, ClusterID(k))
					if err != nil {
						b.Fatal(err)
					}
					agents[k] = ag
				}
				mgr, err := NewManager(scen, agents, DefaultManagerConfig())
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := mgr.Solve(); err != nil {
					b.Fatal(err)
				}
				mgr.Close()
			}
		})
	}
}

// BenchmarkSimValidation solves and simulates one scenario per iteration
// and reports the model error as metrics.
func BenchmarkSimValidation(b *testing.B) {
	cfg := experiment.DefaultValidationConfig()
	cfg.Clients = 30
	cfg.Sim.Horizon = 5000
	var last experiment.ValidationResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := experiment.RunValidation(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = v
	}
	b.ReportMetric(last.MeanAbsRelRespErr, "respRelErr")
	b.ReportMetric(last.ProfitRelErr, "profitRelErr")
}

// BenchmarkAblations evaluates the solver variants and reports the
// relative profit of the fully-disabled local search.
func BenchmarkAblations(b *testing.B) {
	cfg := experiment.DefaultAblationConfig()
	cfg.Clients = 40
	cfg.Scenarios = 2
	var rows []experiment.AblationRow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		rows, _, err = experiment.RunAblation(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Variant == "no-local-search" {
			b.ReportMetric(r.Relative, "noLS/full")
		}
	}
}

// --- micro-benchmarks of the building blocks ---

// paperAllocation builds a populated allocation on the paper-sized
// instance (250 clients, 5 clusters × 16 servers = 80 servers) by
// round-robining clients through Assign_Distribute.
func paperAllocation(b *testing.B) *alloc.Allocation {
	b.Helper()
	cfg := workload.DefaultConfig()
	cfg.NumClients = 250
	cfg.MinServersPerCluster = 16
	cfg.MaxServersPerCluster = 16
	cfg.Seed = 42
	scen, err := workload.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	solver, err := core.NewSolver(scen, core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	a := alloc.New(scen)
	numK := scen.Cloud.NumClusters()
	for i := 0; i < scen.NumClients(); i++ {
		id := model.ClientID(i)
		for off := 0; off < numK; off++ {
			k := model.ClusterID((i + off) % numK)
			if _, portions, err := solver.AssignDistribute(a, id, k); err == nil {
				if a.Assign(id, k, portions) == nil {
					break
				}
			}
		}
	}
	if a.NumAssigned() < scen.NumClients()/2 {
		b.Fatalf("only %d/%d clients placed", a.NumAssigned(), scen.NumClients())
	}
	return a
}

// benchProfitSink defeats dead-code elimination of the profit reads.
var benchProfitSink float64

// profitMutationLoop drives the sweep-style workload the solver's local
// search generates — move one client, then re-evaluate total profit —
// with eval either the incremental or the from-scratch path.
func profitMutationLoop(b *testing.B, a *alloc.Allocation, eval func() float64) {
	b.Helper()
	var ids []model.ClientID
	for i := 0; i < a.Scenario().NumClients(); i++ {
		if a.Assigned(model.ClientID(i)) {
			ids = append(ids, model.ClientID(i))
		}
	}
	benchProfitSink = a.Profit() // settle the ledger outside the timer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := ids[i%len(ids)]
		k := model.ClusterID(a.ClusterOf(id))
		portions := a.Portions(id)
		a.Unassign(id)
		if err := a.Assign(id, k, portions); err != nil {
			b.Fatal(err)
		}
		benchProfitSink = eval()
	}
}

// BenchmarkProfitFull is the pre-refactor evaluation cost: every
// mutation pays a from-scratch O(clients+servers) profit recompute.
func BenchmarkProfitFull(b *testing.B) {
	a := paperAllocation(b)
	profitMutationLoop(b, a, func() float64 { return a.RecomputeBreakdown().Profit })
}

// BenchmarkProfitIncremental is the ledger path: the same mutation
// stream re-prices only the touched client and servers (O(touched)).
func BenchmarkProfitIncremental(b *testing.B) {
	a := paperAllocation(b)
	profitMutationLoop(b, a, func() float64 { return a.ProfitBreakdown().Profit })
}

// BenchmarkSolveProposed is the raw heuristic cost per solve.
func BenchmarkSolveProposed(b *testing.B) {
	for _, n := range []int{50, 200} {
		b.Run(fmt.Sprintf("clients=%d", n), func(b *testing.B) {
			scen := benchScenario(b, n, 9)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				solver, err := core.NewSolver(scen, core.DefaultConfig())
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := solver.Solve(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSolveMultiStart isolates the solver's multi-start greedy
// fan-out (local search disabled): 8 seed-split starts, one worker vs
// all workers. Both arms produce bit-identical solutions; only the
// wall-clock differs.
func BenchmarkSolveMultiStart(b *testing.B) {
	for _, n := range []int{50, 250} {
		for _, workers := range []int{1, 0} {
			name := fmt.Sprintf("clients=%d/workers=%d", n, workers)
			b.Run(name, func(b *testing.B) {
				scen := benchScenario(b, n, 16)
				cfg := core.DefaultConfig()
				cfg.NumInitSolutions = 8
				cfg.MaxLocalSearchIters = 0
				cfg.Workers = workers
				solver, err := core.NewSolver(scen, cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := solver.Solve(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkMonteCarlo is the parallel draw loop: per-draw seed-split
// RNGs, per-worker arena reuse, one worker vs all workers.
func BenchmarkMonteCarlo(b *testing.B) {
	for _, n := range []int{50, 250} {
		for _, workers := range []int{1, 0} {
			name := fmt.Sprintf("clients=%d/workers=%d", n, workers)
			b.Run(name, func(b *testing.B) {
				scen := benchScenario(b, n, 17)
				cfg := baseline.DefaultMCConfig()
				cfg.Draws = 16
				cfg.MaxSearchPasses = 3
				cfg.Workers = workers
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := baseline.RunMonteCarlo(scen, cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkModifiedPS is the baseline's cost per solve.
func BenchmarkModifiedPS(b *testing.B) {
	scen := benchScenario(b, 100, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.SolveModifiedPS(scen, baseline.DefaultPSConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMonteCarloDraw is the cost of one random draw + local search.
func BenchmarkMonteCarloDraw(b *testing.B) {
	scen := benchScenario(b, 50, 11)
	cfg := baseline.DefaultMCConfig()
	cfg.Draws = 1
	cfg.MaxSearchPasses = 3
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		if _, err := baseline.RunMonteCarlo(scen, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulate is the discrete-event simulator's throughput.
func BenchmarkSimulate(b *testing.B) {
	scen := benchScenario(b, 30, 12)
	solver, err := core.NewSolver(scen, core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	a, _, err := solver.Solve()
	if err != nil {
		b.Fatal(err)
	}
	cfg := sim.Config{Horizon: 2000, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		res, err := sim.Simulate(a, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Completed == 0 {
			b.Fatal("no completions")
		}
	}
}

// BenchmarkEpochPolicies runs the decision-policy trace experiment.
func BenchmarkEpochPolicies(b *testing.B) {
	cfg := experiment.DefaultEpochsConfig()
	cfg.Clients = 25
	cfg.Epochs = 8
	var rows []experiment.EpochsRow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiment.RunEpochsExperiment(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	var always, never float64
	for _, r := range rows {
		switch r.Policy {
		case "always":
			always = r.TotalProfit
		case "never":
			never = r.TotalProfit
		}
	}
	if always > 0 {
		b.ReportMetric(never/always, "never/always")
	}
}
