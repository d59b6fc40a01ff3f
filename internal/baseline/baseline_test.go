package baseline

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/workload"
)

func genScenario(t testing.TB, n int, seed int64) *model.Scenario {
	t.Helper()
	cfg := workload.DefaultConfig()
	cfg.NumClients = n
	cfg.Seed = seed
	scen, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return scen
}

func TestModifiedPSProducesValidAllocation(t *testing.T) {
	scen := genScenario(t, 30, 1)
	a, err := SolveModifiedPS(scen, DefaultPSConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.NumAssigned() == 0 {
		t.Fatal("PS placed no clients")
	}
}

func TestModifiedPSSweepPicksBest(t *testing.T) {
	scen := genScenario(t, 30, 2)
	full, err := SolveModifiedPS(scen, DefaultPSConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range psActiveFractions {
		single := alloc.New(scen)
		psAttempt(single, scen, f)
		if full.Profit() < single.Profit()-1e-9 {
			t.Fatalf("sweep (%v) worse than its own member %v (%v)", full.Profit(), f, single.Profit())
		}
	}
}

func TestProposedBeatsModifiedPS(t *testing.T) {
	// The headline qualitative claim of Figure 4: the proposed heuristic
	// clearly beats the modified PS baseline.
	scen := genScenario(t, 40, 3)
	solver, err := core.NewSolver(scen, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	proposed, _, err := solver.Solve()
	if err != nil {
		t.Fatal(err)
	}
	ps, err := SolveModifiedPS(scen, DefaultPSConfig())
	if err != nil {
		t.Fatal(err)
	}
	if proposed.Profit() <= ps.Profit() {
		t.Fatalf("proposed %v should beat PS %v", proposed.Profit(), ps.Profit())
	}
}

func TestRandomAssignmentValid(t *testing.T) {
	scen := genScenario(t, 25, 4)
	solver, err := core.NewSolver(scen, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	a, err := RandomAssignment(solver, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.NumAssigned() != 25 {
		t.Fatalf("random assignment placed %d of 25", a.NumAssigned())
	}
}

func TestReassignmentSearchImproves(t *testing.T) {
	scen := genScenario(t, 25, 5)
	solver, err := core.NewSolver(scen, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	a, err := RandomAssignment(solver, rng)
	if err != nil {
		t.Fatal(err)
	}
	before := a.Profit()
	reassignmentSearch(solver, a, 10)
	if a.Profit() < before-1e-9 {
		t.Fatalf("local search regressed: %v -> %v", before, a.Profit())
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRunMonteCarloEnvelope(t *testing.T) {
	scen := genScenario(t, 20, 6)
	cfg := DefaultMCConfig()
	cfg.Draws = 8
	cfg.MaxSearchPasses = 3
	env, err := RunMonteCarlo(scen, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if env.Draws != 8 {
		t.Fatalf("draws = %d", env.Draws)
	}
	if env.Best == nil {
		t.Fatal("no best allocation recorded")
	}
	if err := env.Best.Validate(); err != nil {
		t.Fatal(err)
	}
	if env.BestInitial < env.WorstInitial {
		t.Fatalf("initial envelope inverted: %v < %v", env.BestInitial, env.WorstInitial)
	}
	if env.BestOptimized < env.WorstOptimized {
		t.Fatalf("optimized envelope inverted: %+v", env)
	}
	if env.BestOptimized < env.BestInitial-1e-9 {
		t.Fatalf("optimization made the best draw worse: %+v", env)
	}
	if env.WorstOptimized < env.WorstInitial-1e-9 {
		t.Fatalf("worst optimized %v below worst initial %v", env.WorstOptimized, env.WorstInitial)
	}
	if math.Abs(env.Best.Profit()-env.BestOptimized) > 1e-9 {
		t.Fatalf("best allocation profit %v != recorded %v", env.Best.Profit(), env.BestOptimized)
	}
}

func TestRunMonteCarloRejectsBadConfig(t *testing.T) {
	scen := genScenario(t, 5, 7)
	cfg := DefaultMCConfig()
	cfg.Draws = 0
	if _, err := RunMonteCarlo(scen, cfg); err == nil {
		t.Fatal("zero draws accepted")
	}
	scen.Clients[0].ProcTime = 0
	if _, err := RunMonteCarlo(scen, DefaultMCConfig()); err == nil {
		t.Fatal("invalid scenario accepted")
	}
}

func TestMonteCarloDeterministic(t *testing.T) {
	scen := genScenario(t, 15, 8)
	cfg := DefaultMCConfig()
	cfg.Draws = 5
	cfg.MaxSearchPasses = 2
	e1, err := RunMonteCarlo(scen, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := RunMonteCarlo(scen, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e1.BestOptimized != e2.BestOptimized || e1.WorstInitial != e2.WorstInitial {
		t.Fatalf("same seed, different envelopes: %+v vs %+v", e1, e2)
	}
}

// BenchmarkMonteCarlo is the parallel draw loop: per-draw seed-split
// RNGs, per-worker arena reuse, one worker vs all workers.
func BenchmarkMonteCarlo(b *testing.B) {
	for _, n := range []int{50, 250} {
		for _, workers := range []int{1, 0} {
			name := fmt.Sprintf("clients=%d/workers=%d", n, workers)
			b.Run(name, func(b *testing.B) {
				scen := genScenario(b, n, 17)
				cfg := DefaultMCConfig()
				cfg.Draws = 16
				cfg.MaxSearchPasses = 3
				cfg.Workers = workers
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := RunMonteCarlo(scen, cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkModifiedPS is the baseline's cost per solve.
func BenchmarkModifiedPS(b *testing.B) {
	scen := genScenario(b, 100, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveModifiedPS(scen, DefaultPSConfig()); err != nil {
			b.Fatal(err)
		}
	}
}
