package baseline

import (
	"reflect"
	"testing"

	"repro/internal/telemetry"
)

// TestMonteCarloWorkerEquivalence: every envelope field — including
// which draw wins Best — must be identical for W=1 and W=N. Each draw
// has its own seed-split RNG and the Best reduction's total order
// (optimized profit desc, draw index asc) is scheduling-independent.
// Run under -race in CI.
func TestMonteCarloWorkerEquivalence(t *testing.T) {
	scen := genScenario(t, 30, 5)
	run := func(workers int) Envelope {
		cfg := DefaultMCConfig()
		cfg.Draws = 24
		cfg.Seed = 11
		cfg.MaxSearchPasses = 3
		cfg.Workers = workers
		env, err := RunMonteCarlo(scen, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if env.Best == nil {
			t.Fatalf("workers=%d: nil Best", workers)
		}
		if err := env.Best.Validate(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return env
	}

	ref := run(1)
	for _, workers := range []int{4, 8} {
		env := run(workers)
		if env.BestInitial != ref.BestInitial || env.WorstInitial != ref.WorstInitial ||
			env.BestOptimized != ref.BestOptimized || env.WorstOptimized != ref.WorstOptimized {
			t.Errorf("workers=%d: envelope %+v != W=1's (best-init %v worst-init %v best-opt %v worst-opt %v)",
				workers, env, ref.BestInitial, ref.WorstInitial, ref.BestOptimized, ref.WorstOptimized)
		}
		if got, want := env.Best.Profit(), ref.Best.Profit(); got != want {
			t.Errorf("workers=%d: Best profit %v != W=1's %v", workers, got, want)
		}
		if !reflect.DeepEqual(env.Best.Snapshot(), ref.Best.Snapshot()) {
			t.Errorf("workers=%d: Best placements differ from W=1", workers)
		}
	}
}

// TestMonteCarloCountsWorkerEquivalence: the reassignment counts the
// draws publish are the same at W=1 and, twice, at W=4. Each worker runs
// on its own solver, so no draw loses its skip marks to another worker's
// pass.
func TestMonteCarloCountsWorkerEquivalence(t *testing.T) {
	scen := genScenario(t, 60, 3)
	families := []string{
		"solver_reassign_scored_total",
		"solver_reassign_dirty_skipped_total",
		"solver_reassign_rescores_total",
	}
	run := func(workers int) []int64 {
		set := telemetry.New(nil)
		cfg := DefaultMCConfig()
		cfg.Draws = 40
		cfg.Workers = workers
		cfg.Telemetry = set
		if _, err := RunMonteCarlo(scen, cfg); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		counts := make([]int64, len(families))
		for f, name := range families {
			counts[f] = set.Counter(name).Value()
		}
		return counts
	}
	ref := run(1)
	if ref[0] == 0 {
		t.Fatal("W=1 scored no client")
	}
	for rep := 0; rep < 2; rep++ {
		if got := run(4); !reflect.DeepEqual(got, ref) {
			t.Errorf("W=4 run %d: %v = %v, W=1 %v", rep+1, families, got, ref)
		}
	}
}

// TestPSWorkerEquivalence: the active-fraction sweep picks the same
// winner at any worker count.
func TestPSWorkerEquivalence(t *testing.T) {
	scen := genScenario(t, 30, 5)
	run := func(workers int) *allocResult {
		cfg := DefaultPSConfig()
		cfg.Workers = workers
		a, err := SolveModifiedPS(scen, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return &allocResult{profit: a.Profit(), snap: a.Snapshot()}
	}
	ref := run(1)
	for _, workers := range []int{3, 8} {
		got := run(workers)
		if got.profit != ref.profit {
			t.Errorf("workers=%d: profit %v != W=1's %v", workers, got.profit, ref.profit)
		}
		if !reflect.DeepEqual(got.snap, ref.snap) {
			t.Errorf("workers=%d: placements differ from W=1", workers)
		}
	}
}

type allocResult struct {
	profit float64
	snap   any
}
