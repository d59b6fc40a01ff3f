package core

import (
	"reflect"
	"testing"
)

// TestSolveMultiStartWorkerEquivalence: the multi-start fan-out's
// determinism contract — same seed, any worker count, bit-identical
// solve. Each start draws from its own seed-split stream and the winner
// is reduced under (profit desc, start index asc), so W=1 and W=8 must
// agree on every profit, every placement and every Stats count. Run
// under -race in CI.
func TestSolveMultiStartWorkerEquivalence(t *testing.T) {
	scen := smallScenario(t, 40, 3)
	solveWith := func(workers int) (Stats, any) {
		s := newTestSolver(t, scen, func(c *Config) {
			c.NumInitSolutions = 6
			c.Workers = workers
		})
		a, stats, err := s.Solve()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return stats, a.Snapshot()
	}

	ref, refSnap := solveWith(1)
	for _, workers := range []int{4, 8} {
		st, snap := solveWith(workers)
		if st.InitialProfit != ref.InitialProfit {
			t.Errorf("workers=%d: InitialProfit %v != W=1's %v", workers, st.InitialProfit, ref.InitialProfit)
		}
		if st.FinalProfit != ref.FinalProfit {
			t.Errorf("workers=%d: FinalProfit %v != W=1's %v", workers, st.FinalProfit, ref.FinalProfit)
		}
		sameCounts(t, "multi-start solve", ref, st)
		if !reflect.DeepEqual(snap, refSnap) {
			t.Errorf("workers=%d: placements differ from W=1", workers)
		}
	}
}

// TestMultiStartArenaReuse: more starts than workers forces every worker
// to recycle its allocation through Reset; the result must still match
// the all-fresh W=1 run (which itself recycles one arena serially).
func TestMultiStartArenaReuse(t *testing.T) {
	scen := smallScenario(t, 25, 9)
	profits := map[int]float64{}
	for _, workers := range []int{1, 2} {
		s := newTestSolver(t, scen, func(c *Config) {
			c.NumInitSolutions = 8
			c.MaxLocalSearchIters = 0 // isolate the multi-start phase
			c.Workers = workers
		})
		a, stats, err := s.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Validate(); err != nil {
			t.Fatal(err)
		}
		profits[workers] = stats.InitialProfit
	}
	if profits[1] != profits[2] {
		t.Fatalf("initial profit differs: W=1 %v, W=2 %v", profits[1], profits[2])
	}
}
