package core

import (
	"context"
	"testing"

	"repro/internal/model"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// TestWarmstartDirtyRescoring10k is the at-scale warmstart check: a
// 10k-client epoch roll (SolveFromCtx on drifted rates) must keep the bulk
// of the placements, and the reassignment pass's dirty-cluster tracking
// must actually engage at that size — a converged pass re-scores almost
// nothing instead of sweeping all 10k clients again. Gated off -race
// (it would dominate the race suite) and -short.
func TestWarmstartDirtyRescoring10k(t *testing.T) {
	if raceEnabled {
		t.Skip("scale test; skipped under -race")
	}
	if testing.Short() {
		t.Skip("short mode")
	}
	const clients = 10_000
	// Both epochs keep the solve small (one greedy start, one round, a
	// coarse α grid, top-6 candidates): only the reassignment machinery
	// matters here.
	mutate := func(c *Config) {
		c.NumInitSolutions = 1
		c.MaxLocalSearchIters = 1
		c.AlphaGranularity = 6
		c.CandidateClusters = 6
	}

	prevScen, err := workload.Generate(workload.ScaleConfig(clients, 3))
	if err != nil {
		t.Fatal(err)
	}
	s1 := newTestSolver(t, prevScen, func(c *Config) {
		mutate(c)
		c.Shards = 12
	})
	prev, _, err := s1.Solve()
	if err != nil {
		t.Fatal(err)
	}
	kept := 0

	// Next epoch: same cloud, mildly drifted rates.
	nextScen, err := workload.Generate(workload.ScaleConfig(clients, 3))
	if err != nil {
		t.Fatal(err)
	}
	for i := range nextScen.Clients {
		drift := 0.9 + 0.2*float64(i%11)/10 // deterministic ±10%
		nextScen.Clients[i].ArrivalRate *= drift
		nextScen.Clients[i].PredictedRate *= drift
	}

	set := telemetry.New(nil)
	s2 := newTestSolver(t, nextScen, func(c *Config) {
		mutate(c)
		c.Telemetry = set
	})
	a, stats, err := s2.SolveFromCtx(context.Background(), prev)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < clients; i++ {
		id := model.ClientID(i)
		if prev.Assigned(id) && a.Assigned(id) && a.ClusterOf(id) == prev.ClusterOf(id) {
			kept++
		}
	}
	if kept < prev.NumAssigned()/2 {
		t.Fatalf("warm start kept only %d of %d placements", kept, prev.NumAssigned())
	}
	if stats.FinalProfit < stats.InitialProfit-1e-9 {
		t.Fatalf("local search regressed: %+v", stats)
	}

	// Drain to convergence, then check the dirty tracking: one more pass
	// over the untouched allocation must skip essentially everyone.
	for i := 0; i < 5 && s2.ReassignmentPassCtx(context.Background(), a) > 0; i++ {
	}
	scored := set.Counter("solver_reassign_scored_total")
	skipped := set.Counter("solver_reassign_dirty_skipped_total")
	scoredBefore, skippedBefore := scored.Value(), skipped.Value()
	if moves := s2.ReassignmentPassCtx(context.Background(), a); moves != 0 {
		t.Fatalf("converged allocation still moved %d clients", moves)
	}
	if got := scored.Value() - scoredBefore; got != 0 {
		t.Fatalf("converged pass re-scored %d clients, want 0", got)
	}
	if got := skipped.Value() - skippedBefore; got != int64(clients) {
		t.Fatalf("converged pass skipped %d clients, want all %d", got, clients)
	}
}
