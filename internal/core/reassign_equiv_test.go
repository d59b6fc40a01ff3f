package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/alloc"
	"repro/internal/model"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// ulpEqual reports |a−b| within one unit in the last place of the larger
// magnitude (the issue's "ledger-validated identical profit" tolerance).
func ulpEqual(a, b float64) bool {
	if a == b {
		return true
	}
	m := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= math.Nextafter(m, math.Inf(1))-m
}

// sameAssignments fails the test unless the two allocations place every
// client identically — same cluster, bit-identical portions.
// sameCounts fails unless two solves' Stats agree on every count (the
// profits, attribution and times are compared, or not, by the caller).
func sameCounts(t *testing.T, label string, x, y Stats) {
	t.Helper()
	strip := func(st Stats) Stats {
		st.InitialProfit, st.FinalProfit, st.Elapsed = 0, 0, 0
		st.Attribution, st.Timings, st.RoundDurations = Attribution{}, PhaseTimings{}, nil
		return st
	}
	if x, y := strip(x), strip(y); !reflect.DeepEqual(x, y) {
		t.Fatalf("%s: Stats counts differ:\n%+v\n%+v", label, x, y)
	}
}

func sameAssignments(t *testing.T, scen *model.Scenario, x, y *alloc.Allocation, label string) {
	t.Helper()
	for i := range scen.Clients {
		id := model.ClientID(i)
		if x.ClusterOf(id) != y.ClusterOf(id) {
			t.Fatalf("%s: client %d on cluster %d vs %d", label, id, x.ClusterOf(id), y.ClusterOf(id))
		}
		px, py := x.Portions(id), y.Portions(id)
		if len(px) != len(py) {
			t.Fatalf("%s: client %d has %d vs %d portions", label, id, len(px), len(py))
		}
		for p := range px {
			if px[p] != py[p] {
				t.Fatalf("%s: client %d portion %d differs: %+v vs %+v", label, id, p, px[p], py[p])
			}
		}
	}
}

// TestReassignmentPassWorkerEquivalence is the determinism property the
// pipeline promises: for a fixed starting allocation, the pass commits
// the same move set, produces bit-identical assignments and ledger-equal
// profit for every scoring worker count. Run under -race this also
// exercises the scoring pool's concurrent reads.
func TestReassignmentPassWorkerEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		wcfg := workload.DefaultConfig()
		wcfg.NumClients = 40
		wcfg.Seed = seed
		scen, err := workload.Generate(wcfg)
		if err != nil {
			t.Fatal(err)
		}
		// Alternate admission control to cover the eviction branches.
		mutate := func(workers int) func(*Config) {
			return func(c *Config) {
				c.Workers = workers
				c.AdmissionControl = seed%2 == 0
			}
		}
		s1 := newTestSolver(t, scen, mutate(1))
		sN := newTestSolver(t, scen, mutate(4))

		a1, err := s1.InitialSolution(rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		aN, err := sN.InitialSolution(rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		sameAssignments(t, scen, a1, aN, "greedy baseline")

		// Several passes so the second and third run against the marks
		// cached from the first (the cross-round skip path).
		for pass := 0; pass < 3; pass++ {
			m1 := s1.ReassignmentPassCtx(context.Background(), a1)
			mN := sN.ReassignmentPassCtx(context.Background(), aN)
			if m1 != mN {
				t.Fatalf("seed %d pass %d: %d moves with 1 worker, %d with 4", seed, pass, m1, mN)
			}
			sameAssignments(t, scen, a1, aN, "after pass")
			if !ulpEqual(a1.Profit(), aN.Profit()) {
				t.Fatalf("seed %d pass %d: profit %v vs %v", seed, pass, a1.Profit(), aN.Profit())
			}
		}
		if err := a1.Validate(); err != nil {
			t.Fatalf("seed %d: sequential result invalid: %v", seed, err)
		}
		if err := aN.Validate(); err != nil {
			t.Fatalf("seed %d: parallel result invalid: %v", seed, err)
		}
	}
}

// TestSolveWorkerEquivalencePaperSized runs the full heuristic on a
// paper-sized instance with sequential and parallel reassignment scoring
// and requires identical Reassignments counts, identical assignments and
// ledger-equal final profit (the PR's acceptance criterion).
func TestSolveWorkerEquivalencePaperSized(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-sized solve in -short mode")
	}
	wcfg := workload.DefaultConfig()
	wcfg.NumClients = 250
	wcfg.Seed = 42
	scen, err := workload.Generate(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	s1 := newTestSolver(t, scen, func(c *Config) { c.Workers = 1 })
	sN := newTestSolver(t, scen, func(c *Config) { c.Workers = 8 })

	a1, st1, err := s1.Solve()
	if err != nil {
		t.Fatal(err)
	}
	aN, stN, err := sN.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if st1.Reassignments != stN.Reassignments {
		t.Fatalf("Reassignments: %d sequential vs %d parallel", st1.Reassignments, stN.Reassignments)
	}
	sameCounts(t, "solve", st1, stN)
	sameAssignments(t, scen, a1, aN, "solve")
	if !ulpEqual(st1.FinalProfit, stN.FinalProfit) {
		t.Fatalf("final profit %v vs %v", st1.FinalProfit, stN.FinalProfit)
	}
	if err := aN.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestReassignmentPassDirtySkip checks the cross-round invariant: a
// second pass over an untouched allocation scores nothing — every client
// hits the clean-cluster skip — and commits nothing.
func TestReassignmentPassDirtySkip(t *testing.T) {
	scen := smallScenario(t, 30, 9)
	set := telemetry.New(nil)
	s := newTestSolver(t, scen, func(c *Config) { c.Telemetry = set })
	a, _, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	// Drain to convergence (Solve usually already has, but be explicit).
	for i := 0; i < 5 && s.ReassignmentPassCtx(context.Background(), a) > 0; i++ {
	}

	scored := set.Counter("solver_reassign_scored_total")
	skipped := set.Counter("solver_reassign_dirty_skipped_total")
	scoredBefore, skippedBefore := scored.Value(), skipped.Value()
	if moves := s.ReassignmentPassCtx(context.Background(), a); moves != 0 {
		t.Fatalf("converged allocation still moved %d clients", moves)
	}
	if got := scored.Value() - scoredBefore; got != 0 {
		t.Fatalf("converged pass scored %d clients, want 0", got)
	}
	if got := skipped.Value() - skippedBefore; got != int64(scen.NumClients()) {
		t.Fatalf("converged pass skipped %d clients, want all %d", got, scen.NumClients())
	}

	// Touching one cluster must wake exactly the clients that depend on
	// it — at least the moved client, and never the whole cloud again.
	var touched model.ClientID
	found := false
	for i := range scen.Clients {
		id := model.ClientID(i)
		if a.Assigned(id) {
			touched = id
			found = true
			break
		}
	}
	if !found {
		t.Skip("no assigned client to perturb")
	}
	k, ps := a.Unassign(touched)
	if err := a.Assign(touched, k, ps); err != nil {
		t.Fatal(err)
	}
	scoredBefore = scored.Value()
	s.ReassignmentPassCtx(context.Background(), a)
	if got := scored.Value() - scoredBefore; got == 0 {
		t.Fatal("perturbed cluster did not trigger rescoring")
	}
}

// TestReassignSkippedCountsCleanClusterSkips: ReassignSkipped counts only
// the clients the clean-cluster rule skipped. A fresh solver holds no
// marks, so its first pass skips nothing (absent clients are neither
// scored nor skipped); a pass repeated after one that moved nothing
// skips every present client.
func TestReassignSkippedCountsCleanClusterSkips(t *testing.T) {
	scen := absentScenario(t)
	present := 0
	for i := range scen.Clients {
		if scen.Clients[i].PredictedRate > 0 {
			present++
		}
	}
	a, _, err := newTestSolver(t, scen, nil).Solve()
	if err != nil {
		t.Fatal(err)
	}
	set := telemetry.New(nil)
	s := newTestSolver(t, scen, func(c *Config) { c.Telemetry = set })
	scored := set.Counter("solver_reassign_scored_total")
	skipped := set.Counter("solver_reassign_dirty_skipped_total")
	pass := func() (moves int, nScored, nSkipped int64) {
		scored0, skipped0 := scored.Value(), skipped.Value()
		moves = s.ReassignmentPassCtx(context.Background(), a)
		return moves, scored.Value() - scored0, skipped.Value() - skipped0
	}
	moves, nScored, nSkipped := pass()
	if nScored != int64(present) || nSkipped != 0 {
		t.Fatalf("fresh solver's first pass: scored %d, skipped %d; want %d, 0", nScored, nSkipped, present)
	}
	for i := 0; i < 5 && moves > 0; i++ {
		moves, _, _ = pass()
	}
	if moves != 0 {
		t.Fatalf("allocation still moving after repeated passes (%d moves)", moves)
	}
	if _, nScored, nSkipped = pass(); nScored != 0 || nSkipped != int64(present) {
		t.Fatalf("pass after a still one: scored %d, skipped %d; want 0, %d", nScored, nSkipped, present)
	}
}

// TestSolveRoundsSkipNothing: every round's sweeps touch every cluster
// before the round's reassignment pass scores, so the clean-cluster rule
// never fires inside a solve and the round loop runs without skip marks.
// On the golden instances (N = 50 and 200, seeds 1 and 2) the cold,
// top-k, sharded, warm and online-commit solves all report
// ReassignSkipped 0. The
// online-commit solve is a warm solve at online.DefaultConfig's solver
// settings, with rates drifted and every fifth client absent.
func TestSolveRoundsSkipNothing(t *testing.T) {
	onlineCommit := func(c *Config) {
		c.NumInitSolutions, c.MaxLocalSearchIters = 1, 1
		c.CandidateClusters, c.Parallel = 2, true
	}
	paths := []struct {
		name   string
		mutate func(*Config)
		absent bool
	}{
		{"cold", nil, false},
		{"topk", func(c *Config) { c.CandidateClusters = 2 }, false},
		{"online-commit", onlineCommit, true},
		{"sharded", func(c *Config) { c.Shards = 2 }, false},
	}
	for _, n := range []int{50, 200} {
		for _, seed := range []int64{1, 2} {
			scen := smallScenario(t, n, seed)
			for _, p := range paths {
				label := fmt.Sprintf("%s/N=%d/seed=%d", p.name, n, seed)
				s := newTestSolver(t, scen, func(c *Config) {
					c.Workers = 2
					if p.mutate != nil {
						p.mutate(c)
					}
				})
				prev, st, err := s.Solve()
				if err != nil {
					t.Fatal(err)
				}
				if st.ReassignSkipped != 0 {
					t.Errorf("%s cold: ReassignSkipped %d, want 0", label, st.ReassignSkipped)
				}
				// The warm solve re-solves drifted rates from prev.
				drifted := model.CloneScenario(scen)
				rng := rand.New(rand.NewSource(seed))
				for i := range drifted.Clients {
					f := 0.9 + 0.2*rng.Float64()
					if p.absent && i%5 == 0 {
						f = 0
					}
					drifted.Clients[i].ArrivalRate *= f
					drifted.Clients[i].PredictedRate *= f
				}
				ws := newTestSolver(t, drifted, func(c *Config) {
					c.Workers = 2
					if p.mutate != nil {
						p.mutate(c)
					}
				})
				if _, st, err = ws.SolveFromCtx(context.Background(), prev); err != nil {
					t.Fatal(err)
				}
				if st.ReassignSkipped != 0 {
					t.Errorf("%s warm: ReassignSkipped %d, want 0", label, st.ReassignSkipped)
				}
			}
		}
	}
}
