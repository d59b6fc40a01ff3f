package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/alloc"
	"repro/internal/model"
	"repro/internal/workload"
)

func shardScenario(t *testing.T, clients, clusters int, seed int64) *model.Scenario {
	t.Helper()
	wcfg := workload.DefaultConfig()
	wcfg.NumClients = clients
	wcfg.NumClusters = clusters
	wcfg.Seed = seed
	scen, err := workload.Generate(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	return scen
}

// TestShardedSolveWorkerEquiv: the sharded solve must be bit-identical at
// any worker count — shard membership, per-shard orders and the serial
// reconciliation are all deterministic, and so is every Stats count.
// Under -race this also proves the shards' cluster ownership is disjoint.
func TestShardedSolveWorkerEquiv(t *testing.T) {
	for _, tc := range []struct{ shards, workers int }{{2, 8}, {3, 4}, {3, 8}, {7, 8}} {
		shards := tc.shards
		scen := shardScenario(t, 90, 6, int64(40+shards))
		mutate := func(workers int) func(*Config) {
			return func(c *Config) {
				c.Workers = workers
				c.Shards = shards
			}
		}
		s1 := newTestSolver(t, scen, mutate(1))
		sN := newTestSolver(t, scen, mutate(tc.workers))
		a1, st1, err := s1.Solve()
		if err != nil {
			t.Fatal(err)
		}
		aN, stN, err := sN.Solve()
		if err != nil {
			t.Fatal(err)
		}
		sameCounts(t, "sharded solve", st1, stN)
		sameAssignments(t, scen, a1, aN, "sharded solve")
		if !ulpEqual(st1.FinalProfit, stN.FinalProfit) {
			t.Fatalf("shards=%d: final profit %v vs %v", shards, st1.FinalProfit, stN.FinalProfit)
		}
		if st1.Reassignments != stN.Reassignments {
			t.Fatalf("shards=%d: %d vs %d reassignments", shards, st1.Reassignments, stN.Reassignments)
		}
		if st1.Attribution != stN.Attribution {
			t.Fatalf("shards=%d: attribution differs across worker counts:\nW=1 %+v\nW=8 %+v", shards, st1.Attribution, stN.Attribution)
		}
		if err := aN.Validate(); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
	}
}

// TestShardedSolveQuality: sharding trades search breadth for
// parallelism; the reconciliation pass must keep the profit close to the
// unsharded solver's.
func TestShardedSolveQuality(t *testing.T) {
	scen := shardScenario(t, 120, 8, 77)
	exact := newTestSolver(t, scen, nil)
	_, stExact, err := exact.Solve()
	if err != nil {
		t.Fatal(err)
	}
	sharded := newTestSolver(t, scen, func(c *Config) { c.Shards = 4 })
	a, st, err := sharded.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if stExact.FinalProfit <= 0 {
		t.Fatalf("unsharded profit %v not positive; instance unusable", stExact.FinalProfit)
	}
	if loss := (stExact.FinalProfit - st.FinalProfit) / stExact.FinalProfit; loss > 0.05 {
		t.Fatalf("sharded solve lost %.2f%% profit (unsharded %v, sharded %v)",
			loss*100, stExact.FinalProfit, st.FinalProfit)
	}
	if st.Unplaced > stExact.Unplaced+scen.NumClients()/20 {
		t.Fatalf("sharded solve left %d clients unplaced (unsharded %d)", st.Unplaced, stExact.Unplaced)
	}
}

// TestShardedPrunedSolveEquiv: sharding composed with index pruning —
// still deterministic across worker counts and still a valid allocation.
func TestShardedPrunedSolveEquiv(t *testing.T) {
	scen := shardScenario(t, 100, 9, 55)
	mutate := func(workers int) func(*Config) {
		return func(c *Config) {
			c.Workers = workers
			c.Shards = 3
			c.CandidateClusters = 2
		}
	}
	s1 := newTestSolver(t, scen, mutate(1))
	sN := newTestSolver(t, scen, mutate(6))
	a1, st1, err := s1.Solve()
	if err != nil {
		t.Fatal(err)
	}
	aN, stN, err := sN.Solve()
	if err != nil {
		t.Fatal(err)
	}
	sameAssignments(t, scen, a1, aN, "sharded pruned solve")
	sameCounts(t, "sharded pruned solve", st1, stN)
	if !ulpEqual(st1.FinalProfit, stN.FinalProfit) {
		t.Fatalf("final profit %v vs %v", st1.FinalProfit, stN.FinalProfit)
	}
	if err := aN.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestShardsMoreThanClusters: Shards beyond the cluster count must clamp,
// not break.
func TestShardsMoreThanClusters(t *testing.T) {
	scen := shardScenario(t, 30, 3, 5)
	s := newTestSolver(t, scen, func(c *Config) { c.Shards = 16 })
	a, st, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if st.FinalProfit <= 0 {
		t.Fatalf("profit %v", st.FinalProfit)
	}
}

// TestShardedSolveNoReassign: DisableReassign must skip both the scoped
// passes and the reconciliation without breaking the sharded rounds.
func TestShardedSolveNoReassign(t *testing.T) {
	scen := shardScenario(t, 60, 6, 13)
	s := newTestSolver(t, scen, func(c *Config) {
		c.Shards = 3
		c.DisableReassign = true
	})
	a, st, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if st.Reassignments != 0 {
		t.Fatalf("DisableReassign but %d reassignments", st.Reassignments)
	}
}

// absentScenario is a 60-client paper-shaped instance whose every 4th
// client has zero rates (15 absent clients).
func absentScenario(t *testing.T) *model.Scenario {
	t.Helper()
	scen := shardScenario(t, 60, 5, 1)
	for i := 0; i < scen.NumClients(); i += 4 {
		scen.Clients[i].ArrivalRate = 0
		scen.Clients[i].PredictedRate = 0
	}
	return scen
}

// assertAbsentUnplaced fails the test if any zero-rate client holds a
// placement.
func assertAbsentUnplaced(t *testing.T, label string, scen *model.Scenario, a *alloc.Allocation) {
	t.Helper()
	var placed []int
	for i := range scen.Clients {
		if scen.Clients[i].PredictedRate == 0 && a.Assigned(model.ClientID(i)) {
			placed = append(placed, i)
		}
	}
	if len(placed) > 0 {
		t.Errorf("%s: %d absent clients placed: %v", label, len(placed), placed)
	}
}

// TestShardedSolveSkipsAbsentClients: a zero-rate client has nothing to
// place, so the sharded greedy and the shards' reassignment passes leave
// it out exactly as the unsharded solve does — even with admission
// control off, where a placement costs nothing to accept.
func TestShardedSolveSkipsAbsentClients(t *testing.T) {
	scen := absentScenario(t)
	for _, shards := range []int{0, 2, 3} {
		s := newTestSolver(t, scen, func(c *Config) {
			c.AdmissionControl = false
			c.Shards = shards
		})
		label := fmt.Sprintf("shards=%d", shards)
		if shards > 1 {
			var st Stats
			g, err := s.shardedGreedy(context.Background(), s.planShards(shards), &st)
			if err != nil {
				t.Fatal(err)
			}
			assertAbsentUnplaced(t, label+" greedy", scen, g)
		}
		a, st, err := s.Solve()
		if err != nil {
			t.Fatal(err)
		}
		assertAbsentUnplaced(t, label+" solve", scen, a)
		if st.Unplaced < 15 {
			t.Errorf("%s: Unplaced = %d, want at least the 15 absent clients", label, st.Unplaced)
		}
		// The unsharded solve already skipped absent clients; its outcome
		// is pinned.
		if bits := math.Float64bits(st.FinalProfit); shards == 0 && (bits != 0x40738668ec414dbb || a.NumAssigned() != 45) {
			t.Errorf("unsharded solve moved: profit bits %016x, %d placed; want 40738668ec414dbb, 45", bits, a.NumAssigned())
		}
	}
}

// TestShardPassStateReused: over three rounds a sharded solve keeps each
// shard's reassignment pass state, candidate index included, instead of
// building it again every round. The shards' passes keep no skip marks.
func TestShardPassStateReused(t *testing.T) {
	s := newTestSolver(t, shardScenario(t, 120, 6, 9), func(c *Config) {
		c.Shards = 2
		c.CandidateClusters = 1
	})
	ctx := context.Background()
	plan := s.planShards(2)
	var st Stats
	a, err := s.shardedGreedy(ctx, plan, &st)
	if err != nil {
		t.Fatal(err)
	}
	cloud := &reassignState{a: a}
	type state struct {
		rs *reassignState
		ix *alloc.Index
	}
	var first []state
	for round := 1; round <= 3; round++ {
		s.sweepParts(ctx, a, &st, plan, plan.clusters)
		s.reassignmentPass(ctx, a, cloud, s.clients, s.all, s.cfg.Workers, true, &st)
		for p := range plan.passes {
			cur := state{&plan.passes[p], plan.passes[p].ix}
			switch {
			case cur.ix == nil || cur.rs.marks != nil:
				t.Fatalf("round %d shard %d: index %p, marks %v", round, p, cur.ix, cur.rs.marks != nil)
			case round == 1:
				first = append(first, cur)
			case cur != first[p]:
				t.Errorf("round %d shard %d: state %+v, round 1 had %+v", round, p, cur, first[p])
			}
		}
	}
}
