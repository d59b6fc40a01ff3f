package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/workload"
)

func TestSolveFromKeepsFeasiblePlacements(t *testing.T) {
	scen := smallScenario(t, 30, 21)
	s1 := newTestSolver(t, scen, nil)
	prev, _, err := s1.Solve()
	if err != nil {
		t.Fatal(err)
	}

	// Same cloud, slightly drifted rates.
	next := smallScenario(t, 30, 21)
	for i := range next.Clients {
		next.Clients[i].ArrivalRate *= 0.95
		next.Clients[i].PredictedRate *= 0.95
	}
	s2 := newTestSolver(t, next, nil)
	a, stats, err := s2.SolveFromCtx(context.Background(), prev)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	// Admission control may leave a handful of unprofitable clients out;
	// the bulk must carry over.
	if a.NumAssigned() < 25 {
		t.Fatalf("assigned only %d of 30", a.NumAssigned())
	}
	if stats.FinalProfit < stats.InitialProfit-1e-9 {
		t.Fatalf("local search regressed: %+v", stats)
	}

	// Quality must be close to a cold solve of the new scenario.
	cold, _, err := s2.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if a.Profit() < 0.9*cold.Profit() {
		t.Fatalf("warm profit %v far below cold %v", a.Profit(), cold.Profit())
	}
}

func TestSolveFromReplacesSaturatedClients(t *testing.T) {
	scen := smallScenario(t, 20, 22)
	s1 := newTestSolver(t, scen, nil)
	prev, _, err := s1.Solve()
	if err != nil {
		t.Fatal(err)
	}

	// Triple the rates: many old placements saturate and must be redone.
	next := smallScenario(t, 20, 22)
	for i := range next.Clients {
		next.Clients[i].ArrivalRate *= 3
		next.Clients[i].PredictedRate *= 3
	}
	s2 := newTestSolver(t, next, nil)
	a, _, err := s2.SolveFromCtx(context.Background(), prev)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	// Whatever got placed must be stable under the new rates (Validate
	// checks this); the heavy load may leave some clients out.
	if a.NumAssigned() == 0 {
		t.Fatal("nothing placed after drift")
	}
}

func TestSolveFromRejectsShapeMismatch(t *testing.T) {
	scen := smallScenario(t, 10, 23)
	s := newTestSolver(t, scen, nil)
	prev, _, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	cfg := workload.DefaultConfig()
	cfg.NumClients = 11
	cfg.Seed = 23
	other, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s2 := newTestSolver(t, other, nil)
	if _, _, err := s2.SolveFromCtx(context.Background(), prev); err == nil {
		t.Fatal("shape mismatch accepted")
	}
	if _, _, err := s2.SolveFromCtx(context.Background(), nil); err == nil {
		t.Fatal("nil previous accepted")
	}
}

// driftChurn applies churn-shaped drift to a copy of scen: every rate
// jittered by a seeded factor, departFrac of the clients zeroed out
// (departed). Returns the drifted scenario.
func driftChurn(t *testing.T, n int, scenSeed, driftSeed int64, departFrac float64) *model.Scenario {
	t.Helper()
	drift := smallScenario(t, n, scenSeed)
	rng := rand.New(rand.NewSource(driftSeed))
	for i := range drift.Clients {
		f := 0.8 + 0.4*rng.Float64()
		drift.Clients[i].ArrivalRate *= f
		drift.Clients[i].PredictedRate *= f
		if rng.Float64() < departFrac {
			drift.Clients[i].ArrivalRate = 0
			drift.Clients[i].PredictedRate = 0
		}
	}
	return drift
}

// TestSolveFromDropsDepartedClients: clients whose rates dropped to zero
// (departed, in the online service's churn model) must not survive the
// warm start — their old placements are dropped, not replayed, and the
// re-placement pass never re-admits them.
func TestSolveFromDropsDepartedClients(t *testing.T) {
	scen := smallScenario(t, 30, 24)
	s1 := newTestSolver(t, scen, nil)
	prev, _, err := s1.Solve()
	if err != nil {
		t.Fatal(err)
	}

	drift := driftChurn(t, 30, 24, 99, 0.3)
	if err := drift.Validate(); err != nil {
		t.Fatal(err)
	}
	var departed []model.ClientID
	for i := range drift.Clients {
		if drift.Clients[i].PredictedRate == 0 {
			departed = append(departed, model.ClientID(i))
		}
	}
	if len(departed) == 0 {
		t.Fatal("drift produced no departures; pick another seed")
	}

	s2 := newTestSolver(t, drift, nil)
	a, _, err := s2.SolveFromCtx(context.Background(), prev)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, id := range departed {
		if a.Assigned(id) {
			t.Fatalf("departed client %d still assigned after warm start", id)
		}
	}
}

// TestSolveFromPlacesArrivals: clients absent in the previous epoch
// (zero rate, unassigned) that now carry positive rates are newly
// arrived and must flow through the re-placement path into the warm
// allocation.
func TestSolveFromPlacesArrivals(t *testing.T) {
	base := smallScenario(t, 30, 25)
	// First third of the clients have not arrived yet.
	var absent []model.ClientID
	for i := 0; i < 10; i++ {
		base.Clients[i].ArrivalRate = 0
		base.Clients[i].PredictedRate = 0
		absent = append(absent, model.ClientID(i))
	}
	if err := base.Validate(); err != nil {
		t.Fatal(err)
	}
	s1 := newTestSolver(t, base, nil)
	prev, _, err := s1.Solve()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range absent {
		if prev.Assigned(id) {
			t.Fatalf("absent client %d assigned in base solve", id)
		}
	}

	// They arrive: fresh scenario with every rate positive.
	next := smallScenario(t, 30, 25)
	s2 := newTestSolver(t, next, nil)
	a, _, err := s2.SolveFromCtx(context.Background(), prev)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	var placed int
	for _, id := range absent {
		if a.Assigned(id) {
			placed++
		}
	}
	// Admission control may price a few arrivals out; most must land.
	if placed < len(absent)/2 {
		t.Fatalf("only %d of %d arrivals placed into the warm allocation", placed, len(absent))
	}
}

// TestSolveFromWarmBeatsColdGreedy: on the same drifted scenario the
// warm start (replay + re-place + local search) must end at least as
// profitable as a single cold greedy pass without local search. The
// floor is empirical, not a theorem — replayed placements can trap the
// hill climber in a nearby local optimum (seed 33 lands 0.8% below the
// cold greedy) — so the property allows the same 1% slack the online
// service's profit-retention gate enforces.
func TestSolveFromWarmBeatsColdGreedy(t *testing.T) {
	for _, seed := range []int64{31, 32, 33, 34, 35} {
		base := smallScenario(t, 40, seed)
		s1 := newTestSolver(t, base, nil)
		prev, _, err := s1.Solve()
		if err != nil {
			t.Fatal(err)
		}

		drift := driftChurn(t, 40, seed, seed*7+1, 0.15)
		warmSolver := newTestSolver(t, drift, nil)
		warm, _, err := warmSolver.SolveFromCtx(context.Background(), prev)
		if err != nil {
			t.Fatal(err)
		}
		if err := warm.Validate(); err != nil {
			t.Fatal(err)
		}

		coldGreedy := newTestSolver(t, drift, func(c *Config) {
			c.MaxLocalSearchIters = 0
			c.NumInitSolutions = 1
		})
		cold, _, err := coldGreedy.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if warm.Profit() < 0.99*cold.Profit()-1e-9 {
			t.Fatalf("seed %d: warm profit %v below 99%% of cold greedy %v",
				seed, warm.Profit(), cold.Profit())
		}
	}
}
