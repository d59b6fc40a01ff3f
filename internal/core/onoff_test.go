package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/alloc"
	"repro/internal/model"
)

// consolidationScenario: one cluster, two identical servers with a high
// fixed cost, two tiny clients. Serving both on one server easily meets
// the SLA, so turning one server off must be profitable.
func consolidationScenario(t *testing.T) *model.Scenario {
	t.Helper()
	s := &model.Scenario{
		Cloud: model.Cloud{
			ServerClasses: []model.ServerClass{
				{ID: 0, ProcCap: 10, StoreCap: 10, CommCap: 10, FixedCost: 5, UtilizationCost: 1},
			},
			UtilityClasses: []model.UtilityClass{{ID: 0, Base: 10, Slope: 0.5}},
			Clusters:       []model.Cluster{{ID: 0, Servers: []model.ServerID{0, 1}}},
			Servers: []model.Server{
				{ID: 0, Class: 0, Cluster: 0},
				{ID: 1, Class: 0, Cluster: 0},
			},
		},
		Clients: []model.Client{
			{ID: 0, Class: 0, ArrivalRate: 0.5, PredictedRate: 0.5, ProcTime: 0.5, CommTime: 0.5, DiskNeed: 1},
			{ID: 1, Class: 0, ArrivalRate: 0.5, PredictedRate: 0.5, ProcTime: 0.5, CommTime: 0.5, DiskNeed: 1},
		},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestTurnOffConsolidates(t *testing.T) {
	scen := consolidationScenario(t)
	s := newTestSolver(t, scen, nil)
	a := alloc.New(scen)
	// One client per server: wasteful (two fixed costs).
	for i, srv := range []model.ServerID{0, 1} {
		p := []alloc.Portion{{Server: srv, Alpha: 1, ProcShare: 0.5, CommShare: 0.5}}
		if err := a.Assign(model.ClientID(i), 0, p); err != nil {
			t.Fatal(err)
		}
	}
	before := a.Profit()
	if a.NumActiveServers() != 2 {
		t.Fatal("setup should use two servers")
	}
	deact := s.TurnOffServers(a, 0)
	if deact != 1 {
		t.Fatalf("deactivations = %d, want 1", deact)
	}
	if a.NumActiveServers() != 1 {
		t.Fatalf("active servers = %d, want 1", a.NumActiveServers())
	}
	if a.Profit() <= before {
		t.Fatalf("consolidation did not improve profit: %v -> %v", before, a.Profit())
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

// congestionScenario: one cluster, two servers, two heavy latency-
// sensitive clients crammed onto one server. Activating the second
// server must pay for itself.
func congestionScenario(t *testing.T) *model.Scenario {
	t.Helper()
	s := &model.Scenario{
		Cloud: model.Cloud{
			ServerClasses: []model.ServerClass{
				{ID: 0, ProcCap: 4, StoreCap: 10, CommCap: 4, FixedCost: 0.5, UtilizationCost: 0.2},
			},
			UtilityClasses: []model.UtilityClass{{ID: 0, Base: 10, Slope: 2}},
			Clusters:       []model.Cluster{{ID: 0, Servers: []model.ServerID{0, 1}}},
			Servers: []model.Server{
				{ID: 0, Class: 0, Cluster: 0},
				{ID: 1, Class: 0, Cluster: 0},
			},
		},
		Clients: []model.Client{
			{ID: 0, Class: 0, ArrivalRate: 3, PredictedRate: 3, ProcTime: 0.5, CommTime: 0.5, DiskNeed: 1},
			{ID: 1, Class: 0, ArrivalRate: 3, PredictedRate: 3, ProcTime: 0.5, CommTime: 0.5, DiskNeed: 1},
		},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestTurnOnRelievesCongestion(t *testing.T) {
	scen := congestionScenario(t)
	s := newTestSolver(t, scen, nil)
	a := alloc.New(scen)
	// Both clients share server 0 with half shares each: μ = 0.5·4/0.5 = 4,
	// λ = 3 → per-stage delay 1, R̄ = 2 → revenue 3·(10−4) = 18 each, but
	// server 1 is idle and could halve the response times for 0.5 cost.
	for i := 0; i < 2; i++ {
		p := []alloc.Portion{{Server: 0, Alpha: 1, ProcShare: 0.5, CommShare: 0.5}}
		if err := a.Assign(model.ClientID(i), 0, p); err != nil {
			t.Fatal(err)
		}
	}
	before := a.Profit()
	acts := s.TurnOnServers(a, 0)
	if acts != 1 {
		t.Fatalf("activations = %d, want 1", acts)
	}
	if !a.Active(1) {
		t.Fatal("server 1 should be active")
	}
	if a.Profit() <= before {
		t.Fatalf("activation did not improve profit: %v -> %v", before, a.Profit())
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTurnOnSkipsWhenUnprofitable(t *testing.T) {
	scen := consolidationScenario(t)
	// Make activation clearly unprofitable: huge fixed cost.
	scen.Cloud.ServerClasses[0].FixedCost = 100
	s := newTestSolver(t, scen, nil)
	a := alloc.New(scen)
	// Full shares: the idle server cannot offer anything better, so any
	// activation would only add the prohibitive fixed cost.
	p := []alloc.Portion{{Server: 0, Alpha: 1, ProcShare: 1, CommShare: 1}}
	if err := a.Assign(0, 0, p); err != nil {
		t.Fatal(err)
	}
	before := a.Profit()
	if acts := s.TurnOnServers(a, 0); acts != 0 {
		t.Fatalf("activated %d servers despite prohibitive cost", acts)
	}
	if math.Abs(a.Profit()-before) > 1e-9 {
		t.Fatalf("failed experiment mutated the allocation: %v -> %v", before, a.Profit())
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTurnOffKeepsNecessaryServers(t *testing.T) {
	scen := congestionScenario(t)
	s := newTestSolver(t, scen, nil)
	a := alloc.New(scen)
	// One heavy client per server; neither server can absorb both
	// (2 clients × λ̃·t = 1.5 work each → 3.0 total vs stability on Cp=4
	// possible, but delay explodes). TurnOff must not force a merge that
	// hurts profit.
	for i, srv := range []model.ServerID{0, 1} {
		p := []alloc.Portion{{Server: srv, Alpha: 1, ProcShare: 0.9, CommShare: 0.9}}
		if err := a.Assign(model.ClientID(i), 0, p); err != nil {
			t.Fatal(err)
		}
	}
	before := a.Profit()
	s.TurnOffServers(a, 0)
	if a.Profit() < before-1e-9 {
		t.Fatalf("TurnOff decreased profit: %v -> %v", before, a.Profit())
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAdjustResourceSharesImprovesSkewedShares(t *testing.T) {
	scen := consolidationScenario(t)
	s := newTestSolver(t, scen, nil)
	a := alloc.New(scen)
	// Both clients on server 0 with deliberately lopsided shares.
	if err := a.Assign(0, 0, []alloc.Portion{{Server: 0, Alpha: 1, ProcShare: 0.85, CommShare: 0.85}}); err != nil {
		t.Fatal(err)
	}
	if err := a.Assign(1, 0, []alloc.Portion{{Server: 0, Alpha: 1, ProcShare: 0.05, CommShare: 0.05}}); err != nil {
		t.Fatal(err)
	}
	before := a.Profit()
	if !s.AdjustResourceShares(a, 0) {
		t.Fatal("share adjustment did not change anything")
	}
	if a.Profit() <= before {
		t.Fatalf("share adjustment did not improve profit: %v -> %v", before, a.Profit())
	}
	// Identical clients should now have (nearly) identical shares.
	p0 := a.Portions(0)[0]
	p1 := a.Portions(1)[0]
	if math.Abs(p0.ProcShare-p1.ProcShare) > 1e-6 {
		t.Fatalf("symmetric clients got %v and %v", p0.ProcShare, p1.ProcShare)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAdjustDispersionRatesImprovesSkewedSplit(t *testing.T) {
	scen := consolidationScenario(t)
	s := newTestSolver(t, scen, nil)
	a := alloc.New(scen)
	// One client split 90/10 across two identical servers with equal
	// shares; the optimum is 50/50.
	p := []alloc.Portion{
		{Server: 0, Alpha: 0.9, ProcShare: 0.5, CommShare: 0.5},
		{Server: 1, Alpha: 0.1, ProcShare: 0.5, CommShare: 0.5},
	}
	if err := a.Assign(0, 0, p); err != nil {
		t.Fatal(err)
	}
	before := a.Profit()
	if !s.AdjustDispersionRates(a, 0) {
		t.Fatal("dispersion adjustment did not change anything")
	}
	if a.Profit() <= before {
		t.Fatalf("dispersion adjustment did not improve profit: %v -> %v", before, a.Profit())
	}
	ps := a.Portions(0)
	if len(ps) != 2 {
		t.Fatalf("portions = %v", ps)
	}
	if math.Abs(ps[0].Alpha-0.5) > 0.01 {
		t.Fatalf("α = %v, want ≈ 0.5", ps[0].Alpha)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAdjustNoOpsOnTrivialCases(t *testing.T) {
	scen := consolidationScenario(t)
	s := newTestSolver(t, scen, nil)
	a := alloc.New(scen)
	if s.AdjustResourceShares(a, 0) {
		t.Fatal("empty server adjusted")
	}
	if s.AdjustDispersionRates(a, 0) {
		t.Fatal("unassigned client adjusted")
	}
	if err := a.Assign(0, 0, []alloc.Portion{{Server: 0, Alpha: 1, ProcShare: 0.5, CommShare: 0.5}}); err != nil {
		t.Fatal(err)
	}
	if s.AdjustDispersionRates(a, 0) {
		t.Fatal("single-portion client has nothing to adjust")
	}
}

func TestTurnOnRespectsDiskConstraint(t *testing.T) {
	scen := congestionScenario(t)
	// Shrink server 1's class... both servers share class 0, so instead
	// give the clients disk needs that fit server 0 (already placed) but
	// exceed a fresh server's remaining capacity when combined with the
	// other client's reservation. Here: each client needs 6 of the 10
	// disk units, so server 1 can host at most one of them; the scenario
	// stays feasible but the move generator must skip infeasible targets.
	scen.Clients[0].DiskNeed = 6
	scen.Clients[1].DiskNeed = 6
	s := newTestSolver(t, scen, nil)
	a := alloc.New(scen)
	for i := 0; i < 2; i++ {
		p := []alloc.Portion{{Server: 0, Alpha: 1, ProcShare: 0.5, CommShare: 0.5}}
		if err := a.Assign(model.ClientID(i), 0, p); err != nil {
			// Disk on server 0 only fits one client at 6 units; place the
			// second on server 1 directly then.
			p[0].Server = 1
			if err := a.Assign(model.ClientID(i), 0, p); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := a.Profit()
	s.TurnOnServers(a, 0)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.Profit() < before-1e-9 {
		t.Fatalf("TurnOn regressed profit: %v -> %v", before, a.Profit())
	}
}

func TestReassignmentPassNoOpOnOptimal(t *testing.T) {
	scen := consolidationScenario(t)
	s := newTestSolver(t, scen, nil)
	a, _, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	p := a.Profit()
	// A second pass over an already-converged solution must not change it.
	s.ReassignmentPassCtx(context.Background(), a)
	if math.Abs(a.Profit()-p) > 1e-9 {
		t.Fatalf("pass on converged solution changed profit: %v -> %v", p, a.Profit())
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}
