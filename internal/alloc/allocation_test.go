package alloc

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/model"
)

// testScenario: 2 clusters; cluster 0 has servers 0,1 (class 0), cluster 1
// has server 2 (class 1). Class 0: all caps 4, P0=2, P1=1. Class 1: caps
// 2/1/3 with small disk. One utility class U(R)=4−0.5R.
func testScenario(t *testing.T) *model.Scenario {
	t.Helper()
	s := &model.Scenario{
		Cloud: model.Cloud{
			ServerClasses: []model.ServerClass{
				{ID: 0, ProcCap: 4, StoreCap: 4, CommCap: 4, FixedCost: 2, UtilizationCost: 1},
				{ID: 1, ProcCap: 2, StoreCap: 1, CommCap: 3, FixedCost: 3, UtilizationCost: 2},
			},
			UtilityClasses: []model.UtilityClass{{ID: 0, Base: 4, Slope: 0.5}},
			Clusters: []model.Cluster{
				{ID: 0, Servers: []model.ServerID{0, 1}},
				{ID: 1, Servers: []model.ServerID{2}},
			},
			Servers: []model.Server{
				{ID: 0, Class: 0, Cluster: 0},
				{ID: 1, Class: 0, Cluster: 0},
				{ID: 2, Class: 1, Cluster: 1},
			},
		},
		Clients: []model.Client{
			{ID: 0, Class: 0, ArrivalRate: 1, PredictedRate: 1, ProcTime: 0.5, CommTime: 0.5, DiskNeed: 1},
			{ID: 1, Class: 0, ArrivalRate: 2, PredictedRate: 2, ProcTime: 0.5, CommTime: 0.5, DiskNeed: 0.5},
		},
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("test scenario invalid: %v", err)
	}
	return s
}

// fullPortion gives client i's whole stream to one server with shares 0.5.
func fullPortion(server model.ServerID) []Portion {
	return []Portion{{Server: server, Alpha: 1, ProcShare: 0.5, CommShare: 0.5}}
}

func TestAssignAndResponseTime(t *testing.T) {
	s := testScenario(t)
	a := New(s)
	if err := a.Assign(0, 0, fullPortion(0)); err != nil {
		t.Fatal(err)
	}
	if !a.Assigned(0) || a.ClusterOf(0) != 0 {
		t.Fatalf("assignment not recorded")
	}
	// μp = 0.5·4/0.5 = 4; λ = 1 → 1/3 per stage → R = 2/3.
	r, err := a.ResponseTime(0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-2.0/3) > 1e-12 {
		t.Fatalf("R = %v, want 2/3", r)
	}
	// Revenue = λ·(4 − 0.5·R) = 1·(4 − 1/3).
	if rev := a.Revenue(0); math.Abs(rev-(4-1.0/3)) > 1e-12 {
		t.Fatalf("revenue = %v", rev)
	}
}

func TestAssignRejectsDoubleAssign(t *testing.T) {
	s := testScenario(t)
	a := New(s)
	if err := a.Assign(0, 0, fullPortion(0)); err != nil {
		t.Fatal(err)
	}
	if err := a.Assign(0, 0, fullPortion(1)); err == nil {
		t.Fatal("double assignment accepted")
	}
}

func TestAssignConstraintViolations(t *testing.T) {
	s := testScenario(t)
	tests := []struct {
		name     string
		cluster  model.ClusterID
		portions []Portion
		wantSub  string
	}{
		{"unknown cluster", 9, fullPortion(0), "unknown cluster"},
		{"server outside cluster", 0, fullPortion(2), "outside cluster"},
		{"alpha not summing", 0, []Portion{{Server: 0, Alpha: 0.5, ProcShare: 0.5, CommShare: 0.5}}, "sum to"},
		{"negative alpha", 0, []Portion{
			{Server: 0, Alpha: -0.5, ProcShare: 0.5, CommShare: 0.5},
			{Server: 1, Alpha: 1.5, ProcShare: 0.9, CommShare: 0.9},
		}, "α"},
		{"duplicate server", 0, []Portion{
			{Server: 0, Alpha: 0.5, ProcShare: 0.3, CommShare: 0.3},
			{Server: 0, Alpha: 0.5, ProcShare: 0.3, CommShare: 0.3},
		}, "duplicate"},
		{"unstable proc share", 0, []Portion{{Server: 0, Alpha: 1, ProcShare: 0.125, CommShare: 0.5}}, "unstable"},
		{"unstable comm share", 0, []Portion{{Server: 0, Alpha: 1, ProcShare: 0.5, CommShare: 0.125}}, "unstable"},
		{"proc budget exceeded", 0, []Portion{{Server: 0, Alpha: 1, ProcShare: 1.2, CommShare: 0.5}}, "budget exceeded"},
		{"unknown server", 0, []Portion{{Server: 77, Alpha: 1, ProcShare: 0.5, CommShare: 0.5}}, "unknown server"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			a := New(s)
			err := a.Assign(0, tt.cluster, tt.portions)
			if err == nil {
				t.Fatal("violation accepted")
			}
			if !strings.Contains(err.Error(), tt.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tt.wantSub)
			}
			if a.Assigned(0) {
				t.Fatal("failed assign mutated state")
			}
		})
	}
}

func TestDiskConstraint(t *testing.T) {
	s := testScenario(t)
	// Server 2 (class 1) has StoreCap 1; client 0 needs disk 1, client 1
	// needs 0.5: together they exceed it.
	a := New(s)
	p := []Portion{{Server: 2, Alpha: 1, ProcShare: 0.9, CommShare: 0.9}}
	if err := a.Assign(0, 1, p); err != nil {
		t.Fatal(err)
	}
	p2 := []Portion{{Server: 2, Alpha: 1, ProcShare: 0.05, CommShare: 0.05}}
	err := a.Assign(1, 1, p2)
	if err == nil {
		t.Fatal("disk overflow accepted")
	}
	if !strings.Contains(err.Error(), "disk") && !strings.Contains(err.Error(), "unstable") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestUnassignRestoresState(t *testing.T) {
	s := testScenario(t)
	a := New(s)
	if err := a.Assign(0, 0, fullPortion(0)); err != nil {
		t.Fatal(err)
	}
	k, ps := a.Unassign(0)
	if k != 0 || len(ps) != 1 {
		t.Fatalf("Unassign returned %v %v", k, ps)
	}
	if a.Assigned(0) || a.Active(0) {
		t.Fatal("state not cleared")
	}
	if a.ProcShareUsed(0) != 0 || a.DiskUsed(0) != 0 || a.ProcUtilization(0) != 0 {
		t.Fatal("server bookkeeping not restored")
	}
	if k, ps := a.Unassign(0); k != Unassigned || ps != nil {
		t.Fatal("double unassign should be a no-op")
	}
}

func TestReassignMovesAndRestoresOnFailure(t *testing.T) {
	s := testScenario(t)
	a := New(s)
	if err := a.Assign(0, 0, fullPortion(0)); err != nil {
		t.Fatal(err)
	}
	if err := a.Reassign(0, 0, fullPortion(1)); err != nil {
		t.Fatal(err)
	}
	if a.Active(0) || !a.Active(1) {
		t.Fatal("reassign did not move the client")
	}
	// Failing reassign (unstable share) must restore the old allocation.
	bad := []Portion{{Server: 0, Alpha: 1, ProcShare: 0.01, CommShare: 0.5}}
	if err := a.Reassign(0, 0, bad); err == nil {
		t.Fatal("bad reassign accepted")
	}
	if !a.Active(1) || a.ClusterOf(0) != 0 {
		t.Fatal("failed reassign did not restore previous allocation")
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestProfitBreakdown(t *testing.T) {
	s := testScenario(t)
	a := New(s)
	if err := a.Assign(0, 0, fullPortion(0)); err != nil {
		t.Fatal(err)
	}
	if err := a.Assign(1, 0, fullPortion(1)); err != nil {
		t.Fatal(err)
	}
	b := a.ProfitBreakdown()
	if b.Assigned != 2 || b.ActiveServers != 2 {
		t.Fatalf("breakdown %+v", b)
	}
	// Client 0 on server 0: R = 2/3, revenue 1·(4−1/3) = 11/3.
	// Client 1 on server 1: μ = 4, λ = 2 → 0.5 per stage, R = 1,
	// revenue 2·(4−0.5) = 7.
	// Costs: server 0: 2 + 1·(1·0.5/4) = 2.125; server 1: 2 + 1·(2·0.5/4) = 2.25.
	wantRev := 11.0/3 + 7
	wantCost := 2.125 + 2.25
	if math.Abs(b.Revenue-wantRev) > 1e-9 {
		t.Fatalf("revenue = %v, want %v", b.Revenue, wantRev)
	}
	if math.Abs(b.EnergyCost-wantCost) > 1e-9 {
		t.Fatalf("cost = %v, want %v", b.EnergyCost, wantCost)
	}
	if math.Abs(a.Profit()-(wantRev-wantCost)) > 1e-9 {
		t.Fatalf("profit = %v", a.Profit())
	}
	if b.Served != 2 {
		t.Fatalf("served = %d", b.Served)
	}
}

func TestInactiveServerCostsNothing(t *testing.T) {
	s := testScenario(t)
	a := New(s)
	if a.ServerCost(0) != 0 {
		t.Fatal("inactive server has cost")
	}
	if a.NumActiveServers() != 0 {
		t.Fatal("no server should be active")
	}
}

func TestClientsOnSorted(t *testing.T) {
	s := testScenario(t)
	a := New(s)
	half := func(alpha float64) []Portion {
		return []Portion{
			{Server: 0, Alpha: alpha, ProcShare: 0.4, CommShare: 0.4},
			{Server: 1, Alpha: 1 - alpha, ProcShare: 0.4, CommShare: 0.4},
		}
	}
	if err := a.Assign(1, 0, half(0.5)); err != nil {
		t.Fatal(err)
	}
	if err := a.Assign(0, 0, half(0.5)); err != nil {
		t.Fatal(err)
	}
	ids := a.ClientsOn(0)
	if len(ids) != 2 || ids[0] != 0 || ids[1] != 1 {
		t.Fatalf("ClientsOn = %v", ids)
	}
	if got := a.ClientsOn(2); got != nil {
		t.Fatalf("empty server returned %v", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	s := testScenario(t)
	a := New(s)
	if err := a.Assign(0, 0, fullPortion(0)); err != nil {
		t.Fatal(err)
	}
	c := a.Clone()
	c.Unassign(0)
	if !a.Assigned(0) {
		t.Fatal("clone mutation leaked into original")
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.Profit() == c.Profit() {
		t.Fatal("profits should differ after divergence")
	}
}

// TestCloneLedgerIndependence clones an allocation whose ledger is
// mid-flight (dirty entries pending) and checks that mutations on either
// side never leak into the other's cached profit state — a clone sharing
// cache arrays by accident would corrupt the solver's multi-start loop.
func TestCloneLedgerIndependence(t *testing.T) {
	s := testScenario(t)
	a := New(s)
	if err := a.Assign(0, 0, fullPortion(0)); err != nil {
		t.Fatal(err)
	}
	// Clone while client 0 is still dirty (no profit evaluation yet).
	c := a.Clone()

	// Diverge: the original drops its client, the clone gains one.
	a.Unassign(0)
	if err := c.Assign(1, 0, fullPortion(1)); err != nil {
		t.Fatal(err)
	}

	wantA, gotA := a.RecomputeBreakdown(), a.ProfitBreakdown()
	wantC, gotC := c.RecomputeBreakdown(), c.ProfitBreakdown()
	if math.Abs(gotA.Profit-wantA.Profit) > 1e-12 || gotA.Assigned != 0 {
		t.Fatalf("original ledger corrupted by clone divergence: %+v vs %+v", gotA, wantA)
	}
	if math.Abs(gotC.Profit-wantC.Profit) > 1e-12 || gotC.Assigned != 2 {
		t.Fatalf("clone ledger corrupted by original divergence: %+v vs %+v", gotC, wantC)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}

	// Mutating the original after the clone has settled must not dirty
	// the clone, and vice versa.
	if err := a.Assign(0, 1, []Portion{{Server: 2, Alpha: 1, ProcShare: 0.9, CommShare: 0.9}}); err != nil {
		t.Fatal(err)
	}
	c.Unassign(1)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestClusterTxnDeltaExact: a cluster-scoped transaction's Delta equals
// the difference of from-scratch profit recomputes.
func TestClusterTxnDeltaExact(t *testing.T) {
	s := testScenario(t)
	a := New(s)
	if err := a.Assign(0, 0, fullPortion(0)); err != nil {
		t.Fatal(err)
	}
	if err := a.Assign(1, 0, fullPortion(1)); err != nil {
		t.Fatal(err)
	}
	before := a.RecomputeBreakdown().Profit

	txn := a.BeginClusters(0)
	txn.Capture(1)
	a.Unassign(1)
	after := a.RecomputeBreakdown().Profit
	if delta := txn.Delta(); math.Abs(delta-(after-before)) > 1e-12 {
		t.Fatalf("delta = %v, want %v", delta, after-before)
	}
	if err := txn.Rollback(); err != nil {
		t.Fatal(err)
	}
	if p := a.RecomputeBreakdown().Profit; math.Abs(p-before) > 1e-12 {
		t.Fatalf("profit after rollback = %v, want %v", p, before)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestTxnRollbackReportsFailedRestore: when a captured placement no longer
// fits — here the client's rates grew a millionfold behind the
// allocation's back, so the stability check rejects it — Rollback returns
// an error naming the client instead of panicking, and the client stays
// unassigned.
func TestTxnRollbackReportsFailedRestore(t *testing.T) {
	s := testScenario(t)
	a := New(s)
	if err := a.Assign(0, 0, fullPortion(0)); err != nil {
		t.Fatal(err)
	}
	txn := a.Begin()
	txn.Capture(0)
	a.Unassign(0)
	s.Clients[0].ArrivalRate *= 1e6
	s.Clients[0].PredictedRate *= 1e6

	err := txn.Rollback()
	if err == nil || !strings.Contains(err.Error(), "client 0") {
		t.Fatalf("Rollback err = %v, want an error naming client 0", err)
	}
	if a.Assigned(0) {
		t.Fatal("client 0 assigned after a failed restore")
	}
}

// TestRevenueErrDistinguishesZeroCases: unassigned and saturated clients
// both price at zero but must be distinguishable for the local search.
func TestRevenueErrDistinguishesZeroCases(t *testing.T) {
	s := testScenario(t)
	a := New(s)
	if _, err := a.revenueErr(0); !errors.Is(err, errUnassigned) {
		t.Fatalf("err = %v, want errUnassigned", err)
	}
	if err := a.Assign(0, 0, fullPortion(0)); err != nil {
		t.Fatal(err)
	}
	rev, err := a.revenueErr(0)
	if err != nil || rev <= 0 {
		t.Fatalf("rev = %v, err = %v", rev, err)
	}
	// Saturate the portion behind the allocator's back: quadruple the
	// predicted rate so μ = φ·C/t no longer exceeds α·λ̃.
	s.Clients[0].PredictedRate = 100
	a.portions[0][0].Alpha = 1 // re-dirty the client to force recompute
	a.markClientDirty(0, 0)
	a.clientDirty[0] = true
	if _, err := a.revenueErr(0); !errors.Is(err, errSaturated) {
		t.Fatalf("err = %v, want errSaturated", err)
	}
	if a.Revenue(0) != 0 {
		t.Fatal("saturated client should price at zero")
	}
	if b := a.ProfitBreakdown(); b.Saturated != 1 || b.Served != 0 {
		t.Fatalf("breakdown %+v", b)
	}
	s.Clients[0].PredictedRate = 1 // restore the shared scenario
}

func TestPortionsReturnsCopy(t *testing.T) {
	s := testScenario(t)
	a := New(s)
	if err := a.Assign(0, 0, fullPortion(0)); err != nil {
		t.Fatal(err)
	}
	ps := a.Portions(0)
	ps[0].Alpha = 0.1
	if got := a.Portions(0); got[0].Alpha != 1 {
		t.Fatal("Portions exposed internal state")
	}
	if a.Portions(1) != nil {
		t.Fatal("unassigned client should have nil portions")
	}
}

func TestPreAllocatedState(t *testing.T) {
	s := testScenario(t)
	s.Cloud.Servers[0].PreProcShare = 0.8
	s.Cloud.Servers[0].PreDisk = 3.5
	a := New(s)
	if a.ProcShareUsed(0) != 0.8 || a.DiskUsed(0) != 3.5 {
		t.Fatal("pre-allocated state not loaded")
	}
	// Only 0.2 processing share left: a 0.5 share must be rejected.
	if err := a.Assign(0, 0, fullPortion(0)); err == nil {
		t.Fatal("pre-allocated budget ignored")
	}
	// Disk: 3.5 used + 1 needed > 4.
	p := []Portion{{Server: 0, Alpha: 1, ProcShare: 0.19, CommShare: 0.5}}
	if err := a.Assign(0, 0, p); err == nil {
		t.Fatal("pre-allocated disk ignored")
	}
}

func TestResponseTimeUnassigned(t *testing.T) {
	s := testScenario(t)
	a := New(s)
	if _, err := a.ResponseTime(0); err == nil {
		t.Fatal("unassigned response time should error")
	}
	if rev := a.Revenue(0); rev != 0 {
		t.Fatalf("unassigned revenue = %v", rev)
	}
}

func TestValidateDetectsDrift(t *testing.T) {
	s := testScenario(t)
	a := New(s)
	if err := a.Assign(0, 0, fullPortion(0)); err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	a.servers[0].procShare += 0.3 // corrupt bookkeeping
	if err := a.Validate(); err == nil {
		t.Fatal("drifted bookkeeping accepted")
	}
}
