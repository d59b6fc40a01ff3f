package alloc

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/workload"
)

// mutateAndMeasureGain is the reference the View must reproduce: the
// exact marginal gain of placing client i on (k, portions), measured by
// actually unassigning, assigning, reading revenue and server costs, and
// undoing everything.
func mutateAndMeasureGain(a *Allocation, i model.ClientID, k model.ClusterID, portions []Portion) (float64, bool) {
	prevK, prev := a.Unassign(i)
	restore := func() {
		if prevK != Unassigned {
			if err := a.Assign(i, prevK, prev); err != nil {
				panic(err)
			}
		}
	}
	serverCost := func() float64 {
		var cost float64
		seen := make(map[model.ServerID]struct{}, len(portions))
		for _, p := range portions {
			if _, ok := seen[p.Server]; ok {
				continue
			}
			seen[p.Server] = struct{}{}
			cost += a.ServerCost(p.Server)
		}
		return cost
	}
	costBefore := serverCost()
	if err := a.Assign(i, k, portions); err != nil {
		restore()
		return 0, false
	}
	rev, revErr := a.revenueErr(i)
	gain := rev - (serverCost() - costBefore)
	a.Unassign(i)
	restore()
	if revErr != nil {
		return 0, false
	}
	return gain, true
}

// TestPlacementGainMatchesMutateAndMeasure drives random allocation
// states and random (sometimes infeasible) candidates and checks that
// the read-only View evaluation agrees exactly — same feasibility
// verdict, same gain — with the mutate-and-measure reference, and that
// evaluating through the View changes nothing.
func TestPlacementGainMatchesMutateAndMeasure(t *testing.T) {
	wcfg := workload.DefaultConfig()
	wcfg.NumClients = 25
	wcfg.Seed = 7
	scen, err := workload.Generate(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	a := New(scen)
	for i := range scen.Clients {
		id := model.ClientID(i)
		if k, ps := randomFeasiblePortions(rng, a, id); ps != nil {
			if err := a.Assign(id, k, ps); err != nil {
				continue
			}
		}
	}
	if a.NumAssigned() == 0 {
		t.Fatal("no clients assigned; scenario too tight for the test")
	}

	var scratch GainScratch
	var checked int
	for trial := 0; trial < 2000; trial++ {
		i := model.ClientID(rng.Intn(scen.NumClients()))

		// Build a candidate against the state without i, like the real
		// scoring path does.
		b := a.Clone()
		b.Unassign(i)
		k, cand := randomFeasiblePortions(rng, b, i)
		if cand == nil {
			continue
		}
		// Occasionally corrupt the candidate to exercise the reject paths.
		switch rng.Intn(8) {
		case 0:
			cand[0].Alpha *= 1.5 // Σα ≠ 1
		case 1:
			cand[0].ProcShare = 0 // unstable share
		case 2:
			cand = append(cand, cand[0]) // duplicate server
		case 3:
			k = model.ClusterID((int(k) + 1) % scen.Cloud.NumClusters()) // wrong cluster
		}

		view := a.Excluding(i)
		gotGain, gotOK := view.PlacementGain(k, cand, &scratch)
		wantGain, wantOK := mutateAndMeasureGain(a, i, k, cand)
		if gotOK != wantOK {
			t.Fatalf("trial %d: feasibility mismatch: view %v, reference %v (client %d cluster %d)",
				trial, gotOK, wantOK, i, k)
		}
		if !gotOK {
			continue
		}
		checked++
		if math.Abs(gotGain-wantGain) > 1e-9*(1+math.Abs(wantGain)) {
			t.Fatalf("trial %d: gain mismatch: view %v, reference %v (client %d cluster %d)",
				trial, gotGain, wantGain, i, k)
		}
	}
	if checked < 50 {
		t.Fatalf("only %d feasible candidates exercised; test too weak", checked)
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("allocation corrupted by read-only evaluation: %v", err)
	}
}

// TestExcludingViewMatchesUnassign checks the View's read surface equals
// the state an actual Unassign would produce.
func TestExcludingViewMatchesUnassign(t *testing.T) {
	wcfg := workload.DefaultConfig()
	wcfg.NumClients = 15
	wcfg.Seed = 3
	scen, err := workload.Generate(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	a := New(scen)
	for i := range scen.Clients {
		id := model.ClientID(i)
		if k, ps := randomFeasiblePortions(rng, a, id); ps != nil {
			_ = a.Assign(id, k, ps)
		}
	}
	for i := range scen.Clients {
		id := model.ClientID(i)
		view := a.Excluding(id)
		b := a.Clone()
		b.Unassign(id)
		for j := range scen.Cloud.Servers {
			sid := model.ServerID(j)
			if got, want := view.ProcShareUsed(sid), b.ProcShareUsed(sid); got != want {
				t.Fatalf("client %d server %d: ProcShareUsed %v != %v", id, sid, got, want)
			}
			if got, want := view.CommShareUsed(sid), b.CommShareUsed(sid); got != want {
				t.Fatalf("client %d server %d: CommShareUsed %v != %v", id, sid, got, want)
			}
			if got, want := view.DiskUsed(sid), b.DiskUsed(sid); got != want {
				t.Fatalf("client %d server %d: DiskUsed %v != %v", id, sid, got, want)
			}
			if got, want := view.Active(sid), b.Active(sid); got != want {
				t.Fatalf("client %d server %d: Active %v != %v", id, sid, got, want)
			}
			if got, want := view.procLoad(sid), b.ProcUtilization(sid); got != want {
				t.Fatalf("client %d server %d: procLoad %v != %v", id, sid, got, want)
			}
		}
	}
}

// TestClusterVersionTracking checks the dirty-cluster contract: real
// mutations advance the touched cluster's version, rolled-back
// transactions restore it, and commits keep it.
func TestClusterVersionTracking(t *testing.T) {
	scen := testScenario(t)
	a := New(scen)
	v0, v1 := a.ClusterVersion(0), a.ClusterVersion(1)

	if err := a.Assign(0, 0, fullPortion(0)); err != nil {
		t.Fatal(err)
	}
	if a.ClusterVersion(0) == v0 {
		t.Fatal("Assign did not advance cluster 0's version")
	}
	if a.ClusterVersion(1) != v1 {
		t.Fatal("Assign advanced an untouched cluster's version")
	}

	// A rolled-back transaction must not register as a change.
	before := a.ClusterVersion(0)
	all := []model.ClusterID{0, 1}
	sum := a.ClusterVersionSumOf(all)
	txn := a.BeginClusters(0)
	txn.Capture(0)
	a.Unassign(0)
	if err := a.Assign(0, 0, fullPortion(1)); err != nil {
		t.Fatal(err)
	}
	if err := txn.Rollback(); err != nil {
		t.Fatal(err)
	}
	if a.ClusterVersion(0) != before {
		t.Fatalf("rollback left cluster 0 at version %d, want %d", a.ClusterVersion(0), before)
	}
	if a.ClusterVersionSumOf(all) != sum {
		t.Fatal("rollback changed the version sum")
	}
	if a.ClusterOf(0) != 0 {
		t.Fatal("rollback did not restore the placement")
	}

	// A committed transaction keeps the advanced version.
	txn = a.Begin()
	txn.Capture(0)
	a.Unassign(0)
	if err := a.Assign(0, 0, fullPortion(1)); err != nil {
		t.Fatal(err)
	}
	txn.Commit()
	if a.ClusterVersion(0) == before {
		t.Fatal("commit did not keep the advanced version")
	}

	// Clones carry the counters.
	c := a.Clone()
	if c.ClusterVersion(0) != a.ClusterVersion(0) || c.ClusterVersionSumOf(all) != a.ClusterVersionSumOf(all) {
		t.Fatal("clone dropped version counters")
	}
}
