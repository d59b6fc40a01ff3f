package alloc

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/workload"
)

// buildBusyAllocation assigns as many clients as the dice allow so the
// index sees a realistically fragmented state.
func buildBusyAllocation(t *testing.T, scen *model.Scenario, seed int64) *Allocation {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	a := New(scen)
	for i := range scen.Clients {
		id := model.ClientID(i)
		if k, ps := randomFeasiblePortions(rng, a, id); ps != nil {
			_ = a.Assign(id, k, ps)
		}
	}
	if a.NumAssigned() == 0 {
		t.Fatal("no clients assigned; scenario too tight for the test")
	}
	return a
}

// TestGainUpperBoundIsSound drives random allocation states and random
// feasible candidates and checks the index invariant the pruning relies
// on: whenever the exact PlacementGain accepts a candidate on a cluster
// the client holds no resources in, the index must not have declared the
// cluster infeasible, and its bound must dominate the exact gain.
func TestGainUpperBoundIsSound(t *testing.T) {
	wcfg := workload.DefaultConfig()
	wcfg.NumClients = 25
	wcfg.Seed = 7
	scen, err := workload.Generate(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	a := buildBusyAllocation(t, scen, 13)
	ix := NewIndex(a)
	ix.Refresh()

	var scratch GainScratch
	var checked int
	for trial := 0; trial < 4000; trial++ {
		i := model.ClientID(rng.Intn(scen.NumClients()))

		// Build a candidate against the state without i, like the real
		// scoring path does.
		b := a.Clone()
		b.Unassign(i)
		k, cand := randomFeasiblePortions(rng, b, i)
		if cand == nil {
			continue
		}
		if int(k) == a.ClusterOf(i) {
			// The bound's contract excludes the client's own cluster: the
			// exclusion view frees the client's shares there, and the raw
			// aggregates cannot see that headroom.
			continue
		}
		view := a.Excluding(i)
		gain, ok := view.PlacementGain(k, cand, &scratch)
		if !ok {
			continue
		}
		checked++
		bound, feasible := ix.GainUpperBound(i, k)
		if !feasible {
			t.Fatalf("trial %d: index declared cluster %d infeasible for client %d, but exact gain %v exists",
				trial, k, i, gain)
		}
		if bound < gain-1e-9*(1+math.Abs(gain)) {
			t.Fatalf("trial %d: bound %v below exact gain %v (client %d cluster %d)",
				trial, bound, gain, i, k)
		}
	}
	if checked < 100 {
		t.Fatalf("only %d feasible candidates exercised; test too weak", checked)
	}
}

// TestIndexRefreshMatchesRebuild checks the version-stamped lazy refresh:
// after an arbitrary mutation history, Refresh must reproduce exactly the
// aggregates a from-scratch index computes.
func TestIndexRefreshMatchesRebuild(t *testing.T) {
	wcfg := workload.DefaultConfig()
	wcfg.NumClients = 20
	wcfg.Seed = 3
	scen, err := workload.Generate(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	a := New(scen)
	ix := NewIndex(a)
	ix.Refresh()

	for op := 0; op < 200; op++ {
		i := model.ClientID(rng.Intn(scen.NumClients()))
		if a.Assigned(i) {
			a.Unassign(i)
		} else if k, ps := randomFeasiblePortions(rng, a, i); ps != nil {
			_ = a.Assign(i, k, ps)
		}
		if op%17 == 0 {
			a.Reset()
		}
		ix.Refresh()
		fresh := NewIndex(a)
		fresh.Refresh()
		for k := range ix.aggs {
			if ix.aggs[k] != fresh.aggs[k] {
				t.Fatalf("op %d: cluster %d aggregates diverged: incremental %+v, rebuild %+v",
					op, k, ix.aggs[k], fresh.aggs[k])
			}
			if ix.statics[k] != fresh.statics[k] {
				t.Fatalf("op %d: cluster %d statics diverged", op, k)
			}
		}
	}
}

// TestIndexRefreshSkipsCleanClusters checks the ledger-version contract:
// a refresh after mutations in one cluster must not recompute (or change)
// any other cluster's row.
func TestIndexRefreshSkipsCleanClusters(t *testing.T) {
	scen := testScenario(t)
	a := New(scen)
	ix := NewIndex(a)
	ix.Refresh()
	agg1 := ix.aggs[1]

	if err := a.Assign(0, 0, fullPortion(0)); err != nil {
		t.Fatal(err)
	}
	ix.Refresh()
	if ix.aggs[1] != agg1 {
		t.Fatal("refresh touched an unmutated cluster's aggregates")
	}
	if ix.aggs[0].active != 1 {
		t.Fatalf("refresh missed the mutated cluster: active = %d, want 1", ix.aggs[0].active)
	}

	// A rolled-back transaction restores the version counter, so the next
	// refresh must treat the cluster as clean.
	txn := a.BeginClusters(0)
	txn.Capture(1)
	if err := a.Assign(1, 0, fullPortion(1)); err != nil {
		t.Fatal(err)
	}
	if err := txn.Rollback(); err != nil {
		t.Fatal(err)
	}
	before := ix.aggs[0]
	ix.Refresh()
	if ix.aggs[0] != before {
		t.Fatal("refresh after rollback recomputed to a different state")
	}
}

// TestTopKOrderAndSubset checks the deterministic candidate order (bound
// descending, cluster ascending) and the subset restriction.
func TestTopKOrderAndSubset(t *testing.T) {
	wcfg := workload.DefaultConfig()
	wcfg.NumClients = 10
	wcfg.Seed = 21
	scen, err := workload.Generate(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	a := buildBusyAllocation(t, scen, 23)
	ix := NewIndex(a)
	ix.Refresh()
	numK := scen.Cloud.NumClusters()

	for i := 0; i < scen.NumClients(); i++ {
		id := model.ClientID(i)
		// Reference: all feasible bounds, fully sorted.
		var all []Candidate
		for k := 0; k < numK; k++ {
			if b, ok := ix.GainUpperBound(id, model.ClusterID(k)); ok {
				all = append(all, Candidate{Cluster: model.ClusterID(k), Bound: b})
			}
		}
		for x := 1; x < len(all); x++ {
			for y := x; y > 0; y-- {
				p, q := &all[y-1], &all[y]
				if q.Bound > p.Bound || (q.Bound == p.Bound && q.Cluster < p.Cluster) {
					*p, *q = *q, *p
				} else {
					break
				}
			}
		}
		for k := 1; k <= numK; k++ {
			got := ix.TopK(id, k, nil, nil)
			want := all
			if len(want) > k {
				want = want[:k]
			}
			if len(got) != len(want) {
				t.Fatalf("client %d top-%d: got %d candidates, want %d", id, k, len(got), len(want))
			}
			for idx := range got {
				if got[idx] != want[idx] {
					t.Fatalf("client %d top-%d[%d]: got %+v, want %+v", id, k, idx, got[idx], want[idx])
				}
			}
		}
		// Subset restriction: only the listed clusters may appear.
		subset := []model.ClusterID{0, model.ClusterID(numK - 1)}
		for _, c := range ix.TopK(id, numK, subset, nil) {
			if c.Cluster != 0 && c.Cluster != model.ClusterID(numK-1) {
				t.Fatalf("client %d: subset scan returned out-of-subset cluster %d", id, c.Cluster)
			}
		}
	}
}

// TestClusterVersionSumOf checks the version fold against the counters it
// folds.
func TestClusterVersionSumOf(t *testing.T) {
	scen := testScenario(t)
	a := New(scen)
	if err := a.Assign(0, 0, fullPortion(0)); err != nil {
		t.Fatal(err)
	}
	all := []model.ClusterID{0, 1}
	if got, want := a.ClusterVersionSumOf(all), a.ClusterVersion(0)+a.ClusterVersion(1); got != want {
		t.Fatalf("ClusterVersionSumOf(all) = %d, want %d", got, want)
	}
	only0 := a.ClusterVersionSumOf([]model.ClusterID{0})
	if only0 != a.ClusterVersion(0) {
		t.Fatalf("ClusterVersionSumOf([0]) = %d, want %d", only0, a.ClusterVersion(0))
	}
}

// TestBeginClustersScope checks the multi-cluster transaction: Delta sees
// changes in every scoped cluster, rollback restores placements and the
// scoped version counters, commit keeps them.
func TestBeginClustersScope(t *testing.T) {
	scen := testScenario(t)
	a := New(scen)
	if err := a.Assign(0, 0, fullPortion(0)); err != nil {
		t.Fatal(err)
	}
	v0, v1 := a.ClusterVersion(0), a.ClusterVersion(1)
	profit := a.Profit()

	txn := a.BeginClusters(0, 1)
	txn.Capture(0)
	txn.Capture(1)
	a.Unassign(0)
	if err := a.Assign(1, 1, []Portion{{Server: 2, Alpha: 1, ProcShare: 0.9, CommShare: 0.9}}); err != nil {
		t.Fatal(err)
	}
	wholeDelta := a.Profit() - profit
	if d := txn.Delta(); math.Abs(d-wholeDelta) > 1e-9*(1+math.Abs(wholeDelta)) {
		t.Fatalf("scoped Delta %v, whole-cloud delta %v", d, wholeDelta)
	}
	if err := txn.Rollback(); err != nil {
		t.Fatal(err)
	}
	if a.ClusterOf(0) != 0 || a.Assigned(1) {
		t.Fatal("rollback did not restore the placements")
	}
	if a.ClusterVersion(0) != v0 || a.ClusterVersion(1) != v1 {
		t.Fatal("rollback did not restore the scoped version counters")
	}
	if got := a.Profit(); math.Abs(got-profit) > 1e-9*(1+math.Abs(profit)) {
		t.Fatalf("rollback profit %v, want %v", got, profit)
	}

	txn = a.BeginClusters(0, 1)
	txn.Capture(0)
	a.Unassign(0)
	txn.Commit()
	if a.Assigned(0) {
		t.Fatal("commit did not keep the mutation")
	}
	if a.ClusterVersion(0) == v0 {
		t.Fatal("commit did not keep the advanced version counter")
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}
