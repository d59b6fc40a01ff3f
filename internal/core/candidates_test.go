package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/alloc"
	"repro/internal/model"
	"repro/internal/workload"
)

// TestTopKExactFallbackEquiv is the exactness-fallback acceptance
// criterion: CandidateClusters = K (or more) must reproduce the unpruned
// solver bit-for-bit — same assignments, same portions, ledger-equal
// profit.
func TestTopKExactFallbackEquiv(t *testing.T) {
	scen := smallScenario(t, 60, 9)
	numK := scen.Cloud.NumClusters()
	exact := newTestSolver(t, scen, nil)
	aExact, stExact, err := exact.Solve()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{numK, numK + 10} {
		s := newTestSolver(t, scen, func(c *Config) { c.CandidateClusters = k })
		a, st, err := s.Solve()
		if err != nil {
			t.Fatal(err)
		}
		sameAssignments(t, scen, aExact, a, "k=K fallback")
		if !ulpEqual(stExact.FinalProfit, st.FinalProfit) {
			t.Fatalf("k=%d: profit %v vs exact %v", k, st.FinalProfit, stExact.FinalProfit)
		}
	}
}

// TestScoreClientIndexedEquiv checks the reassignment scoring pruning at
// its exact operating point: with the index active and k = K, scoreClient
// must reach the same action as the full scan for every client — the
// early exit only ever skips clusters that provably cannot change it.
// With k < K it checks the one-sided guarantees the pruning does promise.
func TestScoreClientIndexedEquiv(t *testing.T) {
	wcfg := workload.DefaultConfig()
	wcfg.NumClusters = 12
	wcfg.NumClients = 80
	wcfg.Seed = 17
	scen, err := workload.Generate(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	numK := scen.Cloud.NumClusters()

	for _, admission := range []bool{true, false} {
		full := newTestSolver(t, scen, func(c *Config) { c.AdmissionControl = admission })
		atK := newTestSolver(t, scen, func(c *Config) {
			c.AdmissionControl = admission
			c.CandidateClusters = numK
		})
		pruned := newTestSolver(t, scen, func(c *Config) {
			c.AdmissionControl = admission
			c.CandidateClusters = 3
		})

		a, err := full.InitialSolution(rand.New(rand.NewSource(3)))
		if err != nil {
			t.Fatal(err)
		}
		ix := alloc.NewIndex(a)
		ix.Refresh()
		outGain := math.Inf(-1)
		if admission {
			outGain = 0
		}

		var wsFull, wsIx, wsPruned distScratch
		var sawPruning bool
		for ci := 0; ci < scen.NumClients(); ci++ {
			i := model.ClientID(ci)
			rf := full.scoreClient(a, i, outGain, &wsFull, nil, full.all)
			rx := atK.scoreClient(a, i, outGain, &wsIx, ix, atK.all)

			if rf.hasCand != rx.hasCand {
				t.Fatalf("admission=%v client %d: full hasCand=%v, indexed k=K hasCand=%v",
					admission, i, rf.hasCand, rx.hasCand)
			}
			// mark.best may differ when no action results (the indexed path
			// stops refining its non-actionable best once the bound says no
			// remaining cluster can produce a move); when there IS an action
			// the target must match, checked below via cand.toK.
			if rf.hasCand {
				if rf.cand.toK != rx.cand.toK || rf.cand.fromK != rx.cand.fromK {
					t.Fatalf("admission=%v client %d: action %d→%d vs %d→%d", admission, i,
						rf.cand.fromK, rf.cand.toK, rx.cand.fromK, rx.cand.toK)
				}
				if !ulpEqual(rf.cand.delta, rx.cand.delta) {
					t.Fatalf("admission=%v client %d: delta %v vs %v",
						admission, i, rf.cand.delta, rx.cand.delta)
				}
				if len(rf.cand.portions) != len(rx.cand.portions) {
					t.Fatalf("admission=%v client %d: %d vs %d portions",
						admission, i, len(rf.cand.portions), len(rx.cand.portions))
				}
				for p := range rf.cand.portions {
					if rf.cand.portions[p] != rx.cand.portions[p] {
						t.Fatalf("admission=%v client %d portion %d: %+v vs %+v",
							admission, i, p, rf.cand.portions[p], rx.cand.portions[p])
					}
				}
			}
			if rx.evaluated+rx.pruned != numK {
				t.Fatalf("client %d: evaluated %d + pruned %d != %d clusters",
					i, rx.evaluated, rx.pruned, numK)
			}
			if rx.pruned > 0 {
				sawPruning = true
			}

			// k < K: one-sided guarantees only — a pruned candidate implies
			// a full candidate at least as good.
			rp := pruned.scoreClient(a, i, outGain, &wsPruned, ix, pruned.all)
			if rp.hasCand {
				if !rf.hasCand {
					t.Fatalf("admission=%v client %d: pruned found a candidate the full scan did not",
						admission, i)
				}
				if rp.cand.delta > rf.cand.delta && !ulpEqual(rp.cand.delta, rf.cand.delta) {
					t.Fatalf("admission=%v client %d: pruned delta %v beats full %v",
						admission, i, rp.cand.delta, rf.cand.delta)
				}
			}
		}
		if !sawPruning {
			t.Fatal("indexed k=K scoring never pruned a cluster; early exit untested")
		}
	}
}

// TestPrunedSolveWorkerEquiv: the pruned solve stays deterministic at any
// worker count (scoring is a pure function of the frozen state; pruning
// and the index refresh happen serially).
func TestPrunedSolveWorkerEquiv(t *testing.T) {
	wcfg := workload.DefaultConfig()
	wcfg.NumClusters = 8
	wcfg.NumClients = 80
	wcfg.Seed = 29
	scen, err := workload.Generate(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(workers int) func(*Config) {
		return func(c *Config) {
			c.Workers = workers
			c.CandidateClusters = 3
		}
	}
	s1 := newTestSolver(t, scen, mutate(1))
	sN := newTestSolver(t, scen, mutate(8))
	a1, st1, err := s1.Solve()
	if err != nil {
		t.Fatal(err)
	}
	aN, stN, err := sN.Solve()
	if err != nil {
		t.Fatal(err)
	}
	sameAssignments(t, scen, a1, aN, "pruned solve")
	sameCounts(t, "pruned solve", st1, stN)
	if !ulpEqual(st1.FinalProfit, stN.FinalProfit) {
		t.Fatalf("final profit %v vs %v", st1.FinalProfit, stN.FinalProfit)
	}
	if err := aN.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestPrunedSolveQuality: the default-k profit-loss budget, scaled down
// to a unit-test instance (the 10k-client acceptance check runs in the
// scale experiment and CI smoke job).
func TestPrunedSolveQuality(t *testing.T) {
	wcfg := workload.DefaultConfig()
	wcfg.NumClusters = 10
	wcfg.NumClients = 150
	wcfg.Seed = 31
	scen, err := workload.Generate(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	exact := newTestSolver(t, scen, nil)
	_, stExact, err := exact.Solve()
	if err != nil {
		t.Fatal(err)
	}
	pruned := newTestSolver(t, scen, func(c *Config) { c.CandidateClusters = 4 })
	a, st, err := pruned.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if stExact.FinalProfit <= 0 {
		t.Fatalf("exact profit %v not positive; instance unusable", stExact.FinalProfit)
	}
	if loss := (stExact.FinalProfit - st.FinalProfit) / stExact.FinalProfit; loss > 0.02 {
		t.Fatalf("top-4 pruning lost %.2f%% profit (exact %v, pruned %v)",
			loss*100, stExact.FinalProfit, st.FinalProfit)
	}
}
