package baseline

import (
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

func TestSolveExhaustiveTinyInstance(t *testing.T) {
	// The heuristic tracks the polished exhaustive optimum closely on
	// average (the paper's ≤9%-gap claim in miniature); single adversarial
	// seeds may dip lower.
	var ratioSum float64
	const seeds = 5
	for s := int64(0); s < seeds; s++ {
		wcfg := workload.DefaultConfig()
		wcfg.NumClients = 4
		wcfg.NumClusters = 3
		wcfg.MinServersPerCluster = 2
		wcfg.MaxServersPerCluster = 3
		wcfg.Seed = 15 + s
		scen, err := workload.Generate(wcfg)
		if err != nil {
			t.Fatal(err)
		}
		exh, err := SolveExhaustive(scen, core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := exh.Validate(); err != nil {
			t.Fatal(err)
		}
		solver, err := core.NewSolver(scen, core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		prop, _, err := solver.Solve()
		if err != nil {
			t.Fatal(err)
		}
		ratio := prop.Profit() / exh.Profit()
		if ratio < 0.75 {
			t.Errorf("seed %d: heuristic %v far below exhaustive %v", wcfg.Seed, prop.Profit(), exh.Profit())
		}
		if ratio > 1+1e-6 {
			t.Errorf("seed %d: exhaustive %v below heuristic %v — enumeration bug",
				wcfg.Seed, exh.Profit(), prop.Profit())
		}
		ratioSum += ratio
	}
	if mean := ratioSum / seeds; mean < 0.9 {
		t.Fatalf("mean heuristic/exhaustive ratio %v below the paper's band", mean)
	}
}

func TestSolveExhaustiveRejectsLargeInstance(t *testing.T) {
	scen := genScenario(t, maxExhaustiveClients+1, 16)
	if _, err := SolveExhaustive(scen, core.DefaultConfig()); err == nil {
		t.Fatal("oversized instance accepted")
	}
}
