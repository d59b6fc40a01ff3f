// Package experiment reproduces the paper's evaluation (Section VI):
// the Figure 4 comparison (proposed vs modified PS vs the Monte-Carlo
// envelope), the Figure 5 worst-case envelope, the complexity/scaling
// measurements the paper claims, plus four extensions: discrete-event
// validation of the analytical model, ablations of the heuristic's
// phases, decision policies under drift and forecast quality. Artefacts
// is the table of all seven; the scale ladder (RunScale) stands apart.
package experiment

import (
	"fmt"
	"math"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/parallel"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// generate builds one scenario from the default workload template with
// the given client count and seed (the paper's Section VI instance
// generator).
func generate(clients int, seed int64) (*model.Scenario, error) {
	wcfg := workload.DefaultConfig()
	wcfg.NumClients = clients
	wcfg.Seed = seed
	return workload.Generate(wcfg)
}

// solverConfig is the proposed heuristic at its defaults, reporting to tel.
func solverConfig(tel *telemetry.Set) core.Config {
	cfg := core.DefaultConfig()
	cfg.Telemetry = tel
	return cfg
}

// scenarioStats are the profits measured on one random scenario. Raw
// profits, not normalized; Best is the normalization denominator (the
// best profit any method found, the paper's "best solution found").
type scenarioStats struct {
	Proposed    float64
	PS          float64
	MCBestOpt   float64
	MCWorstOpt  float64
	MCBestInit  float64
	MCWorstInit float64
	Best        float64
}

// sweepPoint aggregates the scenarios of one client count.
type sweepPoint struct {
	Clients int
	Stats   []scenarioStats
}

// runSweep evaluates every method on every (count, scenario) pair:
// sz.scenarios per count (sz.scenariosAtMax at the largest), scenario s
// of count c seeded seed + 1000c + s.
func runSweep(sz sizes, seed int64, tel *telemetry.Set) ([]sweepPoint, error) {
	maxCount := 0
	for _, c := range sz.counts {
		maxCount = max(maxCount, c)
	}
	points := make([]sweepPoint, len(sz.counts))
	type job struct {
		point, slot int
		clients     int
		seed        int64
	}
	var jobs []job
	for pi, c := range sz.counts {
		n := sz.scenarios
		if c == maxCount {
			n = sz.scenariosAtMax
		}
		points[pi] = sweepPoint{Clients: c, Stats: make([]scenarioStats, n)}
		for s := 0; s < n; s++ {
			jobs = append(jobs, job{
				point:   pi,
				slot:    s,
				clients: c,
				seed:    seed + int64(c)*1000 + int64(s),
			})
		}
	}

	// Scenario jobs fan out over the shared engine. Each job writes its
	// own (point, slot) cell and every job runs even when another fails,
	// so the sweep's output — including which error is reported, the
	// lowest-indexed one — does not depend on the worker count.
	err := parallel.ForErr(parallel.Options{Workers: sz.workers, Tel: tel, Phase: "sweep"},
		len(jobs), func(_, idx int) error {
			jb := jobs[idx]
			st, err := runScenario(sz, tel, jb.clients, jb.seed)
			if err != nil {
				return fmt.Errorf("experiment: clients=%d seed=%d: %w", jb.clients, jb.seed, err)
			}
			points[jb.point].Stats[jb.slot] = st
			return nil
		})
	if err != nil {
		return nil, err
	}
	return points, nil
}

// runScenario measures every method on one random scenario.
func runScenario(sz sizes, tel *telemetry.Set, clients int, seed int64) (scenarioStats, error) {
	scen, err := generate(clients, seed)
	if err != nil {
		return scenarioStats{}, err
	}
	solver, err := core.NewSolver(scen, solverConfig(tel))
	if err != nil {
		return scenarioStats{}, err
	}
	proposed, _, err := solver.Solve()
	if err != nil {
		return scenarioStats{}, err
	}
	ps, err := baseline.SolveModifiedPS(scen, baseline.DefaultPSConfig())
	if err != nil {
		return scenarioStats{}, err
	}
	mcCfg := baseline.MCConfig{
		Draws:           sz.draws,
		Seed:            seed,
		MaxSearchPasses: sz.passes,
		Telemetry:       tel,
	}
	env, err := baseline.RunMonteCarlo(scen, mcCfg)
	if err != nil {
		return scenarioStats{}, err
	}
	st := scenarioStats{
		Proposed:    proposed.Profit(),
		PS:          ps.Profit(),
		MCBestOpt:   env.BestOptimized,
		MCWorstOpt:  env.WorstOptimized,
		MCBestInit:  env.BestInitial,
		MCWorstInit: env.WorstInitial,
	}
	st.Best = math.Max(st.Proposed, math.Max(st.PS, st.MCBestOpt))
	return st, nil
}
