// Package experiment reproduces the paper's evaluation (Section VI):
// the Figure 4 comparison (proposed vs modified PS vs best-found), the
// Figure 5 worst-case envelope, the complexity/scaling measurements the
// paper claims, plus two extensions: discrete-event validation of the
// analytical model and ablations of the heuristic's phases.
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

// SweepConfig drives the Figure 4/5 sweep over client counts.
type SweepConfig struct {
	// ClientCounts is the x-axis (paper: up to 200 clients).
	ClientCounts []int
	// ScenariosPerCount is the number of random scenarios per count
	// (paper: at least 20, 5 for 200 clients).
	ScenariosPerCount int
	// ScenariosAtMaxCount overrides ScenariosPerCount at the largest
	// count (the paper drops to 5 there); 0 keeps ScenariosPerCount.
	ScenariosAtMaxCount int
	// MCDraws is the number of Monte-Carlo draws per scenario (paper:
	// at least 10,000).
	MCDraws int
	// MCPasses bounds the per-draw reassignment search.
	MCPasses int
	// BaseSeed seeds the scenario generator; scenario s of count c uses
	// BaseSeed + hash(c, s).
	BaseSeed int64
	// Workers bounds scenario-level parallelism (0 = GOMAXPROCS). The
	// sweep's results and error reporting are identical for every
	// worker count.
	Workers int
	// Telemetry, when non-nil, instruments the sweep fan-out, every
	// solver and the Monte-Carlo draws.
	Telemetry *telemetry.Set
}

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

// DefaultSweepConfig returns a fast-but-faithful sweep; the benchmark
// harness raises the scenario and draw counts to the paper's numbers.
func DefaultSweepConfig() SweepConfig {
	return SweepConfig{
		ClientCounts:        []int{10, 20, 50, 100, 150, 200},
		ScenariosPerCount:   20,
		ScenariosAtMaxCount: 5,
		MCDraws:             200,
		MCPasses:            5,
		BaseSeed:            1,
	}
}

// ScenarioStats are the profits measured on one random scenario. Raw
// profits, not normalized; Best is the normalization denominator (the
// best profit any method found, the paper's "best solution found").
type ScenarioStats struct {
	Seed         int64
	Proposed     float64
	ProposedInit float64
	PS           float64
	MCBestOpt    float64
	MCWorstOpt   float64
	MCBestInit   float64
	MCWorstInit  float64
	Best         float64
}

// SweepPoint aggregates the scenarios of one client count.
type SweepPoint struct {
	Clients int
	Stats   []ScenarioStats
}

// RunSweep evaluates every method on every (count, scenario) pair.
func RunSweep(cfg SweepConfig) ([]SweepPoint, error) {
	if len(cfg.ClientCounts) == 0 {
		return nil, fmt.Errorf("experiment: no client counts")
	}
	if cfg.ScenariosPerCount <= 0 || cfg.MCDraws <= 0 {
		return nil, fmt.Errorf("experiment: scenarios=%d draws=%d", cfg.ScenariosPerCount, cfg.MCDraws)
	}
	maxCount := 0
	for _, c := range cfg.ClientCounts {
		if c > maxCount {
			maxCount = c
		}
	}
	points := make([]SweepPoint, len(cfg.ClientCounts))
	type job struct {
		point, slot int
		clients     int
		seed        int64
	}
	var jobs []job
	for pi, c := range cfg.ClientCounts {
		n := cfg.ScenariosPerCount
		if c == maxCount && cfg.ScenariosAtMaxCount > 0 {
			n = cfg.ScenariosAtMaxCount
		}
		points[pi] = SweepPoint{Clients: c, Stats: make([]ScenarioStats, n)}
		for s := 0; s < n; s++ {
			jobs = append(jobs, job{
				point:   pi,
				slot:    s,
				clients: c,
				seed:    cfg.BaseSeed + int64(c)*1000 + int64(s),
			})
		}
	}

	// Scenario jobs fan out over the shared engine. Each job writes its
	// own (point, slot) cell and every job runs even when another fails,
	// so the sweep's output — including which error is reported, the
	// lowest-indexed one — does not depend on the worker count.
	err := parallel.ForErr(parallel.Options{Workers: cfg.Workers, Tel: cfg.Telemetry, Phase: "sweep"},
		len(jobs), func(_, idx int) error {
			jb := jobs[idx]
			st, err := runScenario(cfg, jb.clients, jb.seed)
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
func runScenario(cfg SweepConfig, clients int, seed int64) (ScenarioStats, error) {
	scen, err := generate(clients, seed)
	if err != nil {
		return ScenarioStats{}, err
	}
	solver, err := core.NewSolver(scen, solverConfig(cfg.Telemetry))
	if err != nil {
		return ScenarioStats{}, err
	}
	proposed, stats, err := solver.Solve()
	if err != nil {
		return ScenarioStats{}, err
	}
	ps, err := baseline.SolveModifiedPS(scen, baseline.DefaultPSConfig())
	if err != nil {
		return ScenarioStats{}, err
	}
	mcCfg := baseline.MCConfig{
		Draws:           cfg.MCDraws,
		Seed:            seed,
		MaxSearchPasses: cfg.MCPasses,
		Telemetry:       cfg.Telemetry,
	}
	env, err := baseline.RunMonteCarlo(scen, mcCfg)
	if err != nil {
		return ScenarioStats{}, err
	}
	st := ScenarioStats{
		Seed:         seed,
		Proposed:     proposed.Profit(),
		ProposedInit: stats.InitialProfit,
		PS:           ps.Profit(),
		MCBestOpt:    env.BestOptimized,
		MCWorstOpt:   env.WorstOptimized,
		MCBestInit:   env.BestInitial,
		MCWorstInit:  env.WorstInitial,
	}
	st.Best = math.Max(st.Proposed, math.Max(st.PS, st.MCBestOpt))
	return st, nil
}
