package experiment

import (
	"fmt"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/telemetry"
)

// ComplexityConfig drives the decision-time scaling measurement backing
// the paper's complexity analysis (Section VI): initial-solution cost
// O(|A|·|S|·G) and the ÷K speedup from distributing per-cluster work.
type ComplexityConfig struct {
	ClientCounts []int
	Repeats      int
	BaseSeed     int64
	Telemetry    *telemetry.Set
}

// DefaultComplexityConfig measures 3 repeats over the paper's range.
func DefaultComplexityConfig() ComplexityConfig {
	return ComplexityConfig{
		ClientCounts: []int{25, 50, 100, 200},
		Repeats:      3,
		BaseSeed:     1,
	}
}

// ComplexityRow reports mean solve times for one client count.
type ComplexityRow struct {
	Clients    int
	Servers    int
	Sequential time.Duration
	Parallel   time.Duration
	Speedup    float64
}

// RunComplexity measures sequential vs cluster-parallel solve times.
func RunComplexity(cfg ComplexityConfig) ([]ComplexityRow, error) {
	if len(cfg.ClientCounts) == 0 || cfg.Repeats <= 0 {
		return nil, fmt.Errorf("experiment: bad complexity config %+v", cfg)
	}
	rows := make([]ComplexityRow, 0, len(cfg.ClientCounts))
	for _, n := range cfg.ClientCounts {
		var seq, par time.Duration
		var servers int
		for r := 0; r < cfg.Repeats; r++ {
			scen, err := generate(n, cfg.BaseSeed+int64(n)+int64(r)*131)
			if err != nil {
				return nil, err
			}
			servers = scen.Cloud.NumServers()

			sCfg := solverConfig(cfg.Telemetry)
			ds, err := timeSolve(scen, sCfg)
			if err != nil {
				return nil, err
			}
			seq += ds

			pCfg := solverConfig(cfg.Telemetry)
			pCfg.Parallel = true
			dp, err := timeSolve(scen, pCfg)
			if err != nil {
				return nil, err
			}
			par += dp
		}
		seq /= time.Duration(cfg.Repeats)
		par /= time.Duration(cfg.Repeats)
		row := ComplexityRow{Clients: n, Servers: servers, Sequential: seq, Parallel: par}
		if par > 0 {
			row.Speedup = float64(seq) / float64(par)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// timeSolve runs one full solve and returns its wall-clock time.
func timeSolve(scen *model.Scenario, cfg core.Config) (time.Duration, error) {
	solver, err := core.NewSolver(scen, cfg)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if _, _, err := solver.Solve(); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// ComplexityTable renders the scaling rows as text.
func ComplexityTable(rows []ComplexityRow) string {
	var b strings.Builder
	b.WriteString("Decision-time scaling (paper Section VI complexity claims)\n")
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "clients\tservers\tsequential\tcluster-parallel\tspeedup")
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%d\t%s\t%s\t%.2fx\n",
			r.Clients, r.Servers, r.Sequential.Round(time.Microsecond),
			r.Parallel.Round(time.Microsecond), r.Speedup)
	}
	w.Flush()
	return b.String()
}
