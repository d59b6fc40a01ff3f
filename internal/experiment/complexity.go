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

// complexityRow reports mean solve times for one client count.
type complexityRow struct {
	Clients    int
	Servers    int
	Sequential time.Duration
	Parallel   time.Duration
	Speedup    float64
}

// runComplexity measures the decision-time scaling behind the paper's
// complexity analysis (Section VI): initial-solution cost O(|A|·|S|·G)
// and the ÷K speedup from distributing per-cluster work. Both arms run
// at Workers = 1, so the only concurrency is core.Config.Parallel's
// per-cluster fan-out and the speedup measures the decomposition alone.
func runComplexity(sz sizes, seed int64, tel *telemetry.Set) ([]complexityRow, error) {
	rows := make([]complexityRow, 0, len(sz.counts))
	for _, n := range sz.counts {
		var seq, par time.Duration
		var servers int
		for r := 0; r < sz.scenarios; r++ {
			scen, err := generate(n, seed+int64(n)+int64(r)*131)
			if err != nil {
				return nil, err
			}
			servers = scen.Cloud.NumServers()
			for _, perCluster := range []bool{false, true} {
				cfg := solverConfig(tel)
				cfg.Workers = 1
				cfg.Parallel = perCluster
				d, err := timeSolve(scen, cfg)
				if err != nil {
					return nil, err
				}
				if perCluster {
					par += d
				} else {
					seq += d
				}
			}
		}
		seq /= time.Duration(sz.scenarios)
		par /= time.Duration(sz.scenarios)
		row := complexityRow{Clients: n, Servers: servers, Sequential: seq, Parallel: par}
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

// renderComplexity renders the scaling rows as text.
func renderComplexity(r *Runner, sz sizes) (string, error) {
	rows, err := runComplexity(sz, r.seed, r.tel)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("Decision-time scaling (paper Section VI complexity claims)\n")
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "clients\tservers\tsequential\tcluster-parallel\tspeedup")
	for _, row := range rows {
		fmt.Fprintf(w, "%d\t%d\t%s\t%s\t%.2fx\n",
			row.Clients, row.Servers, row.Sequential.Round(time.Microsecond),
			row.Parallel.Round(time.Microsecond), row.Speedup)
	}
	w.Flush()
	return b.String(), nil
}
