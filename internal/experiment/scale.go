package experiment

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

// ScaleExpConfig drives the scale ladder behind BENCH_scale.json
// (EXPERIMENTS.md Performance): one solve per client count on a
// workload.ScaleConfig instance, with the scale-mode solver settings
// (single greedy start, one improvement round, index-pruned candidate
// generation, sharded rounds) — the configuration that makes 100k–1M
// clients tractable on one machine.
type ScaleExpConfig struct {
	// ClientCounts are the instance sizes to run, in order.
	ClientCounts []int
	BaseSeed     int64
}

// The scale-mode solver settings.
const (
	// scaleTopK is the top-k pruning width (core.Config.CandidateClusters).
	scaleTopK = 6
	// scaleShardClusters sizes the shard count as clusters/scaleShardClusters
	// (at least 1), so shards keep a roughly constant cluster span as the
	// cloud grows.
	scaleShardClusters = 8
	// scaleAlphaGranularity is the coarser dispersion grid of the scale
	// runs: the DP is the inner loop of every exact evaluation.
	scaleAlphaGranularity = 6
	// scaleCompareExactAt is the row that additionally solves its
	// instance with pruning and sharding disabled and records the profit
	// gap — the acceptance check that top-k loses well under a percent.
	// Exact solves are O(clients × clusters), so this stays a mid-size
	// point.
	scaleCompareExactAt = 10_000
)

// DefaultScaleExpConfig runs the 1k/10k/100k/1M ladder.
func DefaultScaleExpConfig() ScaleExpConfig {
	return ScaleExpConfig{
		ClientCounts: []int{1_000, 10_000, 100_000, 1_000_000},
		BaseSeed:     1,
	}
}

// ScaleRow reports one instance size.
type ScaleRow struct {
	Clients  int `json:"clients"`
	Clusters int `json:"clusters"`
	Servers  int `json:"servers"`
	Shards   int `json:"shards"`
	TopK     int `json:"top_k"`

	Generate time.Duration `json:"generate_ns"`
	Solve    time.Duration `json:"solve_ns"`
	// Timings splits Solve into the solver's phases (greedy build,
	// cluster sweeps, reassignment, cross-shard reconciliation). In
	// sharded mode Sweep and Reassign sum per-shard busy time, so they
	// can exceed the row's wall-clock Solve.
	Timings core.PhaseTimings `json:"timings"`
	// Attribution splits the row's profit across the same phases
	// (core.Stats.Attribution): which phase the profit came from, at
	// this scale.
	Attribution core.Attribution `json:"attribution"`
	// AllocBytes is the TotalAlloc delta across generate+solve;
	// BytesPerClient the same divided by the client count — the
	// linear-memory acceptance number.
	AllocBytes     uint64  `json:"alloc_bytes"`
	BytesPerClient float64 `json:"bytes_per_client"`

	Profit   float64 `json:"profit"`
	Unplaced int     `json:"unplaced"`

	// ExactProfit and LossVsExact are only set on the scaleCompareExactAt row:
	// the unpruned, unsharded solve of the same instance and the relative
	// profit gap ((exact-pruned)/exact; negative means the scale mode
	// found more profit).
	ExactProfit float64 `json:"exact_profit,omitempty"`
	LossVsExact float64 `json:"loss_vs_exact,omitempty"`
}

// ScaleReport is the machine-readable record written to
// BENCH_scale.json so later PRs have a perf trajectory to compare
// against.
type ScaleReport struct {
	BenchMeta
	Rows []ScaleRow `json:"rows"`
}

// scaleSolverConfig is the scale-mode solver: one greedy start, one
// improvement round, coarse dispersion grid, pruned candidates, sharded
// rounds. Everything it gives up is breadth the big instances cannot
// afford; correctness (feasibility, determinism) is untouched.
func scaleSolverConfig(clusters int) core.Config {
	sc := core.DefaultConfig()
	sc.NumInitSolutions = 1
	sc.MaxLocalSearchIters = 1
	sc.AlphaGranularity = scaleAlphaGranularity
	sc.CandidateClusters = scaleTopK
	sc.Shards = max(clusters/scaleShardClusters, 1)
	return sc
}

// RunScale runs the ladder. Each row is generated and solved once —
// at these sizes a single run dominates noise, and determinism makes
// reruns exact.
func RunScale(cfg ScaleExpConfig, progress io.Writer) (*ScaleReport, error) {
	if len(cfg.ClientCounts) == 0 {
		return nil, fmt.Errorf("experiment: bad scale config %+v", cfg)
	}
	report := &ScaleReport{BenchMeta: NewBenchMeta()}
	for _, n := range cfg.ClientCounts {
		wcfg := workload.ScaleConfig(n, cfg.BaseSeed+int64(n))

		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)

		tGen := time.Now()
		scen, err := workload.Generate(wcfg)
		if err != nil {
			return nil, err
		}
		genDur := time.Since(tGen)

		sc := scaleSolverConfig(scen.Cloud.NumClusters())
		s, err := core.NewSolver(scen, sc)
		if err != nil {
			return nil, err
		}
		if progress != nil {
			fmt.Fprintf(progress, "scale: %d clients, %d clusters, shards=%d topk=%d...\n",
				n, scen.Cloud.NumClusters(), sc.Shards, sc.CandidateClusters)
		}
		a, st, err := s.Solve()
		if err != nil {
			return nil, err
		}
		if err := a.Validate(); err != nil {
			return nil, fmt.Errorf("experiment: scale %d clients: %w", n, err)
		}
		runtime.ReadMemStats(&after)

		row := ScaleRow{
			Clients:        n,
			Clusters:       scen.Cloud.NumClusters(),
			Servers:        scen.Cloud.NumServers(),
			Shards:         sc.Shards,
			TopK:           sc.CandidateClusters,
			Generate:       genDur,
			Solve:          st.Elapsed,
			Timings:        st.Timings,
			Attribution:    st.Attribution,
			AllocBytes:     after.TotalAlloc - before.TotalAlloc,
			Profit:         st.FinalProfit,
			Unplaced:       st.Unplaced,
			BytesPerClient: float64(after.TotalAlloc-before.TotalAlloc) / float64(n),
		}

		if n == scaleCompareExactAt {
			ec := scaleSolverConfig(scen.Cloud.NumClusters())
			ec.CandidateClusters = 0
			ec.Shards = 0
			es, err := core.NewSolver(scen, ec)
			if err != nil {
				return nil, err
			}
			_, est, err := es.Solve()
			if err != nil {
				return nil, err
			}
			row.ExactProfit = est.FinalProfit
			if math.Abs(est.FinalProfit) > 0 {
				row.LossVsExact = (est.FinalProfit - st.FinalProfit) / math.Abs(est.FinalProfit)
			}
		}
		report.Rows = append(report.Rows, row)
		if progress != nil {
			fmt.Fprintf(progress, "scale: %d clients solved in %s, profit %.2f, %d unplaced\n",
				n, row.Solve.Round(time.Millisecond), row.Profit, row.Unplaced)
		}
	}
	return report, nil
}

// ScaleTable renders the report as text.
func ScaleTable(rep *ScaleReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Scale ladder: pruned+sharded solve (GOMAXPROCS=%d, %d CPUs)\n",
		rep.GoMaxProcs, rep.NumCPU)
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "clients\tclusters\tshards\ttopk\tgenerate\tsolve\tgreedy\tsweep\treassign\treconcile\tB/client\tprofit\tunplaced\tloss-vs-exact")
	for _, r := range rep.Rows {
		loss := "-"
		if r.ExactProfit != 0 {
			loss = fmt.Sprintf("%.4f%%", r.LossVsExact*100)
		}
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%s\t%s\t%s\t%s\t%s\t%s\t%.0f\t%.2f\t%d\t%s\n",
			r.Clients, r.Clusters, r.Shards, r.TopK,
			r.Generate.Round(time.Millisecond), r.Solve.Round(time.Millisecond),
			r.Timings.Greedy.Round(time.Millisecond), r.Timings.Sweep.Round(time.Millisecond),
			r.Timings.Reassign.Round(time.Millisecond), r.Timings.Reconcile.Round(time.Millisecond),
			r.BytesPerClient, r.Profit, r.Unplaced, loss)
	}
	w.Flush()
	return b.String()
}

// WriteScaleJSON writes the machine-readable report.
func WriteScaleJSON(w io.Writer, rep *ScaleReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
