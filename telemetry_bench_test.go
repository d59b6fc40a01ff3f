package cloudalloc

// Telemetry overhead benchmarks: each enabled variant pairs with a
// baseline benchmark in bench_test.go so EXPERIMENTS.md can record the
// instrumentation cost (acceptance bar: ≤5% on the incremental-profit
// and solver benchmarks; the disabled path must stay allocation-free,
// enforced by TestDisabledPathAllocationFree in internal/telemetry).

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// BenchmarkProfitIncrementalTelemetry is BenchmarkProfitIncremental with
// the ledger reporting flush metrics to a live registry.
func BenchmarkProfitIncrementalTelemetry(b *testing.B) {
	a := paperAllocation(b)
	a.Instrument(telemetry.New(nil))
	profitMutationLoop(b, a, func() float64 { return a.ProfitBreakdown().Profit })
}

// BenchmarkSolveProposedTelemetry is BenchmarkSolveProposed with full
// solver instrumentation (phase histograms, move counters, spans).
func BenchmarkSolveProposedTelemetry(b *testing.B) {
	for _, n := range []int{50, 200} {
		b.Run(fmt.Sprintf("clients=%d", n), func(b *testing.B) {
			scen := benchScenario(b, n, 9)
			cfg := core.DefaultConfig()
			cfg.Telemetry = telemetry.New(nil)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				solver, err := core.NewSolver(scen, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := solver.Solve(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPaperPhaseTimings is the EXPERIMENTS.md TELEMETRY baseline:
// the instrumented solver improves the paper-sized instance (250
// clients, 5 clusters × 16 servers) warm-started from the fully
// populated paperAllocation, and the per-phase telemetry histograms are
// reported as metrics (mean microseconds per phase invocation). The
// cold greedy is reported too. A cold solve on this instance places no
// clients — at 135% processing overload every greedy bid is
// unprofitable — which is why the baseline warm-starts.
func BenchmarkPaperPhaseTimings(b *testing.B) {
	a := paperAllocation(b)
	set := telemetry.New(nil)
	cfg := core.DefaultConfig()
	cfg.Telemetry = set
	solver, err := core.NewSolver(a.Scenario(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := solver.SolveFromCtx(context.Background(), a); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for _, phase := range []string{"greedy", "share_adjust", "dispersion_adjust", "turn_on", "turn_off", "reassign"} {
		h := set.Histogram(telemetry.Name("solver_phase_seconds", "phase", phase), telemetry.DurationBuckets)
		if h.Count() > 0 {
			b.ReportMetric(h.Mean()*1e6, phase+"_us")
		}
	}
	if h := set.Histogram("solver_round_seconds", telemetry.DurationBuckets); h.Count() > 0 {
		b.ReportMetric(h.Mean()*1e6, "round_us")
	}
}

// BenchmarkCounterInc is the metric hot path itself.
func BenchmarkCounterInc(b *testing.B) {
	set := telemetry.New(nil)
	c := set.Counter("bench_total")
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

// BenchmarkHistogramObserve is the latency-recording hot path.
func BenchmarkHistogramObserve(b *testing.B) {
	set := telemetry.New(nil)
	h := set.Histogram("bench_seconds", telemetry.DurationBuckets)
	b.RunParallel(func(pb *testing.PB) {
		v := 0.0001
		for pb.Next() {
			h.Observe(v)
			v *= 1.7
			if v > 10 {
				v = 0.0001
			}
		}
	})
}

// BenchmarkDisabledCounterInc shows the cost of the nil no-op path.
func BenchmarkDisabledCounterInc(b *testing.B) {
	var set *telemetry.Set
	c := set.Counter("bench_total") // nil handle
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}
