package core

import (
	"context"
	"math"
	"os"
	"testing"
	"time"

	"repro/internal/telemetry"
	"repro/internal/workload"
)

// checkAttribution asserts the per-phase profit attribution identity:
// the greedy initial profit plus the sum of every phase's delta must
// reproduce the final profit up to ledger-style float regrouping (the
// deltas are plain differences of Kahan-compensated cluster sums, so
// the residual is bounded by the same drift tolerance the ledger uses).
// Every solve — cold, sharded or warm — also reports its wall clock and
// the time its initial solution took.
func checkAttribution(t *testing.T, st Stats) {
	t.Helper()
	if st.Elapsed <= 0 || st.Timings.Greedy <= 0 {
		t.Fatalf("solve timing not recorded: elapsed %v, greedy %v", st.Elapsed, st.Timings.Greedy)
	}
	at := st.Attribution
	if at.Initial != st.InitialProfit || at.Final != st.FinalProfit {
		t.Fatalf("attribution endpoints %v→%v disagree with stats %v→%v",
			at.Initial, at.Final, st.InitialProfit, st.FinalProfit)
	}
	tol := 1e-6 * (1 + math.Abs(at.Final))
	if r := math.Abs(at.Residual()); r > tol {
		t.Fatalf("attribution does not account for the profit delta: initial %v + phases %v = %v, final %v (residual %v > %v)\n%+v",
			at.Initial, at.phaseSum(), at.Initial+at.phaseSum(), at.Final, r, tol, at)
	}
}

// TestAttributionIdentity checks Initial + Σphase ≈ Final on every
// solve path: plain, index-pruned, sharded (with reconciliation), and
// the warm start. Attribution is always on — no telemetry set needed.
func TestAttributionIdentity(t *testing.T) {
	scen := smallScenario(t, 60, 21)
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"plain", nil},
		{"pruned", func(c *Config) { c.CandidateClusters = 2 }},
		{"sharded", func(c *Config) { c.Shards = 2 }},
		{"sharded_pruned", func(c *Config) { c.Shards = 2; c.CandidateClusters = 2 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestSolver(t, scen, tc.mutate)
			_, st, err := s.Solve()
			if err != nil {
				t.Fatal(err)
			}
			checkAttribution(t, st)
			if st.LocalSearchIters > 0 && st.Timings.Sweep <= 0 {
				t.Fatal("sweep phase timing not recorded despite local-search rounds")
			}
		})
	}

	t.Run("warmstart", func(t *testing.T) {
		s := newTestSolver(t, scen, nil)
		a, _, err := s.Solve()
		if err != nil {
			t.Fatal(err)
		}
		next := smallScenario(t, 60, 21)
		for i := range next.Clients {
			next.Clients[i].ArrivalRate *= 1.05
			next.Clients[i].PredictedRate *= 1.05
		}
		s2 := newTestSolver(t, next, nil)
		_, st, err := s2.SolveFromCtx(context.Background(), a)
		if err != nil {
			t.Fatal(err)
		}
		checkAttribution(t, st)
	})
}

// TestAttributionWithTelemetry pins that enabling the tracer and flight
// recorder does not change the attribution (the deltas are computed the
// same way with telemetry on and off).
func TestAttributionWithTelemetry(t *testing.T) {
	scen := smallScenario(t, 40, 22)
	off := newTestSolver(t, scen, nil)
	_, stOff, err := off.Solve()
	if err != nil {
		t.Fatal(err)
	}
	tel := telemetry.New(nil)
	on := newTestSolver(t, scen, func(c *Config) { c.Telemetry = tel })
	aOn, stOn, err := on.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if stOn.Attribution != stOff.Attribution {
		t.Fatalf("telemetry changed attribution:\noff %+v\non  %+v", stOff.Attribution, stOn.Attribution)
	}
	checkAttribution(t, stOn)

	// A warm solve on the same set reports through the same instruments.
	_, stWarm, err := on.SolveFromCtx(context.Background(), aOn)
	if err != nil {
		t.Fatal(err)
	}
	checkAttribution(t, stWarm)
	if got := tel.Counter("solver_solves_total").Value(); got != 2 {
		t.Errorf("solver_solves_total = %d after a cold and a warm solve, want 2", got)
	}
	greedy := tel.Histogram(telemetry.Name("solver_phase_seconds", "phase", phaseGreedy), telemetry.DurationBuckets)
	if got := greedy.Count(); got != 2 {
		t.Errorf("solver_phase_seconds{phase=greedy} has %d samples, want 2", got)
	}
	var greedySpans int
	for _, sp := range tel.Tracer.Snapshot() {
		if sp.Name == "solver.greedy" {
			greedySpans++
		}
	}
	if greedySpans != 2 {
		t.Errorf("%d solver.greedy spans, want 2", greedySpans)
	}
	if got := tel.Gauge("solver_unplaced_clients").Value(); got != float64(stWarm.Unplaced) {
		t.Errorf("solver_unplaced_clients = %v, want the warm solve's %d", got, stWarm.Unplaced)
	}
}

// TestShardedTelemetryMatchesStats pins a sharded solve's phase metrics
// to its Stats: the shards' scoped passes report as reassign, the
// whole-cloud pass as reconcile, and the move counter sees both.
func TestShardedTelemetryMatchesStats(t *testing.T) {
	const shards = 3
	scen := shardScenario(t, 150, 6, 2)
	tel := telemetry.New(nil)
	s := newTestSolver(t, scen, func(c *Config) {
		c.Shards = shards
		c.Telemetry = tel
	})
	_, st, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if got := tel.Counter("solver_reassignments_total").Value(); got != int64(st.Reassignments) {
		t.Errorf("solver_reassignments_total = %d, Stats.Reassignments = %d", got, st.Reassignments)
	}
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(b)) }
	for _, c := range []struct {
		phase  string
		delta  float64
		dur    time.Duration
		passes int
	}{
		{phaseReassign, st.Attribution.Reassign, st.Timings.Reassign, st.LocalSearchIters * shards},
		{phaseReconcile, st.Attribution.Reconcile, st.Timings.Reconcile, st.LocalSearchIters},
	} {
		if got := tel.Gauge(telemetry.Name("solver_profit_delta_total", "phase", c.phase)).Value(); !near(got, c.delta) {
			t.Errorf("solver_profit_delta_total{phase=%s} = %v, Stats says %v", c.phase, got, c.delta)
		}
		h := tel.Histogram(telemetry.Name("solver_phase_seconds", "phase", c.phase), telemetry.DurationBuckets)
		if got := h.Count(); got != int64(c.passes) {
			t.Errorf("solver_phase_seconds{phase=%s} has %d samples, want %d", c.phase, got, c.passes)
		}
		if got := h.Sum(); got < c.dur.Seconds()*(1-1e-9) {
			t.Errorf("solver_phase_seconds{phase=%s} sums to %vs, below Stats' %v", c.phase, got, c.dur)
		}
	}
}

// TestAttributionIdentity10k is the acceptance-scale check (CI scale
// smoke job, SCALE_SMOKE=1): on a 10k-client index-pruned sharded solve
// the attribution must still account for the whole profit delta.
func TestAttributionIdentity10k(t *testing.T) {
	if os.Getenv("SCALE_SMOKE") == "" {
		t.Skip("set SCALE_SMOKE=1 to run (CI scale smoke job)")
	}
	if raceEnabled {
		t.Skip("scale smoke runs with -race off")
	}
	scen, err := workload.Generate(workload.ScaleConfig(10_000, 1))
	if err != nil {
		t.Fatal(err)
	}
	s := newTestSolver(t, scen, func(c *Config) {
		c.NumInitSolutions = 1
		c.MaxLocalSearchIters = 1
		c.AlphaGranularity = 6
		c.Shards = scen.Cloud.NumClusters() / 8
		c.CandidateClusters = 8
	})
	_, st, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	checkAttribution(t, st)
	t.Logf("10k attribution: %+v (timings %+v)", st.Attribution, st.Timings)
}
