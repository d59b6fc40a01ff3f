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
// Every solve — cold, sharded or warm — also reports its wall clock, the
// time its initial solution took and one duration per round, and its
// phase and stage times fit inside the sweep and pass times they split.
func checkAttribution(t *testing.T, st Stats) {
	t.Helper()
	if st.Elapsed <= 0 || st.Timings.Greedy <= 0 {
		t.Fatalf("solve timing not recorded: elapsed %v, greedy %v", st.Elapsed, st.Timings.Greedy)
	}
	if len(st.RoundDurations) != st.LocalSearchIters {
		t.Fatalf("%d round durations for %d rounds", len(st.RoundDurations), st.LocalSearchIters)
	}
	tm := st.Timings
	if phases := tm.ShareAdjust + tm.DispersionAdjust + tm.TurnOn + tm.TurnOff; phases > tm.Sweep {
		t.Fatalf("sweep phases take %v, more than the sweeps' %v", phases, tm.Sweep)
	}
	if stages := tm.ReassignScore + tm.ReassignCommit + tm.ReassignRescore; stages > tm.Reassign+tm.Reconcile {
		t.Fatalf("reassignment stages take %v, more than the passes' %v", stages, tm.Reassign+tm.Reconcile)
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

// checkPublished asserts that a telemetry set holds exactly the Stats of
// the solves published to it: every counter equals the summed Stats count,
// every phase histogram holds one sample per solve whose phase ran and
// sums to the Stats time, the round histogram holds every round, each
// profit-delta gauge sums the attribution, and the unplaced gauge is the
// last solve's.
func checkPublished(t *testing.T, tel *telemetry.Set, solves ...Stats) {
	t.Helper()
	var sum Stats
	for i := range solves {
		sum.add(&solves[i])
	}
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(b)) }
	counters := map[string]int{
		"solver_solves_total":                                                   len(solves),
		"solver_local_search_rounds_total":                                      sum.LocalSearchIters,
		"solver_activations_total":                                              sum.Activations,
		"solver_deactivations_total":                                            sum.Deactivations,
		"solver_reassignments_total":                                            sum.Reassignments,
		"solver_reassign_scored_total":                                          sum.ReassignScored,
		"solver_reassign_dirty_skipped_total":                                   sum.ReassignSkipped,
		"solver_reassign_rescores_total":                                        sum.ReassignRescores,
		"solver_reassign_commit_failures_total":                                 sum.CommitFailures,
		"solver_reassign_restore_failures_total":                                sum.RestoreFailures,
		"solver_index_evaluated_total":                                          sum.IndexEvaluated,
		"solver_index_pruned_total":                                             sum.IndexPruned,
		telemetry.Name("solver_moves_total", "phase", phaseShare):               sum.ShareMoves,
		telemetry.Name("solver_moves_accepted_total", "phase", phaseShare):      sum.ShareAccepts,
		telemetry.Name("solver_moves_total", "phase", phaseDispersion):          sum.DispersionMoves,
		telemetry.Name("solver_moves_accepted_total", "phase", phaseDispersion): sum.DispersionAccepts,
	}
	for name, want := range counters {
		if got := tel.Counter(name).Value(); got != int64(want) {
			t.Errorf("%s = %d, Stats say %d", name, got, want)
		}
	}
	round := tel.Histogram("solver_round_seconds", telemetry.DurationBuckets)
	var roundSum float64
	for _, d := range sum.RoundDurations {
		roundSum += d.Seconds()
	}
	if round.Count() != int64(len(sum.RoundDurations)) || !near(round.Sum(), roundSum) {
		t.Errorf("solver_round_seconds has %d samples summing to %vs, Stats say %d rounds, %vs",
			round.Count(), round.Sum(), len(sum.RoundDurations), roundSum)
	}
	phaseTime := map[string]func(*Stats) time.Duration{
		phaseGreedy:          func(st *Stats) time.Duration { return st.Timings.Greedy },
		phaseShare:           func(st *Stats) time.Duration { return st.Timings.ShareAdjust },
		phaseDispersion:      func(st *Stats) time.Duration { return st.Timings.DispersionAdjust },
		phaseTurnOn:          func(st *Stats) time.Duration { return st.Timings.TurnOn },
		phaseTurnOff:         func(st *Stats) time.Duration { return st.Timings.TurnOff },
		phaseReassign:        func(st *Stats) time.Duration { return st.Timings.Reassign },
		phaseReconcile:       func(st *Stats) time.Duration { return st.Timings.Reconcile },
		phaseReassignScore:   func(st *Stats) time.Duration { return st.Timings.ReassignScore },
		phaseReassignCommit:  func(st *Stats) time.Duration { return st.Timings.ReassignCommit },
		phaseReassignRescore: func(st *Stats) time.Duration { return st.Timings.ReassignRescore },
	}
	for phase, of := range phaseTime {
		var samples int64
		var secs float64
		for i := range solves {
			if d := of(&solves[i]); d > 0 {
				samples++
				secs += d.Seconds()
			}
		}
		h := tel.Histogram(telemetry.Name("solver_phase_seconds", "phase", phase), telemetry.DurationBuckets)
		if h.Count() != samples || !near(h.Sum(), secs) {
			t.Errorf("solver_phase_seconds{phase=%s} has %d samples summing to %vs, Stats say %d solves, %vs",
				phase, h.Count(), h.Sum(), samples, secs)
		}
	}
	at := sum.Attribution
	for phase, want := range map[string]float64{
		phaseShare: at.ShareAdjust, phaseDispersion: at.DispersionAdjust, phaseTurnOn: at.TurnOn,
		phaseTurnOff: at.TurnOff, phaseReassign: at.Reassign, phaseReconcile: at.Reconcile,
	} {
		if got := tel.Gauge(telemetry.Name("solver_profit_delta_total", "phase", phase)).Value(); !near(got, want) {
			t.Errorf("solver_profit_delta_total{phase=%s} = %v, Stats say %v", phase, got, want)
		}
	}
	if got, want := tel.Gauge("solver_unplaced_clients").Value(), solves[len(solves)-1].Unplaced; got != float64(want) {
		t.Errorf("solver_unplaced_clients = %v, the last solve's Stats say %d", got, want)
	}
}

// TestAttributionWithTelemetry pins that enabling the tracer and flight
// recorder does not change the attribution (the deltas are computed the
// same way with telemetry on and off), and that a cold and a warm solve
// on one set publish exactly their Stats.
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
	if stOn.ShareMoves == 0 || stOn.ReassignScored == 0 {
		t.Fatalf("the cold solve counted no share moves (%d) or scored clients (%d)", stOn.ShareMoves, stOn.ReassignScored)
	}
	checkPublished(t, tel, stOn, stWarm)
	var greedySpans int
	for _, sp := range tel.Tracer.Snapshot() {
		if sp.Name == "solver.greedy" {
			greedySpans++
		}
	}
	if greedySpans != 2 {
		t.Errorf("%d solver.greedy spans, want 2", greedySpans)
	}
}

// TestShardedTelemetryMatchesStats pins a sharded, index-pruned solve's
// metrics to its Stats: the shards' scoped passes report as reassign,
// the whole-cloud pass as reconcile, and every counter sees both.
func TestShardedTelemetryMatchesStats(t *testing.T) {
	scen := shardScenario(t, 150, 6, 2)
	tel := telemetry.New(nil)
	s := newTestSolver(t, scen, func(c *Config) {
		c.Shards = 3
		c.CandidateClusters = 1
		c.Telemetry = tel
	})
	_, st, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	checkAttribution(t, st)
	if st.Timings.Reconcile <= 0 || st.IndexPruned == 0 {
		t.Fatalf("the sharded solve reconciled for %v and pruned %d clusters", st.Timings.Reconcile, st.IndexPruned)
	}
	checkPublished(t, tel, st)
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
