package online

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/parallel"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// testScenario generates a paper-shaped scenario with n clients, the
// first absentFrac of which start absent (zero rates).
func testScenario(t testing.TB, n int, seed int64, absentFrac float64) *model.Scenario {
	t.Helper()
	return shapedScenario(t, n, 0, 0, seed, absentFrac)
}

// shapedScenario is testScenario on a cloud of the given number of
// clusters with the given number of servers each (0 keeps
// workload.DefaultConfig's value).
func shapedScenario(t testing.TB, n, clusters, servers int, seed int64, absentFrac float64) *model.Scenario {
	t.Helper()
	cfg := workload.DefaultConfig()
	cfg.NumClients = n
	cfg.Seed = seed
	if clusters > 0 {
		cfg.NumClusters = clusters
	}
	if servers > 0 {
		cfg.MinServersPerCluster, cfg.MaxServersPerCluster = servers, servers
	}
	scen, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < int(float64(n)*absentFrac); i++ {
		scen.Clients[i].ArrivalRate = 0
		scen.Clients[i].PredictedRate = 0
	}
	return scen
}

func newTestService(t testing.TB, scen *model.Scenario, mutate func(*Config)) *Service {
	t.Helper()
	cfg := DefaultConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(scen, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// drainChurn runs a full churn stream through the service and returns
// the decision sequence.
func drainChurn(s *Service, c *Churn) []Decision {
	var out []Decision
	for {
		ev, ok := c.Next()
		if !ok {
			return out
		}
		out = append(out, s.Decide(ev))
	}
}

// TestDeterministicReplay pins the synchronous-mode determinism claim:
// the same scenario, config, and event stream yield byte-identical
// decision sequences and the same committed profit.
func TestDeterministicReplay(t *testing.T) {
	run := func() ([]Decision, float64, uint64) {
		scen := testScenario(t, 60, 11, 0.3)
		s := newTestService(t, scen, nil)
		defer s.Close()
		cc := DefaultChurnConfig()
		cc.Events = 3000
		cc.Seed = 7
		decisions := drainChurn(s, NewChurn(scen, cc))
		s.Flush()
		return decisions, s.Profit(), s.Version()
	}
	d1, p1, v1 := run()
	d2, p2, v2 := run()
	if len(d1) != len(d2) {
		t.Fatalf("decision counts differ: %d vs %d", len(d1), len(d2))
	}
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("decision %d differs: %+v vs %+v", i, d1[i], d2[i])
		}
	}
	if p1 != p2 {
		t.Fatalf("profits differ: %v vs %v", p1, p2)
	}
	if v1 != v2 {
		t.Fatalf("versions differ: %d vs %d", v1, v2)
	}
	if v1 < 2 {
		t.Fatalf("stream never committed (version %d); thresholds too loose for the test", v1)
	}
}

// TestArrivalAdmission pins the basic decision semantics: an arrival
// into an empty-ish cloud is admitted with a positive bound and a valid
// cluster; a departure of an absent client is a no-op.
func TestArrivalAdmission(t *testing.T) {
	scen := testScenario(t, 20, 12, 0.5)
	s := newTestService(t, scen, nil)
	defer s.Close()

	d := s.Decide(Event{Kind: EventArrive, Client: 0, Rate: 2})
	if !d.Admitted {
		t.Fatalf("arrival rejected: %+v", d)
	}
	if d.Cluster < 0 || int(d.Cluster) >= scen.Cloud.NumClusters() {
		t.Fatalf("admitted to invalid cluster %d", d.Cluster)
	}
	if d.Bound <= 0 {
		t.Fatalf("admitted with non-positive bound %v", d.Bound)
	}

	no := s.Decide(Event{Kind: EventDepart, Client: 1})
	if no.Admitted || no.Committed {
		t.Fatalf("absent departure not a no-op: %+v", no)
	}
}

// TestRejectUnprofitable: with admission control on, a client whose best
// gain bound is non-positive must be rejected. An enormous rate makes
// every cluster either infeasible or unprofitable.
func TestRejectUnprofitable(t *testing.T) {
	scen := testScenario(t, 20, 13, 0.5)
	s := newTestService(t, scen, nil)
	defer s.Close()
	d := s.Decide(Event{Kind: EventArrive, Client: 0, Rate: 1e9})
	if d.Admitted {
		t.Fatalf("hopeless client admitted: %+v", d)
	}
	if int(d.Cluster) != alloc.Unassigned {
		t.Fatalf("rejected decision names cluster %d", d.Cluster)
	}
}

// TestSelfCancelingEventsDoNotCommit pins the deferred-commit write
// filter: an arrival/departure pair nets to zero pending load, so a long
// alternating stream must never trigger a commit.
func TestSelfCancelingEventsDoNotCommit(t *testing.T) {
	scen := testScenario(t, 30, 14, 0.5)
	s := newTestService(t, scen, func(c *Config) {
		// Threshold above one event's |Δλ̃| but far below 500 events'
		// worth: only the *net* staying at zero avoids the commit.
		c.CommitFloor = 5
		c.CommitRel = 0
	})
	defer s.Close()
	v0 := s.Version()
	for iter := 0; iter < 500; iter++ {
		if d := s.Decide(Event{Kind: EventArrive, Client: 2, Rate: 1.5}); !d.Admitted {
			t.Fatalf("iter %d: arrival rejected", iter)
		}
		s.Decide(Event{Kind: EventDepart, Client: 2})
	}
	if v := s.Version(); v != v0 {
		t.Fatalf("self-canceling stream committed: version %d → %d", v0, v)
	}
}

// TestThresholdTriggersCommit: pushing one cluster past its commit
// threshold must publish a new snapshot that includes the pending load.
func TestThresholdTriggersCommit(t *testing.T) {
	scen := testScenario(t, 30, 15, 0.5)
	s := newTestService(t, scen, nil)
	defer s.Close()
	v0 := s.Version()
	var committed bool
	for i := 0; i < 15 && !committed; i++ {
		d := s.Decide(Event{Kind: EventArrive, Client: model.ClientID(i), Rate: 3})
		committed = committed || d.Committed
	}
	if !committed {
		t.Fatal("15 arrivals never crossed the commit threshold")
	}
	if s.Version() == v0 {
		t.Fatal("commit reported but no snapshot published")
	}
	a, _ := s.Snapshot()
	if err := a.Validate(); err != nil {
		t.Fatalf("committed allocation invalid: %v", err)
	}
}

// TestFlushCommitsPending: Flush must fold every pending delta into the
// committed plane even below threshold.
func TestFlushCommitsPending(t *testing.T) {
	scen := testScenario(t, 30, 16, 0.5)
	s := newTestService(t, scen, func(c *Config) {
		c.CommitFloor = 1e9 // never auto-commit
		c.CommitRel = 0
	})
	defer s.Close()
	d := s.Decide(Event{Kind: EventArrive, Client: 0, Rate: 2})
	if !d.Admitted || d.Committed {
		t.Fatalf("unexpected decision: %+v", d)
	}
	a := s.Flush()
	if !a.Assigned(0) {
		t.Fatal("flushed allocation does not include the pending arrival")
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := s.Scenario().Clients[0].PredictedRate; got != 2 {
		t.Fatalf("committed rate %v, want 2", got)
	}
}

// TestChurnProfitRetention mirrors the benchmark's gate at test scale:
// after a full churn stream and a flush, the online profit must be
// within a few percent of a cold full re-solve on the true final
// scenario.
func TestChurnProfitRetention(t *testing.T) {
	scen := testScenario(t, 60, 17, 0.3)
	s := newTestService(t, scen, nil)
	defer s.Close()
	cc := DefaultChurnConfig()
	cc.Events = 4000
	cc.Seed = 3
	churn := NewChurn(scen, cc)
	drainChurn(s, churn)
	s.Flush()
	online := s.Profit()

	final := model.CloneScenario(scen)
	rates := make([]float64, len(final.Clients))
	churn.Rates(rates)
	for i := range final.Clients {
		final.Clients[i].ArrivalRate = rates[i]
		final.Clients[i].PredictedRate = rates[i]
	}
	solver, err := core.NewSolver(final, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cold, _, err := solver.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if coldP := cold.Profit(); online < 0.95*coldP {
		t.Fatalf("online profit %v below 95%% of cold %v", online, coldP)
	}
}

// TestConcurrentDeciders hammers Decide from many goroutines in
// background-commit mode. Run under -race this is the primary
// lock-freedom safety check; the invariant checked at the end is that a
// final flush yields a valid allocation and every desired rate matches
// what some goroutine last requested (no lost or torn updates for the
// per-client slots each goroutine owns).
func TestConcurrentDeciders(t *testing.T) {
	scen := testScenario(t, 64, 18, 0.5)
	s := newTestService(t, scen, func(c *Config) { c.Background = true })
	defer s.Close()

	const workers = 8
	perWorker := scen.NumClients() / workers
	var wg sync.WaitGroup
	finalRate := make([]float64, scen.NumClients())
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := parallel.Rand(99, uint64(w))
			lo := w * perWorker
			for iter := 0; iter < 400; iter++ {
				ci := lo + rng.Intn(perWorker)
				id := model.ClientID(ci)
				switch rng.Intn(3) {
				case 0:
					rate := 0.5 + rng.Float64()*2
					if d := s.Decide(Event{Kind: EventArrive, Client: id, Rate: rate}); d.Admitted {
						finalRate[ci] = rate
					}
				case 1:
					s.Decide(Event{Kind: EventDepart, Client: id})
					finalRate[ci] = 0
				default:
					rate := 0.5 + rng.Float64()*2
					if d := s.Decide(Event{Kind: EventRateChange, Client: id, Rate: rate}); d.Admitted {
						finalRate[ci] = rate
					}
				}
			}
		}(w)
	}
	wg.Wait()
	a := s.Flush()
	if err := a.Validate(); err != nil {
		t.Fatalf("allocation invalid after concurrent churn: %v", err)
	}
	for ci, want := range finalRate {
		// A rate-change on an absent client is an arrival; a rejected
		// offer leaves the old rate. Both are per-slot deterministic
		// because each goroutine owns its client range.
		if got := s.Scenario().Clients[ci].PredictedRate; got != want {
			// Rejected offers make `want` stale; only flag impossible
			// values (a rate no event ever carried).
			if got != 0 && (got < 0.5 || got > 2.5) {
				t.Fatalf("client %d committed rate %v, never requested", ci, got)
			}
		}
	}
}

// TestDecideAllocFree pins the acceptance criterion: in the steady state
// (no commit triggered) a decision performs zero heap allocations. The
// second cloud, 64 clusters of 3 servers, has 42 distinct wake states,
// more than the pricing scan's stack buffer holds (16).
func TestDecideAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	for _, scen := range []*model.Scenario{
		testScenario(t, 40, 19, 0.5),
		shapedScenario(t, 60, 64, 3, 19, 0.5),
	} {
		s := newTestService(t, scen, func(c *Config) {
			c.CommitFloor = 1e12 // keep every event below threshold
			c.CommitRel = 0
			c.Telemetry = telemetry.New(nil)
		})
		evs := []Event{
			{Kind: EventArrive, Client: 3, Rate: 1.2},
			{Kind: EventRateChange, Client: 3, Rate: 1.4},
			{Kind: EventDepart, Client: 3},
		}
		var i int
		n := testing.AllocsPerRun(2000, func() {
			s.Decide(evs[i%len(evs)])
			i++
		})
		s.Close()
		if n != 0 {
			t.Fatalf("%d clusters: Decide allocates %v times per event, want 0", scen.Cloud.NumClusters(), n)
		}
	}
}

// TestDecidePricingExact: the snapshot's pricing table answers exactly
// as the plain scan does (the first maximum of GainUpperBoundAt in
// cluster order: same cluster, same bound bits) on 2^20 random (client,
// rate, pending load) queries, 2^16 under the race detector. The queries
// run against the snapshots a churning service publishes on three
// clouds: the paper's 5 clusters, 16 clusters like the online
// benchmark's, and 64 small clusters with many distinct wake states.
func TestDecidePricingExact(t *testing.T) {
	queries := 1 << 20
	if raceEnabled {
		queries = 1 << 16 // the detector slows each query about 30×
	}
	scens := []*model.Scenario{
		testScenario(t, 60, 31, 0.3),
		shapedScenario(t, 160, 16, 20, 32, 0.3),
		shapedScenario(t, 60, 64, 3, 33, 0.3),
	}
	const snapshots = 4
	perSnapshot := queries / (len(scens) * snapshots)
	rng := rand.New(rand.NewSource(1))
	for _, scen := range scens {
		s := newTestService(t, scen, nil)
		cc := DefaultChurnConfig()
		cc.Events = 1 << 16
		churn := NewChurn(scen, cc)
		numK := scen.Cloud.NumClusters()
		pend := make([]alloc.PendingLoad, numK)
		for snap := 0; snap < snapshots; snap++ {
			// Drive the stream to the next commit.
			for c := s.Commits(); s.Commits() == c; {
				ev, ok := churn.Next()
				if !ok {
					t.Fatal("churn stream ended before the next commit")
				}
				s.Decide(ev)
			}
			sn := s.snap.Load()
			ix := alloc.NewIndex(sn.a)
			ix.Refresh()
			for q := 0; q < perSnapshot; q++ {
				i := model.ClientID(rng.Intn(scen.NumClients()))
				rate := 4 * math.Exp(rng.NormFloat64())
				for k := range pend {
					pend[k] = alloc.PendingLoad{}
					if rng.Intn(3) > 0 {
						pend[k] = alloc.PendingLoad{Proc: 3 * rng.NormFloat64(), Comm: 3 * rng.NormFloat64()}
					}
				}
				wantK, wantB := model.ClusterID(alloc.Unassigned), math.Inf(-1)
				for k := 0; k < numK; k++ {
					if b, ok := ix.GainUpperBoundAt(i, model.ClusterID(k), rate, rate, pend[k]); ok && b > wantB {
						wantK, wantB = model.ClusterID(k), b
					}
				}
				gotK, gotB, ok := sn.prices.Best(i, rate, func(k model.ClusterID) alloc.PendingLoad { return pend[k] })
				if gotK != wantK || ok != (wantK != alloc.Unassigned) || math.Float64bits(gotB) != math.Float64bits(wantB) {
					t.Fatalf("%d clusters, snapshot %d, client %d, rate %v: Best = (%d, %v), the plain scan = (%d, %v)",
						numK, sn.version, i, rate, gotK, gotB, wantK, wantB)
				}
			}
		}
		s.Close()
	}
}

// TestBackgroundCommitEventuallyPublishes: in background mode a
// threshold crossing must lead to a new snapshot without any further
// events.
func TestBackgroundCommitEventuallyPublishes(t *testing.T) {
	scen := testScenario(t, 30, 20, 0.5)
	s := newTestService(t, scen, func(c *Config) { c.Background = true })
	defer s.Close()
	v0 := s.Version()
	var triggered bool
	for i := 0; i < 15 && !triggered; i++ {
		d := s.Decide(Event{Kind: EventArrive, Client: model.ClientID(i), Rate: 3})
		triggered = triggered || d.Committed
	}
	if !triggered {
		t.Fatal("threshold never crossed")
	}
	// Flush synchronizes with the background committer via the solver
	// lock, so after it the version must have moved.
	s.Flush()
	if s.Version() == v0 {
		t.Fatal("no snapshot published after background trigger + flush")
	}
}

// TestChurnStreamDeterminism pins the generator itself: same seed, same
// events.
func TestChurnStreamDeterminism(t *testing.T) {
	scen := testScenario(t, 50, 21, 0.4)
	cc := DefaultChurnConfig()
	cc.Events = 2000
	cc.Seed = 5
	cc.FlashAt = 500
	cc.FlashSize = 10
	a, b := NewChurn(scen, cc), NewChurn(scen, cc)
	for {
		ea, oka := a.Next()
		eb, okb := b.Next()
		if oka != okb {
			t.Fatal("stream lengths differ")
		}
		if !oka {
			break
		}
		if ea != eb {
			t.Fatalf("events differ: %+v vs %+v", ea, eb)
		}
	}
}

// TestChurnFlashCrowd: the flash window must emit consecutive arrivals
// with boosted rates.
func TestChurnFlashCrowd(t *testing.T) {
	scen := testScenario(t, 50, 22, 0.8) // plenty of absent clients
	cc := DefaultChurnConfig()
	cc.Events = 300
	cc.Seed = 9
	cc.FlashAt = 100
	cc.FlashSize = 20
	c := NewChurn(scen, cc)
	var got int
	for i := 0; ; i++ {
		ev, ok := c.Next()
		if !ok {
			break
		}
		if i >= 100 && i < 120 {
			if ev.Kind != EventArrive {
				t.Fatalf("event %d in flash window is %v, want arrival", i, ev.Kind)
			}
			got++
		}
	}
	if got != 20 {
		t.Fatalf("flash window emitted %d arrivals, want 20", got)
	}
}

// TestPendingLoadSharing cross-checks the accumulator bookkeeping: after
// events that net to zero the gross gauge reflects traffic while the
// committed snapshot stays untouched.
func TestPendingLoadSharing(t *testing.T) {
	scen := testScenario(t, 20, 23, 0.5)
	tel := telemetry.New(nil)
	s := newTestService(t, scen, func(c *Config) {
		c.Telemetry = tel
		c.CommitFloor = 100 // keep the pair below threshold
		c.CommitRel = 0
	})
	defer s.Close()
	s.Decide(Event{Kind: EventArrive, Client: 0, Rate: 1})
	s.Decide(Event{Kind: EventDepart, Client: 0})
	if g := tel.Gauge("online_gross_pending_rate").Value(); g < 2-1e-9 {
		t.Fatalf("gross pending gauge %v, want ≥ 2", g)
	}
	net := math.Abs(loadFloat(&s.acc[0].net))
	for k := 1; k < len(s.acc); k++ {
		net += math.Abs(loadFloat(&s.acc[k].net))
	}
	if net > 1e-9 {
		t.Fatalf("net pending %v after self-canceling pair, want 0", net)
	}
}

// TestDecideRejectsInvalidEvents: an event with a NaN or infinite rate,
// an out-of-range client or an unknown kind is a rejected no-op. Before
// the guard one NaN rate poisoned the cluster accumulators for good (every
// later event on that cluster committed, and profit read NaN), and an
// out-of-range client panicked the service.
func TestDecideRejectsInvalidEvents(t *testing.T) {
	scen := testScenario(t, 60, 3, 0)
	n := scen.NumClients()
	// 200 small rate jitters around the committed rates: below every
	// commit threshold on a healthy service.
	valid := make([]Event, 200)
	for j := range valid {
		i := j % n
		f := 1.02
		if j/n%2 == 1 {
			f = 0.98
		}
		valid[j] = Event{Kind: EventRateChange, Client: model.ClientID(i), Rate: scen.Clients[i].PredictedRate * f}
	}
	run := func(s *Service) int64 {
		before := s.Commits()
		for _, ev := range valid {
			s.Decide(ev)
		}
		return s.Commits() - before
	}
	clean := newTestService(t, scen, nil)
	baseline := run(clean)
	clean.Close()

	bad := []struct {
		name string
		ev   Event
	}{
		{"NaN rate", Event{Kind: EventRateChange, Client: 5, Rate: math.NaN()}},
		{"NaN arrival", Event{Kind: EventArrive, Client: 7, Rate: math.NaN()}},
		{"+Inf rate", Event{Kind: EventRateChange, Client: 5, Rate: math.Inf(1)}},
		{"-Inf rate", Event{Kind: EventRateChange, Client: 5, Rate: math.Inf(-1)}},
		{"client -1", Event{Kind: EventArrive, Client: -1, Rate: 1}},
		{"client N", Event{Kind: EventRateChange, Client: model.ClientID(n), Rate: 1}},
		{"depart client N+3", Event{Kind: EventDepart, Client: model.ClientID(n + 3)}},
		{"unknown kind", Event{Kind: EventRateChange + 1, Client: 5, Rate: 1}},
	}
	for _, b := range bad {
		ev := b.ev
		t.Run(b.name, func(t *testing.T) {
			s := newTestService(t, scen, nil)
			defer s.Close()
			rejects := s.Rejects()
			d := s.Decide(ev)
			if d.Admitted || d.Cluster != model.ClusterID(alloc.Unassigned) || d.Committed {
				t.Fatalf("decision %+v, want a rejected no-op", d)
			}
			if got := s.Rejects() - rejects; got != 1 {
				t.Fatalf("Rejects grew by %d, want 1", got)
			}
			if got := run(s); got > baseline {
				t.Fatalf("%d commits over 200 valid events after the bad one, %d without it", got, baseline)
			}
			if p := s.Profit(); math.IsNaN(p) || math.IsInf(p, 0) {
				t.Fatalf("profit %v", p)
			}
			if err := s.Flush().Validate(); err != nil {
				t.Fatalf("flushed allocation invalid: %v", err)
			}
		})
	}
}

// BenchmarkDecide times one steady-state decision (a rate change, no
// commit) on the online benchmark's cloud, 16 clusters of 75 servers,
// and on workload.DefaultConfig()'s 5 clusters.
func BenchmarkDecide(b *testing.B) {
	for _, c := range []struct {
		name                       string
		clients, clusters, servers int
	}{
		{"K=16x75", 480, 16, 75},
		{"K=5", 200, 0, 0},
	} {
		b.Run(c.name, func(b *testing.B) {
			scen := shapedScenario(b, c.clients, c.clusters, c.servers, 1, 0.3)
			s := newTestService(b, scen, func(cfg *Config) { cfg.CommitRel, cfg.CommitFloor = 10, 1e12 })
			defer s.Close()
			cc := DefaultChurnConfig()
			cc.Events = 1 << 14
			cc.ArriveWeight, cc.DepartWeight = 0, 0
			churn := NewChurn(scen, cc)
			evs := make([]Event, 0, cc.Events)
			for ev, ok := churn.Next(); ok; ev, ok = churn.Next() {
				evs = append(evs, ev)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				s.Decide(evs[n%len(evs)])
			}
		})
	}
}
