package sim

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/queueing"
	"repro/internal/workload"
)

// singleQueueScenario: one cluster, one server, one client with a known
// M/M/1 configuration.
func singleQueueScenario(t *testing.T) *model.Scenario {
	t.Helper()
	s := &model.Scenario{
		Cloud: model.Cloud{
			ServerClasses:  []model.ServerClass{{ID: 0, ProcCap: 4, StoreCap: 4, CommCap: 4, FixedCost: 2, UtilizationCost: 1}},
			UtilityClasses: []model.UtilityClass{{ID: 0, Base: 6, Slope: 0.5}},
			Clusters:       []model.Cluster{{ID: 0, Servers: []model.ServerID{0}}},
			Servers:        []model.Server{{ID: 0, Class: 0, Cluster: 0}},
		},
		Clients: []model.Client{{
			ID: 0, Class: 0, ArrivalRate: 1, PredictedRate: 1,
			ProcTime: 0.5, CommTime: 0.5, DiskNeed: 1,
		}},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSimulateMatchesMM1Theory(t *testing.T) {
	scen := singleQueueScenario(t)
	a := alloc.New(scen)
	// Shares 0.5 → μ = 4 per stage, λ = 1 → per-stage W = 1/3, R̄ = 2/3.
	if err := a.Assign(0, 0, []alloc.Portion{{Server: 0, Alpha: 1, ProcShare: 0.5, CommShare: 0.5}}); err != nil {
		t.Fatal(err)
	}
	cfg := Config{Horizon: 200000, Seed: 1}
	res, err := Simulate(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cs := res.Clients[0]
	if cs.Completed < 100000 {
		t.Fatalf("only %d completions", cs.Completed)
	}
	want := 2.0 / 3
	if math.Abs(cs.MeanResponse-want) > 0.02 {
		t.Fatalf("measured R̄ = %v, want ≈ %v", cs.MeanResponse, want)
	}
	if math.Abs(cs.AnalyticMean-want) > 1e-9 {
		t.Fatalf("analytic R̄ = %v, want %v", cs.AnalyticMean, want)
	}
	// Measured utilization ≈ analytic λ·t/C = 0.125.
	if math.Abs(res.Servers[0].Busy-res.Servers[0].Analytic) > 0.01 {
		t.Fatalf("utilization: measured %v vs analytic %v", res.Servers[0].Busy, res.Servers[0].Analytic)
	}
	// Simulated profit should approximate the analytic profit closely.
	if math.Abs(res.Profit-res.AnalyticValue) > 0.1*math.Abs(res.AnalyticValue) {
		t.Fatalf("profit: simulated %v vs analytic %v", res.Profit, res.AnalyticValue)
	}
}

func TestSimulateSplitStreams(t *testing.T) {
	scen := singleQueueScenario(t)
	// Add a second server so the client can split 50/50.
	scen.Cloud.Servers = append(scen.Cloud.Servers, model.Server{ID: 1, Class: 0, Cluster: 0})
	scen.Cloud.Clusters[0].Servers = append(scen.Cloud.Clusters[0].Servers, 1)
	if err := scen.Validate(); err != nil {
		t.Fatal(err)
	}
	a := alloc.New(scen)
	portions := []alloc.Portion{
		{Server: 0, Alpha: 0.5, ProcShare: 0.25, CommShare: 0.25},
		{Server: 1, Alpha: 0.5, ProcShare: 0.25, CommShare: 0.25},
	}
	if err := a.Assign(0, 0, portions); err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(a, Config{Horizon: 200000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Each portion: μ = 2, λ = 0.5 → W = 2/3 per stage → R̄ = 4/3.
	want := 4.0 / 3
	got := res.Clients[0].MeanResponse
	if math.Abs(got-want) > 0.04 {
		t.Fatalf("split-stream R̄ = %v, want ≈ %v", got, want)
	}
	if math.Abs(res.Clients[0].AnalyticMean-want) > 1e-9 {
		t.Fatalf("analytic = %v", res.Clients[0].AnalyticMean)
	}
}

func TestSimulateConfigValidation(t *testing.T) {
	scen := singleQueueScenario(t)
	a := alloc.New(scen)
	if _, err := Simulate(a, Config{Horizon: 0}); err == nil {
		t.Fatal("zero horizon accepted")
	}
	if _, err := Simulate(a, Config{Horizon: -10}); err == nil {
		t.Fatal("negative horizon accepted")
	}
}

// TestSimulateRejectsNonFiniteHorizon: a NaN or +Inf horizon never ends
// the event loop, so it must be refused up front. Each call runs on its
// own goroutine so that a regression fails here instead of hanging.
func TestSimulateRejectsNonFiniteHorizon(t *testing.T) {
	scen := singleQueueScenario(t)
	a := alloc.New(scen)
	if err := a.Assign(0, 0, []alloc.Portion{{Server: 0, Alpha: 1, ProcShare: 0.5, CommShare: 0.5}}); err != nil {
		t.Fatal(err)
	}
	for _, h := range []float64{math.NaN(), math.Inf(1)} {
		done := make(chan error, 1)
		go func() {
			_, err := Simulate(a, Config{Horizon: h, Seed: 1})
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("horizon %v accepted", h)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("horizon %v: Simulate still running after 5s", h)
		}
	}
}

func TestSimulateEmptyAllocation(t *testing.T) {
	scen := singleQueueScenario(t)
	a := alloc.New(scen)
	res, err := Simulate(a, Config{Horizon: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 0 || res.Profit != 0 {
		t.Fatalf("empty allocation produced work: %+v", res)
	}
}

// TestSimulateValidatesSolvedAllocation: the end-to-end validation bench
// in miniature — solve a paper-shaped scenario and check the analytical
// response times against measurement.
func TestSimulateValidatesSolvedAllocation(t *testing.T) {
	wcfg := workload.DefaultConfig()
	wcfg.NumClients = 20
	wcfg.Seed = 11
	scen, err := workload.Generate(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	solver, err := core.NewSolver(scen, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	a, _, err := solver.Solve()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(a, Config{Horizon: 30000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	var checked int
	for i, cs := range res.Clients {
		if cs.Completed < 2000 {
			continue
		}
		checked++
		if cs.AnalyticMean <= 0 {
			t.Fatalf("client %d: analytic mean %v", i, cs.AnalyticMean)
		}
		relErr := math.Abs(cs.MeanResponse-cs.AnalyticMean) / cs.AnalyticMean
		if relErr > 0.25 {
			t.Errorf("client %d: measured %v vs analytic %v (rel err %.2f)",
				i, cs.MeanResponse, cs.AnalyticMean, relErr)
		}
	}
	if checked < 10 {
		t.Fatalf("only %d clients had enough completions", checked)
	}
}

func TestSimulateP95MatchesAnalyticTail(t *testing.T) {
	scen := singleQueueScenario(t)
	a := alloc.New(scen)
	if err := a.Assign(0, 0, []alloc.Portion{{Server: 0, Alpha: 1, ProcShare: 0.5, CommShare: 0.5}}); err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(a, Config{Horizon: 200000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Clients[0].P95
	want, err := queueing.TandemSojournPercentile(
		queueing.PortionShares{Proc: 0.5, Comm: 0.5},
		queueing.ServerCaps{Proc: 4, Comm: 4},
		queueing.ExecTimes{Proc: 0.5, Comm: 0.5},
		1, 0.95,
	)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want)/want > 0.1 {
		t.Fatalf("measured P95 %v vs analytic %v", got, want)
	}
	if got <= res.Clients[0].MeanResponse {
		t.Fatal("P95 must exceed the mean")
	}
}

func TestReservoirPercentile(t *testing.T) {
	r := newReservoir(8)
	rng := rand.New(rand.NewSource(1))
	for _, v := range []float64{5, 1, 3, 2, 4} {
		r.add(rng, v)
	}
	if got := r.percentile(0.5); got != 3 {
		t.Fatalf("median = %v, want 3", got)
	}
	if got := r.percentile(0); got != 1 {
		t.Fatalf("p0 = %v, want 1", got)
	}
	if got := r.percentile(1); got != 5 {
		t.Fatalf("p100 = %v, want 5", got)
	}
	empty := newReservoir(4)
	if got := empty.percentile(0.5); got != 0 {
		t.Fatalf("empty percentile = %v", got)
	}
	// Overflow keeps the sample bounded.
	big := newReservoir(16)
	for i := 0; i < 10000; i++ {
		big.add(rng, float64(i))
	}
	if len(big.samples) != 16 {
		t.Fatalf("reservoir grew to %d", len(big.samples))
	}
}

func TestSimulateDeterministic(t *testing.T) {
	scen := singleQueueScenario(t)
	a := alloc.New(scen)
	if err := a.Assign(0, 0, []alloc.Portion{{Server: 0, Alpha: 1, ProcShare: 0.5, CommShare: 0.5}}); err != nil {
		t.Fatal(err)
	}
	cfg := Config{Horizon: 2000, Seed: 7}
	r1, err := Simulate(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Simulate(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Completed != r2.Completed || r1.Clients[0].MeanResponse != r2.Clients[0].MeanResponse {
		t.Fatalf("same seed diverged: %v vs %v", r1.Clients[0], r2.Clients[0])
	}
	cfg.Seed = 8
	r3, err := Simulate(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Completed == r1.Completed && r3.Clients[0].MeanResponse == r1.Clients[0].MeanResponse {
		t.Fatal("different seeds produced identical runs")
	}
}

// BenchmarkSimulate is the discrete-event simulator's throughput.
func BenchmarkSimulate(b *testing.B) {
	wcfg := workload.DefaultConfig()
	wcfg.NumClients = 30
	wcfg.Seed = 12
	scen, err := workload.Generate(wcfg)
	if err != nil {
		b.Fatal(err)
	}
	solver, err := core.NewSolver(scen, core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	a, _, err := solver.Solve()
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{Horizon: 2000, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		res, err := Simulate(a, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Completed == 0 {
			b.Fatal("no completions")
		}
	}
}
