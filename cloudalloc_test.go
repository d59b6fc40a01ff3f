package cloudalloc

import (
	"context"
	"math/rand"
	"net"
	"path/filepath"
	"testing"

	"repro/internal/online"
)

func genScenario(t *testing.T, n int, seed int64) *Scenario {
	t.Helper()
	cfg := DefaultWorkloadConfig()
	cfg.NumClients = n
	cfg.Seed = seed
	scen, err := GenerateScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return scen
}

func TestPublicAPISolve(t *testing.T) {
	scen := genScenario(t, 30, 1)
	al, err := NewAllocator(scen, WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	a, stats, err := al.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.Profit() <= 0 {
		t.Fatalf("profit %v", a.Profit())
	}
	if stats.FinalProfit < stats.InitialProfit-1e-9 {
		t.Fatalf("stats: %+v", stats)
	}
	b := a.ProfitBreakdown()
	if b.Revenue <= b.EnergyCost {
		t.Fatalf("revenue %v should exceed cost %v on a paper-shaped instance", b.Revenue, b.EnergyCost)
	}
}

func TestPublicAPIOptionsValidated(t *testing.T) {
	scen := genScenario(t, 5, 1)
	for name, opt := range map[string]Option{
		"workers":            WithWorkers(-1),
		"shards":             WithShards(-1),
		"candidate clusters": WithCandidateClusters(-1),
	} {
		if _, err := NewAllocator(scen, opt); err == nil {
			t.Errorf("negative %s accepted", name)
		}
	}
}

func TestPublicAPIBaselines(t *testing.T) {
	scen := genScenario(t, 20, 3)
	ps, err := SolveModifiedPS(scen, DefaultPSConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := ps.Validate(); err != nil {
		t.Fatal(err)
	}
	mc := DefaultMCConfig()
	mc.Draws = 5
	env, err := RunMonteCarlo(scen, mc)
	if err != nil {
		t.Fatal(err)
	}
	if env.Best == nil {
		t.Fatal("no best MC allocation")
	}

	al, err := NewAllocator(scen)
	if err != nil {
		t.Fatal(err)
	}
	ra, err := al.RandomAllocation(rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if err := ra.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPISimulate(t *testing.T) {
	scen := genScenario(t, 10, 4)
	al, err := NewAllocator(scen)
	if err != nil {
		t.Fatal(err)
	}
	a, _, err := al.Solve()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultSimConfig()
	cfg.Horizon = 2000
	res, err := Simulate(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 {
		t.Fatal("simulation completed no requests")
	}
}

func TestPublicAPIDistributed(t *testing.T) {
	scen := genScenario(t, 15, 5)
	agents := make([]Agent, scen.Cloud.NumClusters())
	for k := range agents {
		ag, err := NewLocalAgent(scen, ClusterID(k))
		if err != nil {
			t.Fatal(err)
		}
		agents[k] = ag
	}
	mgr, err := NewManager(scen, agents, DefaultManagerConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	a, stats, err := mgr.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if a.NumAssigned() != 15 {
		t.Fatalf("assigned %d, stats %+v", a.NumAssigned(), stats)
	}
}

func TestPublicAPIDistributedTCP(t *testing.T) {
	scen := genScenario(t, 10, 6)
	local, err := NewLocalAgent(scen, 0)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeAgent(l, local, nil)
	go srv.Serve()
	defer srv.Close()
	remote, err := DialAgent(l.Addr().String(), DefaultAgentCallPolicy(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	if k, err := remote.ClusterID(context.Background()); err != nil || k != 0 {
		t.Fatalf("remote ClusterID = %v, %v", k, err)
	}
}

func TestPublicAPIScenarioRoundTrip(t *testing.T) {
	scen := genScenario(t, 5, 7)
	path := filepath.Join(t.TempDir(), "s.json")
	if err := scen.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadScenario(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumClients() != 5 {
		t.Fatalf("loaded %d clients", got.NumClients())
	}
}

func TestPublicAPIOnlineService(t *testing.T) {
	scen := genScenario(t, 20, 9)
	// First five clients start absent so the churn stream has arrivals.
	for i := 0; i < 5; i++ {
		scen.Clients[i].ArrivalRate = 0
		scen.Clients[i].PredictedRate = 0
	}
	svc, err := NewOnlineService(scen, DefaultOnlineConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	ccfg := online.DefaultChurnConfig()
	ccfg.Events = 500
	churn := online.NewChurn(scen, ccfg)
	var admits int
	for {
		ev, ok := churn.Next()
		if !ok {
			break
		}
		if d := svc.Decide(ev); ev.Kind == OnlineArrive && d.Admitted {
			admits++
		}
	}
	if admits == 0 {
		t.Fatal("no arrival admitted over 500 churn events")
	}
	a := svc.Flush()
	if err := a.Validate(); err != nil {
		t.Fatalf("flushed allocation invalid: %v", err)
	}
	if svc.Profit() <= 0 {
		t.Fatalf("profit %v after churn", svc.Profit())
	}
}
