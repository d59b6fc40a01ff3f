package cluster

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/workload"
)

var testCtx = context.Background()

func genScenario(t *testing.T, n int, seed int64) *model.Scenario {
	t.Helper()
	cfg := workload.DefaultConfig()
	cfg.NumClients = n
	cfg.Seed = seed
	scen, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return scen
}

func localAgents(t *testing.T, scen *model.Scenario) []Agent {
	t.Helper()
	agents := make([]Agent, scen.Cloud.NumClusters())
	for k := range agents {
		ag, err := NewLocalAgent(scen, model.ClusterID(k), core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		agents[k] = ag
	}
	return agents
}

func TestNewLocalAgentValidation(t *testing.T) {
	scen := genScenario(t, 5, 1)
	if _, err := NewLocalAgent(scen, 99, core.DefaultConfig()); err == nil {
		t.Fatal("unknown cluster accepted")
	}
	bad := core.DefaultConfig()
	bad.AlphaGranularity = 0
	if _, err := NewLocalAgent(scen, 0, bad); err == nil {
		t.Fatal("bad config accepted")
	}
}

func TestNewManagerValidation(t *testing.T) {
	scen := genScenario(t, 5, 1)
	agents := localAgents(t, scen)
	if _, err := NewManager(scen, agents[:2], DefaultManagerConfig()); err == nil {
		t.Fatal("wrong agent count accepted")
	}
	// Agents out of order.
	swapped := append([]Agent(nil), agents...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	if _, err := NewManager(scen, swapped, DefaultManagerConfig()); err == nil {
		t.Fatal("misordered agents accepted")
	}
	bad := DefaultManagerConfig()
	bad.NumInitSolutions = 0
	if _, err := NewManager(scen, agents, bad); err == nil {
		t.Fatal("bad config accepted")
	}
}

func TestAgentLifecycle(t *testing.T) {
	scen := genScenario(t, 10, 2)
	ag, err := NewLocalAgent(scen, 0, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer ag.Close()
	if k, err := ag.ClusterID(testCtx); err != nil || k != 0 {
		t.Fatalf("ClusterID = %v, %v", k, err)
	}
	bid, err := ag.Evaluate(testCtx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bid.Feasible {
		t.Fatal("fresh cluster should host client 0")
	}
	if err := ag.Commit(testCtx, 0, bid.Portions); err != nil {
		t.Fatal(err)
	}
	p1, err := ag.Profit(testCtx)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := ag.Snapshot(testCtx)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) != 1 || len(snap[0]) == 0 {
		t.Fatalf("snapshot = %v", snap)
	}
	if _, err := ag.Improve(testCtx); err != nil {
		t.Fatal(err)
	}
	if err := ag.Remove(testCtx, 0); err != nil {
		t.Fatal(err)
	}
	p2, err := ag.Profit(testCtx)
	if err != nil {
		t.Fatal(err)
	}
	if p2 != 0 {
		t.Fatalf("profit after removal = %v", p2)
	}
	if p1 == 0 {
		t.Fatal("profit with a client should be nonzero")
	}
	if err := ag.Reset(testCtx); err != nil {
		t.Fatal(err)
	}
}

func TestManagerSolveMatchesQuality(t *testing.T) {
	scen := genScenario(t, 30, 3)
	mgr, err := NewManager(scen, localAgents(t, scen), DefaultManagerConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	a, stats, err := mgr.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.NumAssigned() != 30 {
		t.Fatalf("assigned %d of 30", a.NumAssigned())
	}
	if math.Abs(a.Profit()-stats.FinalProfit) > 1e-6 {
		t.Fatalf("merged profit %v != reported %v", a.Profit(), stats.FinalProfit)
	}
	if stats.FinalProfit < stats.InitialProfit-1e-9 {
		t.Fatalf("improvement rounds regressed: %+v", stats)
	}
	// Stage attribution: the three deltas are defined as differences, so
	// the identity is exact, and the endpoints must match the stats.
	at := stats.Attribution
	if at.Initial != stats.InitialProfit || at.Final != stats.FinalProfit {
		t.Fatalf("attribution endpoints %+v disagree with stats %+v", at, stats)
	}
	if got := at.Initial + at.Improve + at.CentralReassign; math.Abs(got-at.Final) > 1e-9 {
		t.Fatalf("attribution %+v does not sum to final: %v", at, got)
	}

	// The distributed solve should be competitive with the sequential
	// solver on the same scenario (same building blocks, same greedy).
	solver, err := core.NewSolver(scen, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	seq, _, err := solver.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if a.Profit() < 0.9*seq.Profit() {
		t.Fatalf("distributed profit %v far below sequential %v", a.Profit(), seq.Profit())
	}
}

func TestManagerCentralReassign(t *testing.T) {
	scen := genScenario(t, 30, 3)
	agents := localAgents(t, scen)
	mgr, err := NewManager(scen, agents, DefaultManagerConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	a, st, err := mgr.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	// The polish runs on the merged copy, so the agents still hold the
	// pre-polish state: the distributed rounds' result.
	var prePolish float64
	var preAssigned int
	for _, ag := range agents {
		p, err := ag.Profit(testCtx)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := ag.Snapshot(testCtx)
		if err != nil {
			t.Fatal(err)
		}
		prePolish += p
		preAssigned += len(snap)
	}
	// The polish must never drop a served client (it runs without
	// admission control) and must never lose profit.
	if a.NumAssigned() != preAssigned {
		t.Fatalf("polish changed assignment count: %d vs %d", a.NumAssigned(), preAssigned)
	}
	if a.Profit() < prePolish-1e-9 {
		t.Fatalf("central reassign lost profit: %v -> %v", prePolish, a.Profit())
	}
	if math.Abs(a.Profit()-st.FinalProfit) > 1e-6 {
		t.Fatalf("merged profit %v != reported %v", a.Profit(), st.FinalProfit)
	}
	if got := st.Attribution.Initial + st.Attribution.Improve; math.Abs(got-prePolish) > 1e-6*(1+math.Abs(prePolish)) {
		t.Fatalf("pre-polish attribution %v != agents' profit %v", got, prePolish)
	}
}

func TestManagerDeterministic(t *testing.T) {
	scen := genScenario(t, 15, 4)
	m1, err := NewManager(scen, localAgents(t, scen), DefaultManagerConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer m1.Close()
	m2, err := NewManager(scen, localAgents(t, scen), DefaultManagerConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	a1, _, err := m1.Solve()
	if err != nil {
		t.Fatal(err)
	}
	a2, _, err := m2.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a1.Profit()-a2.Profit()) > 1e-9 {
		t.Fatalf("same seed, different profits: %v vs %v", a1.Profit(), a2.Profit())
	}
}

// failingAgent wraps a LocalAgent and fails selected operations, to
// exercise the manager's error propagation.
type failingAgent struct {
	Agent

	failEvaluate bool
	failImprove  bool
	failSnapshot bool
	failReset    bool
}

func (f *failingAgent) Evaluate(ctx context.Context, id model.ClientID) (EvalResult, error) {
	if f.failEvaluate {
		return EvalResult{}, errTestInjected
	}
	return f.Agent.Evaluate(ctx, id)
}

func (f *failingAgent) Improve(ctx context.Context) (ImproveStats, error) {
	if f.failImprove {
		return ImproveStats{}, errTestInjected
	}
	return f.Agent.Improve(ctx)
}

func (f *failingAgent) Snapshot(ctx context.Context) (map[model.ClientID][]alloc.Portion, error) {
	if f.failSnapshot {
		return nil, errTestInjected
	}
	return f.Agent.Snapshot(ctx)
}

func (f *failingAgent) Reset(ctx context.Context) error {
	if f.failReset {
		return errTestInjected
	}
	return f.Agent.Reset(ctx)
}

var errTestInjected = errors.New("injected failure")

func TestManagerPropagatesAgentFailures(t *testing.T) {
	scen := genScenario(t, 8, 5)
	tests := []struct {
		name   string
		mutate func(*failingAgent)
	}{
		{"evaluate", func(f *failingAgent) { f.failEvaluate = true }},
		{"improve", func(f *failingAgent) { f.failImprove = true }},
		{"snapshot", func(f *failingAgent) { f.failSnapshot = true }},
		{"reset", func(f *failingAgent) { f.failReset = true }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			agents := localAgents(t, scen)
			fa := &failingAgent{Agent: agents[2]}
			tt.mutate(fa)
			agents[2] = fa
			mgr, err := NewManager(scen, agents, DefaultManagerConfig())
			if err != nil {
				t.Fatal(err)
			}
			defer mgr.Close()
			if _, _, err := mgr.Solve(); !errors.Is(err, errTestInjected) {
				t.Fatalf("err = %v, want injected failure", err)
			}
		})
	}
}

func TestEvaluateReportsInfeasibleAsPass(t *testing.T) {
	// An agent whose cluster cannot host a client bids "not feasible"
	// rather than erroring, so one full cluster cannot stall the manager.
	cfg := workload.DefaultConfig()
	cfg.NumClients = 2
	cfg.NumClusters = 2
	cfg.MinServersPerCluster = 1
	cfg.MaxServersPerCluster = 1
	cfg.Seed = 6
	cfg.DiskNeed = workload.Range{Min: 100, Max: 100} // nothing fits anywhere
	scen, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ag, err := NewLocalAgent(scen, 0, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	bid, err := ag.Evaluate(testCtx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if bid.Feasible {
		t.Fatal("impossible placement reported feasible")
	}
}

func TestEvaluateReportsBrokenBidAsError(t *testing.T) {
	// Only core.ErrCannotPlace is a "pass"; an evaluation that itself
	// fails (here: the agent's cluster does not exist) must reach the
	// manager as an error, not as a silent infeasible bid.
	scen := genScenario(t, 3, 6)
	ag, err := NewLocalAgent(scen, 0, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ag.k = 99
	_, err = ag.Evaluate(testCtx, 0)
	if err == nil {
		t.Fatal("evaluation on an unknown cluster reported as a pass")
	}
	if errors.Is(err, core.ErrCannotPlace) || !strings.Contains(err.Error(), "cluster 99") {
		t.Fatalf("err = %v, want an error naming cluster 99", err)
	}
}
