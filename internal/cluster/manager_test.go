package cluster

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/alloc"
	"repro/internal/model"
	"repro/internal/workload"
)

// TestBidOrdering: the initial pass tries commits in estimate-descending
// order, cluster index ascending on ties, for any input order.
func TestBidOrdering(t *testing.T) {
	tests := []struct {
		name string
		in   []bidRef
		want []int // expected cluster index commit order
	}{
		{"empty", nil, nil},
		{"single", []bidRef{{est: 1, k: 0}}, []int{0}},
		{
			"descending estimates",
			[]bidRef{{est: 1, k: 0}, {est: 3, k: 1}, {est: 2, k: 2}},
			[]int{1, 2, 0},
		},
		{
			"ties break on lower cluster",
			[]bidRef{{est: 5, k: 3}, {est: 5, k: 1}, {est: 5, k: 2}},
			[]int{1, 2, 3},
		},
		{
			"duplicates survive",
			[]bidRef{{est: 2, k: 1}, {est: 2, k: 1}, {est: 7, k: 0}},
			[]int{0, 1, 1},
		},
		{
			"negative and zero estimates",
			[]bidRef{{est: -1, k: 0}, {est: 0, k: 1}, {est: -3, k: 2}},
			[]int{1, 0, 2},
		},
		{
			"already sorted input",
			[]bidRef{{est: 9, k: 0}, {est: 8, k: 1}, {est: 7, k: 2}, {est: 6, k: 3}},
			[]int{0, 1, 2, 3},
		},
		{
			"reverse sorted input",
			[]bidRef{{est: 6, k: 3}, {est: 7, k: 2}, {est: 8, k: 1}, {est: 9, k: 0}},
			[]int{0, 1, 2, 3},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			in := slices.Clone(tt.in)
			slices.SortFunc(in, compareBids)
			var got []int
			for _, b := range in {
				got = append(got, b.k)
			}
			if !slices.Equal(got, tt.want) {
				t.Fatalf("commit order %v, want %v", got, tt.want)
			}
		})
	}
}

// TestMergeRejectsDuplicateClient: two agents both claiming the same
// client is a state corruption the merge must refuse, not silently
// double-count.
func TestMergeRejectsDuplicateClient(t *testing.T) {
	cfg := workload.DefaultConfig()
	cfg.NumClients = 4
	cfg.NumClusters = 2
	cfg.Seed = 11
	scen, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	agents := localAgents(t, scen)
	// Commit client 0 into BOTH agents: each agent's local state is
	// fine in isolation; only the merge can see the conflict.
	for _, ag := range agents {
		bid, err := ag.Evaluate(testCtx, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !bid.Feasible {
			t.Skip("client 0 infeasible in generated scenario")
		}
		if err := ag.Commit(testCtx, 0, bid.Portions); err != nil {
			t.Fatal(err)
		}
	}
	mgr, err := NewManager(scen, agents, DefaultManagerConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	if _, err := mgr.merge(testCtx); err == nil {
		t.Fatal("merge accepted a client assigned to two clusters")
	} else if !strings.Contains(err.Error(), "merge client 0") {
		t.Fatalf("unexpected merge error: %v", err)
	}
}

// rejectAgent bids infeasible for everything — the all-full cloud.
type rejectAgent struct {
	id model.ClusterID
}

func (r *rejectAgent) ClusterID(ctx context.Context) (model.ClusterID, error) { return r.id, nil }
func (r *rejectAgent) Reset(ctx context.Context) error                        { return nil }
func (r *rejectAgent) Evaluate(ctx context.Context, id model.ClientID) (EvalResult, error) {
	return EvalResult{Feasible: false}, nil
}
func (r *rejectAgent) Commit(ctx context.Context, id model.ClientID, p []alloc.Portion) error {
	panic("commit on all-reject agent")
}
func (r *rejectAgent) Remove(ctx context.Context, id model.ClientID) error { return nil }
func (r *rejectAgent) Improve(ctx context.Context) (ImproveStats, error)   { return ImproveStats{}, nil }
func (r *rejectAgent) Profit(ctx context.Context) (float64, error)         { return 0, nil }
func (r *rejectAgent) Snapshot(ctx context.Context) (map[model.ClientID][]alloc.Portion, error) {
	return nil, nil
}
func (r *rejectAgent) Close() error { return nil }

// scriptAgent bids a fixed estimate for every client and, when told to,
// fails every Commit. attempts logs each Commit's cluster in call order
// (initialPass commits serially, so the shared log needs no lock).
type scriptAgent struct {
	rejectAgent
	est      float64
	feasible bool
	fail     bool
	attempts *[]int
}

func (s *scriptAgent) Evaluate(ctx context.Context, id model.ClientID) (EvalResult, error) {
	return EvalResult{Feasible: s.feasible, Est: s.est}, nil
}

func (s *scriptAgent) Commit(ctx context.Context, id model.ClientID, p []alloc.Portion) error {
	*s.attempts = append(*s.attempts, int(s.id))
	if s.fail {
		return errTestInjected
	}
	return nil
}

// TestInitialPassFallsThroughFailedCommit: when the best bidder's Commit
// fails, the client lands on the runner-up bid — on an estimate tie the
// lower cluster — and every feasible bid is tried once before the client
// is left unplaced.
func TestInitialPassFallsThroughFailedCommit(t *testing.T) {
	type bid struct {
		est            float64
		feasible, fail bool
	}
	tests := []struct {
		name     string
		bids     []bid // one per cluster
		attempts []int
		landed   int // -1: unplaced
	}{
		{
			"runner-up",
			[]bid{{7, true, false}, {3, true, false}, {9, true, true}, {20, false, false}, {1, true, false}},
			[]int{2, 0}, 0,
		},
		{
			"tie breaks on lower cluster",
			[]bid{{2, true, false}, {9, true, true}, {5, true, false}, {5, true, false}, {20, false, false}},
			[]int{1, 2}, 2,
		},
		{
			"every commit fails",
			[]bid{{4, true, true}, {4, true, true}, {6, true, true}, {20, false, false}, {-1, true, true}},
			[]int{2, 0, 1, 4}, -1,
		},
	}
	scen := genScenario(t, 1, 1)
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if len(tt.bids) != scen.Cloud.NumClusters() {
				t.Fatalf("%d bids for %d clusters", len(tt.bids), scen.Cloud.NumClusters())
			}
			var attempts []int
			agents := make([]Agent, len(tt.bids))
			for k, b := range tt.bids {
				agents[k] = &scriptAgent{
					rejectAgent: rejectAgent{id: model.ClusterID(k)},
					est:         b.est, feasible: b.feasible, fail: b.fail,
					attempts: &attempts,
				}
			}
			mgr, err := NewManager(scen, agents, DefaultManagerConfig())
			if err != nil {
				t.Fatal(err)
			}
			defer mgr.Close()
			assignments, _, err := mgr.initialPass(testCtx, rand.New(rand.NewSource(1)))
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(attempts, tt.attempts) {
				t.Fatalf("Commit attempts %v, want %v", attempts, tt.attempts)
			}
			as, ok := assignments[0]
			switch {
			case tt.landed < 0 && ok:
				t.Fatalf("client placed on cluster %d after every commit failed", as.cluster)
			case tt.landed >= 0 && (!ok || int(as.cluster) != tt.landed):
				t.Fatalf("client landed on %v (placed %v), want cluster %d", as.cluster, ok, tt.landed)
			}
		})
	}
}

// TestSolveAllReject: when no cluster accepts any client the solve
// still terminates cleanly with zero profit and every client unplaced —
// and never commits anything. No client fits any server's disk, so the
// central polish finds no placement either.
func TestSolveAllReject(t *testing.T) {
	scen := genScenario(t, 6, 3)
	for i := range scen.Clients {
		scen.Clients[i].DiskNeed = math.Inf(1)
	}
	agents := make([]Agent, scen.Cloud.NumClusters())
	for k := range agents {
		agents[k] = &rejectAgent{id: model.ClusterID(k)}
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
	if stats.FinalProfit != 0 {
		t.Fatalf("profit %f from an all-reject cloud", stats.FinalProfit)
	}
	if stats.Unplaced != scen.NumClients() {
		t.Fatalf("Unplaced = %d, want %d", stats.Unplaced, scen.NumClients())
	}
	if a.NumAssigned() != 0 {
		t.Fatalf("%d clients assigned by rejecting agents", a.NumAssigned())
	}
}

// TestSolveSingleAgentDegenerate: one cluster, no peers to bid against —
// the solve degenerates to that agent's local search and must still
// satisfy the attribution identity.
func TestSolveSingleAgentDegenerate(t *testing.T) {
	cfg := workload.DefaultConfig()
	cfg.NumClients = 6
	cfg.NumClusters = 1
	cfg.Seed = 9
	scen, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	agents := localAgents(t, scen)
	if len(agents) != 1 {
		t.Fatalf("%d agents for a 1-cluster scenario", len(agents))
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
	if math.Abs(a.Profit()-stats.FinalProfit) > 1e-9*(1+math.Abs(stats.FinalProfit)) {
		t.Fatalf("allocation profit %f != stats profit %f", a.Profit(), stats.FinalProfit)
	}
	at := stats.Attribution
	if got := at.Initial + at.Improve + at.CentralReassign; math.Abs(got-at.Final) > 1e-6*(1+math.Abs(at.Final)) {
		t.Fatalf("attribution identity broken: %+v", at)
	}
}

// TestManagerConfigFaultFieldsValidation: the fan-out bound rejects
// negatives like every other config field.
func TestManagerConfigFaultFieldsValidation(t *testing.T) {
	scen := genScenario(t, 5, 1)
	agents := localAgents(t, scen)
	bad := DefaultManagerConfig()
	bad.MaxInFlight = -1
	if _, err := NewManager(scen, agents, bad); err == nil {
		t.Fatal("negative MaxInFlight accepted")
	}
	// And the good path: an explicit bound works end to end.
	good := DefaultManagerConfig()
	good.MaxInFlight = 2
	mgr, err := NewManager(scen, agents, good)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	if _, _, err := mgr.Solve(); err != nil {
		t.Fatal(err)
	}
}
