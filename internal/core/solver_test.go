package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/alloc"
	"repro/internal/model"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// smallScenario generates a paper-shaped scenario with n clients.
func smallScenario(t *testing.T, n int, seed int64) *model.Scenario {
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

func newTestSolver(t *testing.T, scen *model.Scenario, mutate func(*Config)) *Solver {
	t.Helper()
	cfg := DefaultConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := NewSolver(scen, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSolverValidation(t *testing.T) {
	if _, err := NewSolver(nil, DefaultConfig()); err == nil {
		t.Fatal("nil scenario accepted")
	}
	scen := smallScenario(t, 5, 1)
	bad := DefaultConfig()
	bad.AlphaGranularity = 0
	if _, err := NewSolver(scen, bad); err == nil {
		t.Fatal("invalid config accepted")
	}
	// The DP's back-pointers are int16: a finer grid would wrap them and
	// turn every client into ErrCannotPlace.
	bad.AlphaGranularity = math.MaxInt16 + 1
	if _, err := NewSolver(scen, bad); err == nil {
		t.Fatal("AlphaGranularity beyond math.MaxInt16 accepted")
	}
	bad2 := DefaultConfig()
	bad2.NumInitSolutions = 0
	if _, err := NewSolver(scen, bad2); err == nil {
		t.Fatal("zero init solutions accepted")
	}
}

// TestConfigRejectsNaNShadowPriceScale: a NaN scale fails the "> 0"
// check like a non-positive one; it would make every η NaN.
func TestConfigRejectsNaNShadowPriceScale(t *testing.T) {
	c := DefaultConfig()
	c.ShadowPriceScale = math.NaN()
	if err := c.Validate(); err == nil {
		t.Fatal("NaN ShadowPriceScale accepted")
	}
}

func TestAssignDistributeProducesFeasiblePortions(t *testing.T) {
	scen := smallScenario(t, 10, 2)
	s := newTestSolver(t, scen, nil)
	a := alloc.New(scen)
	for i := 0; i < scen.NumClients(); i++ {
		id := model.ClientID(i)
		est, portions, err := s.AssignDistribute(a, id, 0)
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
		if math.IsInf(est, 0) || math.IsNaN(est) {
			t.Fatalf("client %d: estimate %v", i, est)
		}
		var alphaSum float64
		for _, p := range portions {
			alphaSum += p.Alpha
			if scen.Cloud.Servers[p.Server].Cluster != 0 {
				t.Fatalf("portion outside requested cluster: %+v", p)
			}
		}
		if math.Abs(alphaSum-1) > 1e-9 {
			t.Fatalf("client %d: Σα = %v", i, alphaSum)
		}
		if err := a.Assign(id, 0, portions); err != nil {
			t.Fatalf("client %d: returned portions rejected: %v", i, err)
		}
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAssignDistributeUnknownCluster(t *testing.T) {
	scen := smallScenario(t, 3, 1)
	s := newTestSolver(t, scen, nil)
	a := alloc.New(scen)
	if _, _, err := s.AssignDistribute(a, 0, 99); err == nil {
		t.Fatal("unknown cluster accepted")
	}
}

func TestAssignDistributeDoesNotMutate(t *testing.T) {
	scen := smallScenario(t, 5, 3)
	s := newTestSolver(t, scen, nil)
	a := alloc.New(scen)
	if _, _, err := s.AssignDistribute(a, 0, 1); err != nil {
		t.Fatal(err)
	}
	if a.NumAssigned() != 0 || a.NumActiveServers() != 0 {
		t.Fatal("AssignDistribute mutated the allocation")
	}
}

func TestInitialSolutionAssignsEveryone(t *testing.T) {
	scen := smallScenario(t, 40, 4)
	// Without admission control the greedy must place every client the
	// cloud can feasibly host (paper constraint (6)).
	s := newTestSolver(t, scen, func(c *Config) { c.AdmissionControl = false })
	a, err := s.InitialSolution(rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if got := a.NumAssigned(); got != 40 {
		t.Fatalf("assigned %d of 40 clients", got)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.Profit() <= 0 {
		t.Fatalf("initial profit %v should be positive on a paper-shaped instance", a.Profit())
	}
}

func TestSolveImprovesOnInitial(t *testing.T) {
	scen := smallScenario(t, 50, 5)
	s := newTestSolver(t, scen, nil)
	a, stats, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if stats.FinalProfit < stats.InitialProfit-1e-9 {
		t.Fatalf("local search regressed: initial %v final %v", stats.InitialProfit, stats.FinalProfit)
	}
	if math.Abs(a.Profit()-stats.FinalProfit) > 1e-9 {
		t.Fatalf("stats profit %v != allocation profit %v", stats.FinalProfit, a.Profit())
	}
	if stats.LocalSearchIters == 0 {
		t.Fatal("local search did not run")
	}
	if stats.Elapsed <= 0 {
		t.Fatal("elapsed time not recorded")
	}
}

func TestSolveDeterministic(t *testing.T) {
	scen := smallScenario(t, 30, 6)
	s1 := newTestSolver(t, scen, nil)
	s2 := newTestSolver(t, scen, nil)
	a1, _, err := s1.Solve()
	if err != nil {
		t.Fatal(err)
	}
	a2, _, err := s2.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a1.Profit()-a2.Profit()) > 1e-12 {
		t.Fatalf("same seed, different profit: %v vs %v", a1.Profit(), a2.Profit())
	}
}

func TestSolveParallelMatchesSequential(t *testing.T) {
	scen := smallScenario(t, 30, 7)
	seq := newTestSolver(t, scen, nil)
	par := newTestSolver(t, scen, func(c *Config) { c.Parallel = true })
	a1, st1, err := seq.Solve()
	if err != nil {
		t.Fatal(err)
	}
	a2, st2, err := par.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a1.Profit()-a2.Profit()) > 1e-9 {
		t.Fatalf("parallel %v != sequential %v", a2.Profit(), a1.Profit())
	}
	// The per-part fold must not lose counts.
	if st1.Activations != st2.Activations || st1.Deactivations != st2.Deactivations ||
		st1.Reassignments != st2.Reassignments || st1.LocalSearchIters != st2.LocalSearchIters {
		t.Fatalf("parallel counts differ from sequential:\nseq %+v\npar %+v", st1, st2)
	}
	if err := a2.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentSolvesShareSolver: two solves running at once on one
// Solver report the profit bits and Stats counts of a solve run alone.
// A solve keeps its own pass state and shares only the scratch pool.
// Under -race this also guards the pool.
func TestConcurrentSolvesShareSolver(t *testing.T) {
	scen := smallScenario(t, 100, 4)
	// counts drops the wall-clock fields, which differ run to run.
	counts := func(st Stats) Stats {
		st.Elapsed, st.RoundDurations, st.Timings = 0, nil, PhaseTimings{}
		return st
	}
	for _, shards := range []int{0, 3} {
		s := newTestSolver(t, scen, func(c *Config) {
			c.Shards = shards
			c.Workers = 2
		})
		_, want, err := s.Solve()
		if err != nil {
			t.Fatal(err)
		}
		got := make([]Stats, 2)
		errs := make([]error, 2)
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				_, got[g], errs[g] = s.SolveCtx(context.Background())
			}(g)
		}
		wg.Wait()
		for g := range got {
			if errs[g] != nil {
				t.Fatal(errs[g])
			}
			if math.Float64bits(got[g].FinalProfit) != math.Float64bits(want.FinalProfit) ||
				!reflect.DeepEqual(counts(got[g]), counts(want)) {
				t.Errorf("shards=%d solve %d: %+v, want %+v", shards, g, counts(got[g]), counts(want))
			}
		}
	}
}

func TestSolveOverloadedCloudDegradesGracefully(t *testing.T) {
	cfg := workload.DefaultConfig()
	cfg.NumClients = 120
	cfg.MinServersPerCluster = 1
	cfg.MaxServersPerCluster = 2
	cfg.Seed = 8
	scen, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestSolver(t, scen, nil)
	a, stats, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if stats.Unplaced == 0 {
		t.Log("note: overloaded cloud still placed everyone (tight but feasible)")
	}
	if a.NumAssigned()+stats.Unplaced != scen.NumClients() {
		t.Fatalf("assigned %d + unplaced %d != %d", a.NumAssigned(), stats.Unplaced, scen.NumClients())
	}
}

// TestAblationSwitchesRespected: MaxLocalSearchIters = 0 is the
// no-local-search arm — the greedy solution comes back untouched and no
// phase is credited with any profit.
func TestAblationSwitchesRespected(t *testing.T) {
	scen := smallScenario(t, 25, 9)
	full := newTestSolver(t, scen, nil)
	crippled := newTestSolver(t, scen, func(c *Config) { c.MaxLocalSearchIters = 0 })
	af, sf, err := full.Solve()
	if err != nil {
		t.Fatal(err)
	}
	ac, sc, err := crippled.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sc.FinalProfit != sc.InitialProfit {
		t.Fatalf("disabled local search still changed profit: %v -> %v", sc.InitialProfit, sc.FinalProfit)
	}
	if at := sc.Attribution; at.ShareAdjust != 0 || at.DispersionAdjust != 0 || at.TurnOn != 0 ||
		at.TurnOff != 0 || at.Reassign != 0 || at.Reconcile != 0 {
		t.Fatalf("disabled local search credited phases: %+v", at)
	}
	if af.Profit() < ac.Profit()-1e-9 {
		t.Fatalf("full solver (%v) worse than crippled (%v)", sf.FinalProfit, ac.Profit())
	}
}

func TestPlaceBestRejectsWhenFull(t *testing.T) {
	// One cluster, one tiny server, one client that cannot fit its disk.
	scen := &model.Scenario{
		Cloud: model.Cloud{
			ServerClasses:  []model.ServerClass{{ID: 0, ProcCap: 4, StoreCap: 0.1, CommCap: 4, FixedCost: 1, UtilizationCost: 1}},
			UtilityClasses: []model.UtilityClass{{ID: 0, Base: 4, Slope: 0.5}},
			Clusters:       []model.Cluster{{ID: 0, Servers: []model.ServerID{0}}},
			Servers:        []model.Server{{ID: 0, Class: 0, Cluster: 0}},
		},
		Clients: []model.Client{{
			ID: 0, Class: 0, ArrivalRate: 1, PredictedRate: 1,
			ProcTime: 0.5, CommTime: 0.5, DiskNeed: 1,
		}},
	}
	s := newTestSolver(t, scen, nil)
	a := alloc.New(scen)
	if _, _, err := s.AssignDistribute(a, 0, 0); !errors.Is(err, ErrCannotPlace) {
		t.Fatalf("err = %v, want ErrCannotPlace", err)
	}
	sol, stats, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Unplaced != 1 || sol.NumAssigned() != 0 {
		t.Fatalf("unplaceable client was placed: %+v", stats)
	}
}

func TestTxnRollbackRestoresFirstSnapshot(t *testing.T) {
	scen := smallScenario(t, 5, 51)
	s := newTestSolver(t, scen, nil)
	a := alloc.New(scen)
	if err := s.placeBest(a, 0, s.newGreedyState(a, s.all, telemetry.TraceRef{})); err != nil {
		t.Fatal(err)
	}
	origK := a.ClusterOf(0)
	origPortions := a.Portions(0)
	origProfit := a.Profit()

	txn := a.Begin()
	txn.Capture(0)
	// Mutate twice; capture again in between (must be a no-op snapshot).
	otherK := model.ClusterID((origK + 1) % scen.Cloud.NumClusters())
	if _, portions, err := s.AssignDistribute(func() *alloc.Allocation { a.Unassign(0); return a }(), 0, otherK); err == nil {
		_ = a.Assign(0, otherK, portions)
	}
	txn.Capture(0)
	a.Unassign(0)

	if err := txn.Rollback(); err != nil {
		t.Fatal(err)
	}
	if a.ClusterOf(0) != origK {
		t.Fatalf("rollback restored cluster %d, want %d", a.ClusterOf(0), origK)
	}
	got := a.Portions(0)
	if len(got) != len(origPortions) {
		t.Fatalf("portions %v, want %v", got, origPortions)
	}
	if math.Abs(a.Profit()-origProfit) > 1e-12 {
		t.Fatalf("profit %v, want %v", a.Profit(), origProfit)
	}
	if delta := txn.Delta(); math.Abs(delta) > 1e-12 {
		t.Fatalf("delta after rollback = %v, want 0", delta)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}
