package cloudalloc

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"testing"

	"repro/internal/alloc"
	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/online"
	"repro/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.json from the current solver")

const goldenPath = "testdata/golden.json"

// goldenEntry is one solve's outcome: the profit's bit pattern, the
// number of placed clients, and an FNV-64a hash of every client's
// cluster and portions. The online path also hashes its decision
// stream: every event's admission, advisory cluster, bound bits and
// commit flag, and the Monte-Carlo path hashes its envelope's four
// best/worst figures.
type goldenEntry struct {
	ProfitBits string `json:"profit_bits"`
	Placed     int    `json:"placed"`
	Hash       string `json:"hash"`
	Decisions  string `json:"decisions,omitempty"`
	Envelope   string `json:"envelope,omitempty"`
}

// goldenHash is an FNV-64a hash fed little-endian 64-bit words.
type goldenHash struct {
	h   hash.Hash64
	buf [8]byte
}

func newGoldenHash() *goldenHash { return &goldenHash{h: fnv.New64a()} }

func (g *goldenHash) put(v uint64) {
	binary.LittleEndian.PutUint64(g.buf[:], v)
	g.h.Write(g.buf[:])
}

func (g *goldenHash) String() string { return fmt.Sprintf("%016x", g.h.Sum64()) }

func goldenOf(a *alloc.Allocation) goldenEntry {
	h := newGoldenHash()
	put := h.put
	for i := 0; i < a.Scenario().NumClients(); i++ {
		id := model.ClientID(i)
		put(uint64(int64(a.ClusterOf(id))))
		ps := a.Portions(id)
		put(uint64(len(ps)))
		for _, p := range ps {
			put(uint64(p.Server))
			put(math.Float64bits(p.Alpha))
			put(math.Float64bits(p.ProcShare))
			put(math.Float64bits(p.CommShare))
		}
	}
	return goldenEntry{
		ProfitBits: fmt.Sprintf("%016x", math.Float64bits(a.Profit())),
		Placed:     a.NumAssigned(),
		Hash:       h.String(),
	}
}

// goldenDecisions hashes a decision stream.
func goldenDecisions(ds []online.Decision) string {
	h := newGoldenHash()
	b := func(v bool) uint64 {
		if v {
			return 1
		}
		return 0
	}
	for _, d := range ds {
		h.put(b(d.Admitted))
		h.put(uint64(int64(d.Cluster)))
		h.put(math.Float64bits(d.Bound))
		h.put(b(d.Committed))
	}
	return h.String()
}

// goldenPaths are the solve paths the golden file pins. Each runs one
// instance at a worker setting; the test requires the same outcome at
// Workers 1 and 4.
var goldenPaths = []struct {
	name string
	run  func(t *testing.T, scen *model.Scenario, seed int64, workers int) goldenEntry
}{
	{"exact", func(t *testing.T, scen *model.Scenario, _ int64, workers int) goldenEntry {
		return goldenSolve(t, scen, func(c *core.Config) { c.Workers = workers })
	}},
	{"topk", func(t *testing.T, scen *model.Scenario, _ int64, workers int) goldenEntry {
		return goldenSolve(t, scen, func(c *core.Config) { c.Workers, c.CandidateClusters = workers, 2 })
	}},
	{"sharded", func(t *testing.T, scen *model.Scenario, _ int64, workers int) goldenEntry {
		return goldenSolve(t, scen, func(c *core.Config) { c.Workers, c.Shards = workers, 2 })
	}},
	{"warm", func(t *testing.T, scen *model.Scenario, seed int64, workers int) goldenEntry {
		cfg := core.DefaultConfig()
		cfg.Workers = workers
		s, err := core.NewSolver(scen, cfg)
		if err != nil {
			t.Fatal(err)
		}
		prev, _, err := s.Solve()
		if err != nil {
			t.Fatal(err)
		}
		// Every client's rates drift by a seeded factor in [0.9, 1.1].
		drifted := model.CloneScenario(scen)
		rng := rand.New(rand.NewSource(seed))
		for i := range drifted.Clients {
			f := 0.9 + 0.2*rng.Float64()
			drifted.Clients[i].ArrivalRate *= f
			drifted.Clients[i].PredictedRate *= f
		}
		s, err = core.NewSolver(drifted, cfg)
		if err != nil {
			t.Fatal(err)
		}
		a, _, err := s.SolveFromCtx(context.Background(), prev)
		if err != nil {
			t.Fatal(err)
		}
		return goldenOf(a)
	}},
	{"online", func(t *testing.T, scen *model.Scenario, seed int64, workers int) goldenEntry {
		cfg := online.DefaultConfig()
		cfg.Solver.Workers = workers
		svc, err := online.New(scen, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		cc := online.DefaultChurnConfig()
		cc.Events = 4 * scen.NumClients()
		cc.Seed = seed
		churn := online.NewChurn(scen, cc)
		var ds []online.Decision
		for ev, ok := churn.Next(); ok; ev, ok = churn.Next() {
			ds = append(ds, svc.Decide(ev))
		}
		e := goldenOf(svc.Flush())
		e.Decisions = goldenDecisions(ds)
		return e
	}},
	{"distributed", func(t *testing.T, scen *model.Scenario, _ int64, workers int) goldenEntry {
		ccfg := core.DefaultConfig()
		ccfg.Workers = workers
		agents := make([]cluster.Agent, scen.Cloud.NumClusters())
		for k := range agents {
			ag, err := cluster.NewLocalAgent(scen, model.ClusterID(k), ccfg)
			if err != nil {
				t.Fatal(err)
			}
			agents[k] = ag
		}
		mcfg := cluster.DefaultManagerConfig()
		mcfg.MaxInFlight = workers
		mgr, err := cluster.NewManager(scen, agents, mcfg)
		if err != nil {
			t.Fatal(err)
		}
		defer mgr.Close()
		a, _, err := mgr.Solve()
		if err != nil {
			t.Fatal(err)
		}
		return goldenOf(a)
	}},
	{"ps", func(t *testing.T, scen *model.Scenario, _ int64, workers int) goldenEntry {
		a, err := baseline.SolveModifiedPS(scen, baseline.PSConfig{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return goldenOf(a)
	}},
	{"montecarlo", func(t *testing.T, scen *model.Scenario, seed int64, workers int) goldenEntry {
		cfg := baseline.DefaultMCConfig()
		cfg.Draws, cfg.Seed, cfg.Workers = 8, seed, workers
		env, err := baseline.RunMonteCarlo(scen, cfg)
		if err != nil {
			t.Fatal(err)
		}
		e := goldenOf(env.Best)
		h := newGoldenHash()
		for _, v := range []float64{env.BestInitial, env.WorstInitial, env.BestOptimized, env.WorstOptimized} {
			h.put(math.Float64bits(v))
		}
		e.Envelope = h.String()
		return e
	}},
}

func goldenSolve(t *testing.T, scen *model.Scenario, mutate func(*core.Config)) goldenEntry {
	t.Helper()
	cfg := core.DefaultConfig()
	mutate(&cfg)
	s, err := core.NewSolver(scen, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, _, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	return goldenOf(a)
}

// TestGoldenBehaviour pins what every solve path produces on the
// paper-shaped workload.DefaultConfig() instances (N = 50 and 200,
// seeds 1 and 2) to testdata/golden.json: a change that claims to keep
// behaviour must leave the file byte-identical. Run with -update to
// rewrite it after a deliberate behaviour change.
func TestGoldenBehaviour(t *testing.T) {
	got := map[string]goldenEntry{}
	for _, n := range []int{50, 200} {
		for _, seed := range []int64{1, 2} {
			wcfg := workload.DefaultConfig()
			wcfg.NumClients = n
			wcfg.Seed = seed
			scen, err := workload.Generate(wcfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range goldenPaths {
				key := fmt.Sprintf("%s/N=%d/seed=%d", p.name, n, seed)
				e1 := p.run(t, scen, seed, 1)
				if e4 := p.run(t, scen, seed, 4); e4 != e1 {
					t.Errorf("%s: Workers 1 gives %+v, Workers 4 gives %+v", key, e1, e4)
				}
				got[key] = e1
			}
		}
	}
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	if *updateGolden {
		if err := os.WriteFile(goldenPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if string(want) == string(data) {
		return
	}
	var wantMap map[string]goldenEntry
	if err := json.Unmarshal(want, &wantMap); err != nil {
		t.Fatalf("%s: %v", goldenPath, err)
	}
	for key, e := range got {
		if w, ok := wantMap[key]; !ok || w != e {
			t.Errorf("%s: got %+v, golden %+v", key, e, w)
		}
	}
	if len(wantMap) != len(got) {
		t.Errorf("%s holds %d entries, the test produces %d", goldenPath, len(wantMap), len(got))
	}
}
