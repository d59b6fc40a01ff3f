package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/workload"
)

// env is what one run of one workload is given: the seed its inputs
// derive from, its sizes, and the tracer (nil on the untraced run).
type env struct {
	seed   int64
	sz     sizes
	traced bool    // known at set-up
	tr     *tracer // set only while the traced region runs
	// layer collects per-layer values measured on the way: set-up steps
	// here, the rest in layers.go. A repeated set-up overwrites its own.
	layer map[string]float64
}

func newEnv(seed int64, sz sizes) *env {
	return &env{seed: seed, sz: sz, layer: make(map[string]float64)}
}

// instance is a workload that has been set up and warmed: run executes
// the timed region once, and the checks after it.
type instance interface {
	run(e *env) (*outcome, error)
	close()
}

// outcome is what one timed region produced.
type outcome struct {
	reg    regionStats
	stalls []float64 // seconds the caller waited on each blocking operation

	profit  float64
	ceiling float64 // Σ λ·Base over present clients: revenue at zero delay
	placed  int
	present int

	attempted int
	failed    int
	failures  []string

	// What the layer probes of a traced run work on.
	scen  *model.Scenario
	final *alloc.Allocation
	cfg   core.Config
	stats []core.Stats // every core.Stats the region's calls returned
	// probeScen and probeCfg, when set, replace scen and cfg for the
	// probes that solve from scratch, which scen would make too slow.
	probeScen *model.Scenario
	probeCfg  core.Config
	// layer holds per-layer values only this region could measure.
	layer map[string]float64
	// fingerprint folds everything that must repeat exactly.
	fingerprint uint64
}

// failOp records one failed operation and why. Only the first few
// reasons are kept; the count is always exact.
func (o *outcome) failOp(format string, args ...any) {
	o.failed++
	if len(o.failures) < 8 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// relTol is the relative agreement the issue demands between a ledger
// profit and its recomputation, and between two runs of the same code.
const relTol = 1e-9

func near(x, y, tol float64) bool {
	return math.Abs(x-y) <= tol*(1+math.Max(math.Abs(x), math.Abs(y)))
}

// checkAllocation runs the checks every final allocation must pass and
// returns the reason it failed, or "".
func checkAllocation(a *alloc.Allocation) string {
	if err := a.Validate(); err != nil {
		return fmt.Sprintf("alloc.Validate: %v", err)
	}
	if p, rp := a.Profit(), a.RecomputeBreakdown().Profit; !near(p, rp, relTol) {
		return fmt.Sprintf("ledger profit %.12g != recomputed %.12g", p, rp)
	}
	return ""
}

// checkAttribution bounds the attribution residual by the tolerance the
// repository's own identity tests use for ledger drift.
func checkAttribution(st core.Stats) string {
	at := st.Attribution
	if r, tol := math.Abs(at.Residual()), 1e-6*(1+math.Abs(at.Final)); r > tol {
		return fmt.Sprintf("attribution residual %.3g beyond ledger tolerance %.3g", r, tol)
	}
	return ""
}

// tally adds one final allocation to the outcome's profit and placement.
func (o *outcome) tally(scen *model.Scenario, a *alloc.Allocation) {
	o.profit += a.Profit()
	o.placed += a.NumAssigned()
	for i := range scen.Clients {
		cl := &scen.Clients[i]
		if cl.ArrivalRate > 0 {
			o.present++
			o.ceiling += cl.ArrivalRate * scen.Cloud.UtilityClasses[cl.Class].Base
		}
	}
}

// generate builds and validates one scenario, adding the time of each
// step to the set-up's per-layer figures. The cloud — clusters, servers,
// hardware and SLA classes — is drawn from cloudSeed, which every
// workload fixes: it is the testbed. The client population is drawn from
// cfg.Seed, which derives from --seed: it is the workload. A scenario's
// dozen class parameters move profit and solve time far more than its
// hundreds of clients do, so drawing them anew per seed would bury every
// metric's run-to-run spread under instance-to-instance variance.
func (e *env) generate(cfg workload.Config, cloudSeed int64) (*model.Scenario, error) {
	t0 := time.Now()
	pop, err := workload.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("generate clients: %w", err)
	}
	cfg.Seed = cloudSeed
	testbed, err := workload.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("generate cloud: %w", err)
	}
	scen := &model.Scenario{Cloud: testbed.Cloud, Clients: pop.Clients}
	t1 := time.Now()
	if err := scen.Validate(); err != nil {
		return nil, fmt.Errorf("validate scenario: %w", err)
	}
	e.layer["workload.generate_s"] += t1.Sub(t0).Seconds()
	e.layer["model.validate_s"] += time.Since(t1).Seconds()
	return scen, nil
}

// matchedConfig is a paper-shaped instance whose cloud grows with its
// population the way cmd/onlinebench sizes it: 2.5 servers per client,
// so that placement quality, not oversubscription, sets the profit.
func matchedConfig(clients, clusters int, seed int64) workload.Config {
	cfg := workload.DefaultConfig()
	cfg.NumClients = clients
	cfg.NumClusters = clusters
	cfg.Seed = seed
	if per := clients * 5 / (2 * clusters); per > cfg.MaxServersPerCluster {
		cfg.MinServersPerCluster = per
		cfg.MaxServersPerCluster = per
	}
	return cfg
}

// solve is the batch workloads' one operation: build a solver, solve.
// The two calls are the operation's child spans.
func solve(tr *tracer, scen *model.Scenario, cfg core.Config) (*alloc.Allocation, core.Stats, error) {
	id := tr.begin("core.NewSolver")
	s, err := core.NewSolver(scen, cfg)
	tr.end(id)
	if err != nil {
		return nil, core.Stats{}, err
	}
	id = tr.begin("core.Solve")
	a, st, err := s.Solve()
	tr.end(id)
	return a, st, err
}
