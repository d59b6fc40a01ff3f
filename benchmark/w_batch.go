package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// batchPaper is the paper's own regime: many small instances, solver
// defaults (3 starts, exact scan over all clusters, no shards).
type batchPaper struct {
	scens []*model.Scenario
	cfg   core.Config
}

func setupBatchPaper(e *env) (instance, error) {
	n, warm := e.sz.PaperInstances, e.sz.PaperWarm
	scens := make([]*model.Scenario, n+warm)
	for i := range scens {
		wcfg := workload.DefaultConfig()
		wcfg.NumClients = e.sz.PaperClients
		// Runs with different seeds never share a client population, so
		// seed 2 is a true hold-out.
		wcfg.Seed = e.seed*1000 + int64(i)
		scen, err := e.generate(wcfg, paperCloudSeed+int64(i))
		if err != nil {
			return nil, err
		}
		scens[i] = scen
	}
	cfg := core.DefaultConfig()
	cfg.Seed = e.seed
	// Warm-up on further instances: grows the heap to working size.
	for _, scen := range scens[n:] {
		if _, _, err := solve(nil, scen, cfg); err != nil {
			return nil, fmt.Errorf("warm-up solve: %w", err)
		}
	}
	return &batchPaper{scens: scens[:n], cfg: cfg}, nil
}

func (b *batchPaper) close() {}

func (b *batchPaper) run(e *env) (*outcome, error) {
	n := len(b.scens)
	o := &outcome{attempted: n, cfg: b.cfg, stats: make([]core.Stats, n), stalls: make([]float64, 0, n)}
	finals := make([]*alloc.Allocation, n)
	errs := make([]error, n)

	r := beginRegion(e.tr != nil)
	for i, scen := range b.scens {
		op := e.tr.beginOp("batch_paper.solve")
		d := r.time(func() { finals[i], o.stats[i], errs[i] = solve(e.tr, scen, b.cfg) })
		e.tr.end(op)
		o.stalls = append(o.stalls, d.Seconds())
	}
	o.reg = r.end()

	for i, a := range finals {
		if errs[i] != nil {
			o.failOp("instance %d: solve: %v", i, errs[i])
			continue
		}
		why := checkAllocation(a)
		if why == "" {
			why = checkAttribution(o.stats[i])
		}
		if why != "" {
			o.failOp("instance %d: %s", i, why) // one failed operation, whatever failed in it
		}
		o.tally(b.scens[i], a)
		o.fingerprint = fold(o.fingerprint, math.Float64bits(a.Profit()), uint64(a.NumAssigned()))
	}
	o.scen, o.final = b.scens[0], finals[0]
	return o, nil
}

// probe prices the solver's own instrumentation: the first ten instances
// solved with a live telemetry set against the same solves with none,
// alternating so that host drift falls on both sides alike.
func (b *batchPaper) probe(e *env, o *outcome, vals map[string]float64) error {
	instrumented := b.cfg
	instrumented.Telemetry = telemetry.New(nil)
	var plainS, telS float64
	for _, scen := range b.scens[:min(10, len(b.scens))] {
		for _, side := range []struct {
			cfg core.Config
			sum *float64
		}{{b.cfg, &plainS}, {instrumented, &telS}} {
			t0 := time.Now()
			if _, _, err := solve(nil, scen, side.cfg); err != nil {
				return fmt.Errorf("telemetry probe: %w", err)
			}
			*side.sum += time.Since(t0).Seconds()
		}
	}
	vals["telemetry.solve_overhead_frac"] = telS/plainS - 1
	return nil
}

// batchSharded is the scale regime: one big instance, index-pruned
// candidates, independent shards, serial reconciliation.
type batchSharded struct {
	scen  *model.Scenario
	warm  *model.Scenario // a fifth of the size: warm-up, worker scaling
	small *model.Scenario // a twentieth: probes that solve unpruned or unsharded
	cfg   core.Config
}

func shardedConfig(e *env) core.Config {
	cfg := core.DefaultConfig()
	cfg.NumInitSolutions = 1
	cfg.MaxLocalSearchIters = 1
	cfg.CandidateClusters = e.sz.ShardTopK
	cfg.Shards = e.sz.ShardCount
	cfg.Workers = 0
	cfg.Seed = e.seed
	return cfg
}

func setupBatchSharded(e *env) (instance, error) {
	scen, err := e.generate(workload.ScaleConfig(e.sz.ShardClients, e.seed), shardCloudSeed)
	if err != nil {
		return nil, err
	}
	warm, err := e.generate(workload.ScaleConfig(e.sz.ShardWarmClients, e.seed+1), shardCloudSeed+1)
	if err != nil {
		return nil, err
	}
	small, err := e.generate(workload.ScaleConfig(max(e.sz.ShardWarmClients/4, 1), e.seed+2), shardCloudSeed+2)
	if err != nil {
		return nil, err
	}
	cfg := shardedConfig(e)
	if _, _, err := solve(nil, warm, cfg); err != nil {
		return nil, fmt.Errorf("warm-up solve: %w", err)
	}
	return &batchSharded{scen: scen, warm: warm, small: small, cfg: cfg}, nil
}

func (b *batchSharded) close() {}

func (b *batchSharded) run(e *env) (*outcome, error) {
	o := &outcome{attempted: b.scen.NumClients(), cfg: b.cfg, scen: b.scen, probeScen: b.small, probeCfg: b.cfg}
	var (
		a   *alloc.Allocation
		st  core.Stats
		err error
	)
	r := beginRegion(e.tr != nil)
	op := e.tr.beginOp("batch_sharded.solve")
	d := r.time(func() { a, st, err = solve(e.tr, b.scen, b.cfg) })
	e.tr.end(op)
	o.reg = r.end()
	o.stalls = []float64{d.Seconds()}
	if err != nil {
		return nil, fmt.Errorf("batch_sharded: solve: %w", err)
	}

	o.stats = []core.Stats{st}
	for _, why := range []string{checkAllocation(a), checkAttribution(st)} {
		if why != "" {
			o.failOp("%s", why)
		}
	}
	o.tally(b.scen, a)
	o.final = a
	o.fingerprint = fold(0, math.Float64bits(a.Profit()), uint64(a.NumAssigned()))
	return o, nil
}

// probe measures what the fan-out and the pruning buy and cost, on
// instances small enough to solve several times: the warm-up instance at
// one worker and at GOMAXPROCS, and the small instance pruned and sharded
// against exact and unsharded.
func (b *batchSharded) probe(e *env, o *outcome, vals map[string]float64) error {
	timed := func(scen *model.Scenario, cfg core.Config) (float64, float64, error) {
		t0 := time.Now()
		a, _, err := solve(nil, scen, cfg)
		if err != nil {
			return 0, 0, fmt.Errorf("scaling probe: %w", err)
		}
		return time.Since(t0).Seconds(), a.Profit(), nil
	}
	one := b.cfg
	one.Workers = 1
	w1, _, err := timed(b.warm, one)
	if err != nil {
		return err
	}
	wmax, _, err := timed(b.warm, b.cfg)
	if err != nil {
		return err
	}
	vals["core.w1_s"] = w1
	vals["core.speedup_wmax"] = w1 / wmax

	exact := b.cfg
	exact.CandidateClusters, exact.Shards = 0, 0
	_, pruned, err := timed(b.small, b.cfg)
	if err != nil {
		return err
	}
	_, full, err := timed(b.small, exact)
	if err != nil {
		return err
	}
	vals["core.prune_loss_frac"] = 1 - pruned/full
	return nil
}

// fold mixes values into a running FNV-1a style fingerprint.
func fold(h uint64, vs ...uint64) uint64 {
	if h == 0 {
		h = 14695981039346656037
	}
	for _, v := range vs {
		for s := 0; s < 64; s += 8 {
			h ^= (v >> s) & 0xff
			h *= 1099511628211
		}
	}
	return h
}
