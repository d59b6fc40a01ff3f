package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/online"
	"repro/internal/opt"
	"repro/internal/parallel"
)

// Per-layer probes of a traced run. They call each layer's exported
// functions on the workload's own scenario and solved allocation, after
// the traced region, and write one value per metric into vals. Every
// probe works on clones: the outcome stays as the region left it.

// prober is implemented by instances that have layer probes of their own
// (online, cluster and agentrpc, the sharded solve's scaling).
type prober interface {
	probe(e *env, o *outcome, vals map[string]float64) error
}

// sink keeps results alive so the compiler cannot drop a probed call.
var sink any

// kernelBudget caps one sweep of a mutating core kernel over the units
// (servers, clients, clusters) of a large instance.
const kernelBudget = 300 * time.Millisecond

func probeLayers(o *outcome, vals map[string]float64) error {
	t0 := time.Now()
	sink = model.CloneScenario(o.scen)
	vals["model.clone_s"] = time.Since(t0).Seconds()

	if err := probeOpt(vals); err != nil {
		return err
	}
	vals["parallel.for_overhead_ns"] = perCall(func(n int) {
		for c := 0; c < n; c++ {
			parallel.For(parallel.Options{}, 1024, func(worker, task int) {})
		}
	}) / 1024
	if err := probeLedger(o, vals); err != nil {
		return err
	}
	if err := probeIndex(o, vals); err != nil {
		return err
	}
	if err := probeKernels(o, vals); err != nil {
		return err
	}
	st, err := probePhases(o, vals)
	if err != nil {
		return err
	}
	// Phase timings and outcome counts as the solver reports them: summed
	// over the traced region's own solves where they return core.Stats,
	// otherwise from the decomposed solve of the probe instance.
	stats := o.stats
	if len(stats) == 0 {
		stats = []core.Stats{st}
	}
	foldStats(stats, vals)
	return probeWarmStart(o, vals)
}

// probeOpt times the two closed-form kernels on paper-sized inputs: a
// water-fill over the 4 portions of one server dimension, and the
// portion-combining dynamic program over 25 candidate servers at
// granularity 10.
func probeOpt(vals map[string]float64) error {
	rng := rand.New(rand.NewSource(1))
	items := make([]opt.ShareItem, 4)
	for i := range items {
		lambda, alpha := 0.5+4*rng.Float64(), 0.25
		items[i] = opt.ShareItem{
			Weight: lambda * (0.4 + 0.6*rng.Float64()) * alpha,
			Exec:   0.4 + 0.6*rng.Float64(), PortionRate: alpha * lambda, Cap: 4,
		}
	}
	const servers, granularity = 25, 10
	values := make([][]float64, servers)
	for s := range values {
		values[s] = make([]float64, granularity+1)
		gain, cost := 1+rng.Float64(), 0.2*rng.Float64()
		for g := 1; g <= granularity; g++ {
			values[s][g] = gain*math.Sqrt(float64(g)) - cost*float64(g)
		}
	}
	var err error
	vals["opt.waterfill_ns"] = perCall(func(n int) {
		for c := 0; c < n; c++ {
			if _, _, werr := opt.WaterfillShares(items, 1); werr != nil {
				err = werr
			}
		}
	})
	var ps opt.PortionScratch
	vals["opt.combine_ns"] = perCall(func(n int) {
		for c := 0; c < n; c++ {
			if _, _, cerr := ps.Combine(values, granularity); cerr != nil {
				err = cerr
			}
		}
	})
	if err != nil {
		return fmt.Errorf("opt probe: %w", err)
	}
	return nil
}

// assignedClients lists the clients the allocation serves, in ID order.
func assignedClients(a *alloc.Allocation) []model.ClientID {
	var ids []model.ClientID
	for i := 0; i < a.Scenario().NumClients(); i++ {
		if id := model.ClientID(i); a.Assigned(id) {
			ids = append(ids, id)
		}
	}
	return ids
}

func probeLedger(o *outcome, vals map[string]float64) error {
	t0 := time.Now()
	sink = alloc.New(o.scen)
	vals["alloc.new_s"] = time.Since(t0).Seconds()

	a := o.final.Clone()
	ids := assignedClients(a)
	if len(ids) == 0 {
		return fmt.Errorf("ledger probe: the final allocation serves no client")
	}
	vals["alloc.clone_ns"] = perCall(func(n int) {
		for c := 0; c < n; c++ {
			sink = a.Clone()
		}
	})
	var err error
	vals["alloc.validate_ns"] = perCall(func(n int) {
		for c := 0; c < n; c++ {
			if verr := a.Validate(); verr != nil {
				err = verr
			}
		}
	})
	var f float64
	vals["alloc.profit_ns"] = perCall(func(n int) {
		for c := 0; c < n; c++ {
			f += a.Profit()
		}
	})
	vals["alloc.recompute_ns"] = perCall(func(n int) {
		for c := 0; c < n; c++ {
			f += a.RecomputeBreakdown().Profit
		}
	})
	// One speculative move and its undo, as the local search makes them.
	next := 0
	vals["alloc.txn_ns"] = perCall(func(n int) {
		for c := 0; c < n; c++ {
			i := ids[next%len(ids)]
			next++
			t := a.Begin()
			t.Capture(i)
			k, portions := a.Unassign(i)
			if aerr := a.Assign(i, k, portions); aerr != nil {
				err = aerr
			}
			f += t.Delta()
			if rerr := t.Rollback(); rerr != nil {
				err = rerr
			}
		}
	})
	var scratch alloc.GainScratch
	vals["alloc.view_gain_ns"] = perCall(func(n int) {
		for c := 0; c < n; c++ {
			i := ids[next%len(ids)]
			next++
			v := a.Excluding(i)
			g, _ := v.PlacementGain(model.ClusterID(a.ClusterOf(i)), a.Portions(i), &scratch)
			f += g
		}
	})
	sink = f
	if err != nil {
		return fmt.Errorf("ledger probe: %w", err)
	}
	return nil
}

func probeIndex(o *outcome, vals map[string]float64) error {
	a := o.final.Clone()
	ids := assignedClients(a)
	scen := a.Scenario()
	clusters := scen.Cloud.NumClusters()

	vals["alloc.index_build_ns"] = perCall(func(n int) {
		for c := 0; c < n; c++ {
			ix := alloc.NewIndex(a)
			ix.Refresh()
			sink = ix
		}
	})
	ix := alloc.NewIndex(a)
	ix.Refresh()

	// Refresh with one dirty cluster: a client is moved out and back
	// (untimed), which bumps its cluster's version.
	var err error
	next := 0
	vals["alloc.index_refresh_ns"] = perCallEach(func() {
		i := ids[next%len(ids)]
		next++
		k, portions := a.Unassign(i)
		if aerr := a.Assign(i, k, portions); aerr != nil {
			err = aerr
		}
	}, ix.Refresh)
	if err != nil {
		return fmt.Errorf("index probe: %w", err)
	}

	var f float64
	buf := make([]alloc.Candidate, 0, clusters)
	vals["alloc.topk_ns"] = perCall(func(n int) {
		for c := 0; c < n; c++ {
			buf = ix.TopK(ids[next%len(ids)], 6, nil, buf[:0])
			next++
		}
	})
	vals["alloc.bound_ns"] = perCall(func(n int) {
		for c := 0; c < n; c++ {
			b, _ := ix.GainUpperBound(ids[next%len(ids)], model.ClusterID(next%clusters))
			f += b
			next++
		}
	})
	vals["alloc.bound_at_ns"] = perCall(func(n int) {
		for c := 0; c < n; c++ {
			i := ids[next%len(ids)]
			rate := scen.Clients[i].PredictedRate
			b, _ := ix.GainUpperBoundAt(i, model.ClusterID(next%clusters), rate, rate, alloc.PendingLoad{})
			f += b
			next++
		}
	})
	sink = f

	hit, err := topKHitFrac(o, a, ix, ids)
	if err != nil {
		return err
	}
	vals["alloc.topk_hit_frac"] = hit
	return nil
}

// topKHitFrac is the share of sampled clients whose exact-best cluster —
// the highest exact PlacementGain of an Assign_Distribute placement over
// every cluster — is among the index's top 6 by bound. Up to 500 clients
// are sampled, fewer on a cloud of many clusters: the exact scan is held
// to about 10 000 Assign_Distribute evaluations.
func topKHitFrac(o *outcome, a *alloc.Allocation, ix *alloc.Index, ids []model.ClientID) (float64, error) {
	s, err := core.NewSolver(o.scen, o.cfg)
	if err != nil {
		return 0, err
	}
	clusters := o.scen.Cloud.NumClusters()
	samples := min(500, max(20, 10000/clusters), len(ids))
	var scratch alloc.GainScratch
	buf := make([]alloc.Candidate, 0, clusters)
	hits, scored := 0, 0
	for n := 0; n < samples; n++ {
		i := ids[n*len(ids)/samples]
		k0, p0 := a.Unassign(i)
		ix.Refresh()
		best, bestGain := -1, math.Inf(-1)
		v := a.Excluding(i)
		for k := 0; k < clusters; k++ {
			_, portions, err := s.AssignDistribute(a, i, model.ClusterID(k))
			if err != nil {
				continue // cluster k cannot host the client
			}
			if g, ok := v.PlacementGain(model.ClusterID(k), portions, &scratch); ok && g > bestGain {
				best, bestGain = k, g
			}
		}
		if best >= 0 {
			scored++
			for _, c := range ix.TopK(i, 6, nil, buf[:0]) {
				if int(c.Cluster) == best {
					hits++
					break
				}
			}
		}
		if err := a.Assign(i, k0, p0); err != nil {
			return 0, fmt.Errorf("index probe: restore client %d: %w", i, err)
		}
	}
	if scored == 0 {
		return 0, nil
	}
	return float64(hits) / float64(scored), nil
}

// probeKernels times the solver's five building blocks on the solved
// allocation. Assign_Distribute is read-only and measured per call; the
// four local-search kernels mutate, so each is swept once over its units
// (servers, clients, clusters) of a fresh clone, for at most kernelBudget.
func probeKernels(o *outcome, vals map[string]float64) error {
	s, err := core.NewSolver(o.scen, o.cfg)
	if err != nil {
		return err
	}
	a := o.final.Clone()
	ids := assignedClients(a)
	clusters := o.scen.Cloud.NumClusters()

	// Assign_Distribute prices an unassigned client: take a few out.
	out := ids[:min(16, len(ids))]
	for _, i := range out {
		a.Unassign(i)
	}
	next := 0
	var f float64
	vals["core.assign_distribute_ns"] = perCall(func(n int) {
		for c := 0; c < n; c++ {
			est, _, _ := s.AssignDistribute(a, out[next%len(out)], model.ClusterID(next%clusters))
			f += est
			next++
		}
	})
	sink = f

	sweep := func(units int, call func(u int)) float64 {
		t0 := time.Now()
		done := 0
		for done < units && time.Since(t0) < kernelBudget {
			call(done)
			done++
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(max(done, 1))
	}
	a = o.final.Clone()
	vals["core.adjust_shares_ns"] = sweep(o.scen.Cloud.NumServers(), func(j int) { s.AdjustResourceShares(a, model.ServerID(j)) })
	vals["core.adjust_dispersion_ns"] = sweep(len(ids), func(n int) { s.AdjustDispersionRates(a, ids[n]) })
	vals["core.turn_on_ns"] = sweep(clusters, func(k int) { s.TurnOnServers(a, model.ClusterID(k)) })
	vals["core.turn_off_ns"] = sweep(clusters, func(k int) { s.TurnOffServers(a, model.ClusterID(k)) })
	return nil
}

// probePhases solves the probe instance phase by phase through the
// solver's public calls — the greedy starts exactly as Solve seeds and
// ranks them, then the local search — and times a first and a second
// reassignment pass over the greedy solution. It returns the core.Stats
// a plain Solve would have reported.
func probePhases(o *outcome, vals map[string]float64) (core.Stats, error) {
	scen, cfg := o.probeScen, o.probeCfg
	if scen == nil {
		scen, cfg = o.scen, o.cfg
	}
	s, err := core.NewSolver(scen, cfg)
	if err != nil {
		return core.Stats{}, err
	}
	ctx := context.Background()

	t0 := time.Now()
	var best *alloc.Allocation
	for iter := 0; iter < cfg.NumInitSolutions; iter++ {
		a, err := s.InitialSolution(parallel.Rand(cfg.Seed, uint64(iter)))
		if err != nil {
			return core.Stats{}, fmt.Errorf("phase probe: greedy start %d: %w", iter, err)
		}
		if best == nil || a.Profit() > best.Profit() {
			best = a
		}
	}
	greedy := time.Since(t0)
	vals["core.greedy_s"] = greedy.Seconds()

	clients := float64(max(best.NumAssigned(), 1))
	pass := best.Clone()
	t0 = time.Now()
	moves := s.ReassignmentPassCtx(ctx, pass)
	vals["core.reassign_pass_s"] = time.Since(t0).Seconds()
	vals["core.reassign_moves"] = float64(moves)
	t0 = time.Now()
	s.ReassignmentPassCtx(ctx, pass)
	vals["core.reassign_converged_ns"] = float64(time.Since(t0).Nanoseconds()) / clients

	st := core.Stats{InitialProfit: best.Profit()}
	st.Timings.Greedy = greedy
	t0 = time.Now()
	s.ImproveLocalCtx(ctx, best, &st)
	vals["core.improve_s"] = time.Since(t0).Seconds()
	st.FinalProfit = best.Profit()
	st.Attribution.Initial, st.Attribution.Final = st.InitialProfit, st.FinalProfit
	st.Unplaced = scen.NumClients() - best.NumAssigned()
	if why := checkAttribution(st); why != "" {
		return st, fmt.Errorf("phase probe: %s", why)
	}
	return st, nil
}

// foldStats sums what the solver itself reported.
func foldStats(stats []core.Stats, vals map[string]float64) {
	for _, st := range stats {
		vals["core.greedy_stat_s"] += st.Timings.Greedy.Seconds()
		vals["core.sweep_s"] += st.Timings.Sweep.Seconds()
		vals["core.reassign_s"] += st.Timings.Reassign.Seconds()
		vals["core.reconcile_s"] += st.Timings.Reconcile.Seconds()
		vals["core.ls_iters"] += float64(st.LocalSearchIters)
		vals["core.activations"] += float64(st.Activations)
		vals["core.deactivations"] += float64(st.Deactivations)
		vals["core.reassignments"] += float64(st.Reassignments)
		vals["core.unplaced"] += float64(st.Unplaced)
		at := st.Attribution
		vals["core.attr_initial"] += at.Initial
		vals["core.attr_sweeps"] += at.ShareAdjust + at.DispersionAdjust + at.TurnOn + at.TurnOff
		vals["core.attr_reassign"] += at.Reassign
		vals["core.attr_reconcile"] += at.Reconcile
		vals["core.attr_residual"] += math.Abs(at.Residual())
	}
}

// probeWarmStart prices the online commit's solver call: a cold solve of
// the probe instance with the online service's solver configuration,
// then a warm SolveFromCtx after every twentieth present client's rate
// moved by 20%.
func probeWarmStart(o *outcome, vals map[string]float64) error {
	scen := o.probeScen
	if scen == nil {
		scen = o.scen
	}
	cfg := online.DefaultConfig().Solver
	cfg.Seed = o.cfg.Seed
	s, err := core.NewSolver(scen, cfg)
	if err != nil {
		return err
	}
	t0 := time.Now()
	cold, _, err := s.Solve()
	if err != nil {
		return fmt.Errorf("warm-start probe: cold solve: %w", err)
	}
	coldS := time.Since(t0).Seconds()

	drift := model.CloneScenario(scen)
	present := 0
	for i := range drift.Clients {
		if cl := &drift.Clients[i]; cl.PredictedRate > 0 {
			if present%20 == 0 {
				cl.ArrivalRate *= 1.2
				cl.PredictedRate *= 1.2
			}
			present++
		}
	}
	ws, err := core.NewSolver(drift, cfg)
	if err != nil {
		return err
	}
	t0 = time.Now()
	if _, _, err := ws.SolveFromCtx(context.Background(), cold); err != nil {
		return fmt.Errorf("warm-start probe: warm solve: %w", err)
	}
	vals["core.warm_solve_s"] = time.Since(t0).Seconds()
	vals["core.warm_over_cold"] = vals["core.warm_solve_s"] / coldS
	return nil
}
