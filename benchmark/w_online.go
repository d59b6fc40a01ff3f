package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/online"
	"repro/internal/telemetry"
)

// onlineInst is either online workload: the same cloud, the same churn
// generator and the same service type. commit=true sets thresholds that
// trip about once per 50 events (the write path); commit=false puts them
// out of reach, so Decide never commits (the read path) and the
// benchmark refreshes the snapshot itself on a fixed cadence.
//
// Either workload runs as several replicas — one service, client
// population and event stream each — one after the other inside the one
// timed region. The churn generator's population is a random walk, and
// how far it has wandered sets how much every later commit costs; several
// shorter walks wander less, and differently, than one long one, and
// several populations of a few hundred clients average their luck. That
// is what keeps cost, profit and placement comparable from seed to seed.
type onlineInst struct {
	commit bool
	ocfg   online.Config
	events int // per replica
	reps   []*onlineReplica
}

type onlineReplica struct {
	scen   *model.Scenario
	svc    *online.Service
	churn  *online.Churn
	profit float64 // after the final Flush
}

func setupOnlineCommit(e *env) (instance, error) { return setupOnline(e, true) }
func setupOnlineDecide(e *env) (instance, error) { return setupOnline(e, false) }

// onlineScenario is the capacity-matched instance the online workloads
// run on, with the first 30% of the clients absent so that arrivals have
// somewhere to come from.
func onlineScenario(e *env, clientSeed int64) (*model.Scenario, error) {
	scen, err := e.generate(matchedConfig(e.sz.OnlineClients, e.sz.OnlineClusters, clientSeed), onlineCloudSeed)
	if err != nil {
		return nil, err
	}
	for i := 0; i < e.sz.OnlineClients*3/10; i++ {
		scen.Clients[i].ArrivalRate = 0
		scen.Clients[i].PredictedRate = 0
	}
	return scen, nil
}

func onlineConfig(e *env, commit bool) online.Config {
	ocfg := online.DefaultConfig()
	ocfg.Solver.Seed = e.seed
	if commit {
		ocfg.CommitRel, ocfg.CommitFloor = 0.2, 30
	} else {
		ocfg.CommitRel, ocfg.CommitFloor = 10, 1e12
	}
	return ocfg
}

// churnConfig is the event stream, with a flash crowd of 5% of the
// population at the midpoint. The write path gets the generator's
// default mix, one arrival and one departure per two rate changes:
// membership churn is what trips commits. The read path gets rate
// changes almost alone, one membership event in 10^5: its stream is
// tens of millions of events long, and at the default mix the population
// would wander over its whole range within any one run, taking the cost
// of each Flush with it.
func churnConfig(e *env, commit bool, events int, seed int64) online.ChurnConfig {
	ccfg := online.DefaultChurnConfig()
	ccfg.Events = events
	ccfg.Seed = seed
	ccfg.FlashAt = events / 2
	ccfg.FlashSize = e.sz.OnlineClients / 20
	ccfg.FlashBoost = 1.5
	if !commit {
		ccfg.ArriveWeight, ccfg.DepartWeight, ccfg.JitterWeight = 5e-6, 5e-6, 1
	}
	return ccfg
}

func setupOnline(e *env, commit bool) (instance, error) {
	ocfg := onlineConfig(e, commit)
	in := &onlineInst{commit: commit, ocfg: ocfg}
	replicas, events, warmEvents := e.sz.DecideReplicas, e.sz.DecideEvents, e.sz.DecideWarm
	if commit {
		replicas, events, warmEvents = e.sz.CommitReplicas, e.sz.CommitEvents, e.sz.CommitWarm
	}
	in.events = events / replicas
	for r := 0; r < replicas; r++ {
		seed := e.seed*100 + int64(r)
		scen, err := onlineScenario(e, seed)
		if err != nil {
			in.close()
			return nil, err
		}
		if r == 0 {
			// Warm-up through a throw-away service on the first
			// scenario, with its own event stream.
			warm, err := online.New(scen, ocfg)
			if err != nil {
				return nil, fmt.Errorf("warm-up service: %w", err)
			}
			wc := online.NewChurn(scen, churnConfig(e, commit, warmEvents, seed+50))
			for ev, ok := wc.Next(); ok; ev, ok = wc.Next() {
				warm.Decide(ev)
			}
			if !commit {
				warm.Flush()
			}
			warm.Close()
		}
		t0 := time.Now()
		svc, err := online.New(scen, ocfg)
		if err != nil {
			in.close()
			return nil, fmt.Errorf("online.New: %w", err)
		}
		if r == 0 {
			e.layer["online.new_s"] = time.Since(t0).Seconds()
		}
		in.reps = append(in.reps, &onlineReplica{
			scen: scen, svc: svc, churn: online.NewChurn(scen, churnConfig(e, commit, in.events, seed)),
		})
	}
	return in, nil
}

func (in *onlineInst) close() {
	for _, rep := range in.reps {
		rep.svc.Close()
	}
}

func (in *onlineInst) run(e *env) (*outcome, error) {
	total := in.events * len(in.reps)
	o := &outcome{attempted: total, cfg: in.ocfg.Solver, layer: make(map[string]float64)}
	var offers []int64
	var committed int64
	if in.commit {
		offers, committed = in.runCommit(e, o)
	} else {
		offers, committed = in.runDecide(e, o)
	}
	if !in.commit && committed != 0 {
		o.failOp("%d decisions committed with thresholds out of reach", committed)
	}

	var admits, rejects, commits, allOffers int64
	for r, rep := range in.reps {
		// The final Flush, outside the timed region, brings every
		// pending delta into the allocation that is priced.
		t0 := time.Now()
		final := rep.svc.Flush()
		if r == 0 {
			o.layer["online.flush_s"] = time.Since(t0).Seconds()
			o.scen, o.final = rep.svc.Scenario(), final
		}
		svc := rep.svc
		if got := svc.Decisions(); got != int64(in.events) {
			o.failOp("replica %d: decisions %d != events %d", r, got, in.events)
		}
		if got := svc.Admits() + svc.Rejects(); got != offers[r] {
			o.failOp("replica %d: admits+rejects %d != offers %d", r, got, offers[r])
		}
		if why := checkAllocation(final); why != "" {
			o.failOp("replica %d: %s", r, why)
		}
		if rep.profit = svc.Profit(); !near(rep.profit, final.Profit(), relTol) {
			o.failOp("replica %d: Service.Profit %.12g != flushed allocation's %.12g", r, rep.profit, final.Profit())
		}
		o.tally(svc.Scenario(), final)
		admits, rejects, commits, allOffers = admits+svc.Admits(), rejects+svc.Rejects(), commits+svc.Commits(), allOffers+offers[r]
		o.fingerprint = fold(o.fingerprint, math.Float64bits(final.Profit()), uint64(final.NumAssigned()),
			uint64(svc.Admits()), uint64(svc.Rejects()), uint64(svc.Commits()))
	}
	o.layer["online.commit_count"] = float64(commits)
	o.layer["online.admit_frac"] = float64(admits) / float64(max(allOffers, 1))
	o.layer["online.reject_count"] = float64(rejects)
	return o, nil
}

// isOffer reports whether the service counts the event as an offer (an
// admit or a reject): arrivals and rate changes to a positive rate.
func isOffer(ev online.Event) bool {
	return ev.Kind != online.EventDepart && ev.Rate > 0
}

// runCommit times every Decide by itself: the ones that return
// Committed=true ran a whole commit inline, and their durations are the
// stalls a sync-mode caller sees.
func (in *onlineInst) runCommit(e *env, o *outcome) (offers []int64, committed int64) {
	offers = make([]int64, len(in.reps))
	o.stalls = make([]float64, 0, in.events*len(in.reps))
	r := beginRegion(e.tr != nil)
	for n, rep := range in.reps {
		for ev, ok := rep.churn.Next(); ok; ev, ok = rep.churn.Next() {
			if isOffer(ev) {
				offers[n]++
			}
			t0 := time.Now()
			d := rep.svc.Decide(ev)
			dt := time.Since(t0)
			r.wall += dt
			if d.Committed {
				committed++
				o.stalls = append(o.stalls, dt.Seconds())
				e.tr.recordOp("online.Decide+commit", t0, dt)
			}
			o.fingerprint = fold(o.fingerprint, decisionBits(d))
		}
	}
	o.reg = r.end()
	return offers, committed
}

// runDecide generates a batch of events untimed, then times the batch's
// Decide calls as one block; after every DecideFlush events a timed Flush
// refreshes the snapshot.
func (in *onlineInst) runDecide(e *env, o *outcome) (offers []int64, committed int64) {
	offers = make([]int64, len(in.reps))
	batch := make([]online.Event, 0, e.sz.DecideBatch)
	o.stalls = make([]float64, 0, len(in.reps)*(in.events/e.sz.DecideFlush+1))
	var decideWall time.Duration

	r := beginRegion(e.tr != nil)
	for n, rep := range in.reps {
		sinceFlush := 0
		for done := false; !done; {
			batch = batch[:0]
			for len(batch) < cap(batch) {
				ev, ok := rep.churn.Next()
				if !ok {
					done = true
					break
				}
				if isOffer(ev) {
					offers[n]++
				}
				batch = append(batch, ev)
			}
			op := e.tr.beginOp("online.Decide batch")
			decideWall += r.time(func() {
				for _, ev := range batch {
					if rep.svc.Decide(ev).Committed {
						committed++
					}
				}
			})
			e.tr.end(op)
			if sinceFlush += len(batch); sinceFlush >= e.sz.DecideFlush {
				sinceFlush = 0
				op := e.tr.beginOp("online.Flush")
				d := r.time(func() { rep.svc.Flush() })
				e.tr.end(op)
				o.stalls = append(o.stalls, d.Seconds())
			}
		}
	}
	o.reg = r.end()
	o.layer["online.decide_batch_ns"] = float64(decideWall.Nanoseconds()) / float64(o.attempted)
	return offers, committed
}

func decisionBits(d online.Decision) uint64 {
	v := uint64(uint32(d.Cluster)) << 2
	if d.Admitted {
		v |= 1
	}
	if d.Committed {
		v |= 2
	}
	return v ^ math.Float64bits(d.Bound)
}

// probe measures the online layer beside the traced region: single
// decisions on a service that never commits, the stall distribution the
// region recorded, the profit retained against a cold batch solve of the
// true final rates, and the cost of the service's own telemetry.
func (in *onlineInst) probe(e *env, o *outcome, vals map[string]float64) error {
	probeEvents := e.sz.DecideProbe
	rep := in.reps[0]
	probe := online.NewChurn(rep.scen, churnConfig(e, in.commit, probeEvents, e.seed+2))
	events := make([]online.Event, 0, probeEvents)
	for ev, ok := probe.Next(); ok; ev, ok = probe.Next() {
		events = append(events, ev)
	}
	// decideAll streams the probe events through a fresh never-committing
	// service and returns the block's wall time. each, when not nil,
	// receives every call's own duration.
	decideAll := func(ocfg online.Config, each []float64) (time.Duration, error) {
		svc, err := online.New(rep.scen, ocfg)
		if err != nil {
			return 0, fmt.Errorf("online probe: %w", err)
		}
		defer svc.Close()
		t0 := time.Now()
		if each == nil {
			for _, ev := range events {
				svc.Decide(ev)
			}
		} else {
			for i, ev := range events {
				c0 := time.Now()
				svc.Decide(ev)
				each[i] = float64(time.Since(c0).Nanoseconds())
			}
		}
		return time.Since(t0), nil
	}

	quiet := onlineConfig(e, false)
	each := make([]float64, probeEvents)
	if _, err := decideAll(quiet, each); err != nil {
		return err
	}
	vals["online.decide_ns_p50"] = quantile(each, 0.50)
	vals["online.decide_ns_p99"] = quantile(each, 0.99)
	plain, err := decideAll(quiet, nil)
	if err != nil {
		return err
	}
	if in.commit {
		vals["online.decide_batch_ns"] = float64(plain.Nanoseconds()) / float64(probeEvents)
	}
	instrumented := quiet
	instrumented.Telemetry = telemetry.New(nil)
	withTel, err := decideAll(instrumented, nil)
	if err != nil {
		return err
	}
	vals["telemetry.decide_overhead_frac"] = withTel.Seconds()/plain.Seconds() - 1

	churn := online.NewChurn(rep.scen, churnConfig(e, in.commit, math.MaxInt, e.seed+3))
	vals["online.churn_next_ns"] = perCall(func(n int) {
		for c := 0; c < n; c++ {
			churn.Next()
		}
	})

	// The stalls are commits on online_commit and flushes on
	// online_decide; either way what a caller waited.
	var total float64
	for _, s := range o.stalls {
		total += s
	}
	commits := vals["online.commit_count"]
	vals["online.events_per_commit"] = float64(o.attempted) / math.Max(commits, 1)
	vals["online.stall_p90_s"] = quantile(o.stalls, 0.90)
	vals["online.stall_max_s"] = quantile(o.stalls, 1)
	if in.commit {
		vals["online.commit_total_s"] = total
		vals["online.commit_unattributed_s"] = median(o.stalls) - vals["core.warm_solve_s"] - vals["alloc.index_build_ns"]/1e9
	} else {
		vals["online.flush_s"] = median(o.stalls)
	}

	// Retention, on the first replica: the flushed profit over a cold,
	// full-quality batch solve of every present client at its final
	// offered rate, including the ones the online path turned away.
	final := model.CloneScenario(rep.scen)
	rates := make([]float64, len(final.Clients))
	rep.churn.Rates(rates)
	for i := range final.Clients {
		final.Clients[i].ArrivalRate, final.Clients[i].PredictedRate = rates[i], rates[i]
	}
	cfg := core.DefaultConfig()
	cfg.Seed = e.seed
	cold, _, err := solve(nil, final, cfg)
	if err != nil {
		return fmt.Errorf("online probe: cold solve: %w", err)
	}
	vals["online.retention"] = rep.profit / cold.Profit()
	return nil
}
