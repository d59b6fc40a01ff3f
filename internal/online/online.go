// Package online is the streaming serving path: an event-driven
// allocation service that admits, places, and evicts clients as they
// arrive, depart, and change rates — without re-running the batch solver
// per event.
//
// # Architecture
//
// The service keeps two planes of state:
//
//   - A committed plane: an immutable snapshot (allocation + refreshed
//     candidate index + per-cluster committed rates and commit
//     thresholds) published through an atomic pointer, RCU-style.
//     Decisions read it lock-free; it only changes wholesale at commit.
//   - A pending plane: per-client desired rates and per-cluster delta
//     accumulators, all atomics. Every decision folds its load change
//     into the accumulators; self-canceling traffic (an arrival followed
//     by a departure, jitter up then down) nets out to zero there and
//     never touches the solver.
//
// A cluster's accumulated |net Δλ̃| crossing its commit threshold
// triggers a commit: the solver lock is taken, all desired rates are
// written into the owned scenario, a warm-started incremental re-solve
// (core.SolveFromCtx) replays the previous allocation and re-places the
// drift, a fresh index is built, and the new snapshot is published. The
// threshold is deferred-commit write filtering: the hot path pays a few
// atomic CAS loops per event, and the expensive ledger mutation is
// amortized over the many events a threshold's worth of drift contains.
//
// # Determinism
//
// In the default synchronous mode the commit runs inline on the event
// that crossed the threshold, so the full decision stream is a pure
// function of (initial scenario, event sequence, solver seed) — replay
// the events and every admission, placement, and commit lands
// identically. Background mode trades that for latency: commits run on
// one background goroutine while decisions continue against the old
// snapshot, so the mapping from events to snapshot versions depends on
// commit timing (each individual decision is still correct against the
// snapshot it read).
//
// # Races avoided by construction
//
// The commit path mutates only the rate fields of the owned scenario's
// clients. The decision path never reads those fields: it prices
// placements with alloc.PricingTable.Best (exactly the best
// Index.GainUpperBoundAt, each distinct cluster state priced once), which
// takes the rates as arguments and reads only immutable client constants
// (ProcTime, CommTime, DiskNeed, Class) and the frozen snapshot.
package online

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/telemetry"
)

// EventKind discriminates stream events.
type EventKind uint8

const (
	// EventArrive offers a (previously absent) client at Event.Rate.
	EventArrive EventKind = iota
	// EventDepart withdraws a present client; Event.Rate is ignored.
	EventDepart
	// EventRateChange moves a present client to Event.Rate. For an
	// absent client it is treated as an arrival.
	EventRateChange
)

// Event is one element of the client churn stream.
type Event struct {
	Kind   EventKind
	Client model.ClientID
	Rate   float64 // offered λ (= λ̃): contract and provisioning rate
}

// Decision is the service's answer to one event.
type Decision struct {
	// Admitted reports whether an arrival was accepted. Departures and
	// rejected arrivals report false.
	Admitted bool
	// Cluster is the advisory placement for an admitted arrival (the
	// cluster whose gain bound won), or the vacated home cluster for a
	// departure. Unassigned (-1) otherwise. The binding placement is
	// decided at commit by the warm re-solve.
	Cluster model.ClusterID
	// Bound is the winning gain upper bound for an admitted arrival.
	Bound float64
	// Committed reports whether this event triggered (and, in
	// synchronous mode, completed) a commit.
	Committed bool
}

// Config parameterizes the service.
type Config struct {
	// Solver configures the commit-time re-solves. Seed fixes the
	// decision stream in synchronous mode; Workers bounds the solver's
	// internal fan-out (internal/parallel). New overwrites
	// Solver.Telemetry with Config.Telemetry, so the re-solves report
	// to the service's set.
	Solver core.Config
	// CommitRel is the relative commit threshold: a cluster commits when
	// its |net Δλ̃| reaches CommitRel × the cluster's committed rate.
	CommitRel float64
	// CommitFloor is the absolute threshold floor, in λ̃ units — it
	// governs cold clusters whose committed rate is near zero.
	CommitFloor float64
	// Background moves commits to a dedicated goroutine. Decisions stay
	// lock-free and keep reading the old snapshot during a commit;
	// byte-for-byte replay determinism is no longer guaranteed.
	Background bool
	// Telemetry instruments the service (nil disables). The decision
	// latency histogram uses telemetry.MicroBuckets.
	Telemetry *telemetry.Set
}

// DefaultConfig returns production-shaped defaults: synchronous commits
// at 10% relative drift, and a cheap solver tuned for incremental
// re-solves rather than from-scratch quality.
func DefaultConfig() Config {
	sc := core.DefaultConfig()
	sc.NumInitSolutions = 1
	sc.MaxLocalSearchIters = 1
	// Streaming commits are warm incremental re-solves: index-pruned
	// candidate generation and per-cluster fan-out cut the per-commit
	// latency without changing determinism (both are deterministic for a
	// fixed config; see core.Config.CandidateClusters/Parallel).
	sc.CandidateClusters = 2
	sc.Parallel = true
	return Config{
		Solver:      sc,
		CommitRel:   0.10,
		CommitFloor: 1.0,
	}
}

// snapshot is the committed plane: everything a lock-free decision needs,
// immutable once published.
type snapshot struct {
	a      *alloc.Allocation
	prices *alloc.PricingTable // over the allocation's refreshed index
	// clusterRate is the committed Σλ̃ per cluster.
	clusterRate []float64
	// threshold is max(CommitFloor, CommitRel·clusterRate) per cluster.
	threshold []float64
	version   uint64
}

// clusterAcc is one cluster's pending plane: atomic float accumulators
// (CAS on the bit pattern, the telemetry.Gauge technique). net carries
// the signed Δλ̃ the commit threshold watches; pendProc/pendComm carry
// the same deltas converted to share-equivalents (λ̃·t/maxCap) that
// shade the index's headroom; gross counts |Δλ̃| for telemetry only.
type clusterAcc struct {
	net      atomic.Uint64
	pendProc atomic.Uint64
	pendComm atomic.Uint64
	gross    atomic.Uint64
}

// addFloat CAS-adds delta to the float64 stored in u's bits and returns
// the new value.
func addFloat(u *atomic.Uint64, delta float64) float64 {
	for {
		old := u.Load()
		next := math.Float64frombits(old) + delta
		if u.CompareAndSwap(old, math.Float64bits(next)) {
			return next
		}
	}
}

func loadFloat(u *atomic.Uint64) float64 { return math.Float64frombits(u.Load()) }

// Service is the online allocation service. Decide is safe for
// concurrent use; construction, Flush, and Close are not concurrent with
// each other.
type Service struct {
	cfg Config

	// mu is the solver lock: held only by commits (and Profit, which
	// reads rates). The decision path never takes it.
	mu     sync.Mutex
	scen   *model.Scenario // owned clone; only rate fields mutate
	solver *core.Solver
	// flushSolver is the full-quality solver Flush commits with: the
	// streaming commits trade solution quality for latency, and the
	// final flush buys the quality back.
	flushSolver *core.Solver

	snap atomic.Pointer[snapshot]

	// desired[i] holds the float bits of client i's currently requested
	// λ̃ (0 = absent or rejected); home[i] the advisory cluster.
	desired []atomic.Uint64
	home    []atomic.Int32

	acc []clusterAcc

	// maxProcCap/maxCommCap normalize rate deltas into the share units
	// GainUpperBoundAt's feasibility screens use. Immutable.
	maxProcCap []float64
	maxCommCap []float64

	// Background commit machinery.
	commitCh chan struct{}
	done     chan struct{}
	wg       sync.WaitGroup

	// The event counters are always on: the Set's online_*_total handles
	// (shared by every service counting into that Set), or private ones
	// when telemetry is off. The other handles are nil without a Set.
	decisions *telemetry.Counter
	admits    *telemetry.Counter
	rejects   *telemetry.Counter
	commits   *telemetry.Counter
	decideDur *telemetry.Histogram
	commitDur *telemetry.Histogram
	grossRate *telemetry.Gauge
}

// New builds the service: clones the scenario, runs one cold solve for
// the initial committed plane, and (in background mode) starts the
// commit goroutine. Clients with zero rates are absent until they
// arrive.
func New(scen *model.Scenario, cfg Config) (*Service, error) {
	// NaN is refused too: it would make every event commit. An infinite
	// floor stays legal and means "never commit".
	if !(cfg.CommitRel >= 0) || !(cfg.CommitFloor >= 0) {
		return nil, fmt.Errorf("online: negative or NaN commit threshold (rel=%v floor=%v)", cfg.CommitRel, cfg.CommitFloor)
	}
	cfg.Solver.Telemetry = cfg.Telemetry
	own := model.CloneScenario(scen)
	solver, err := core.NewSolver(own, cfg.Solver)
	if err != nil {
		return nil, err
	}
	// Flush restores at least the default local-search budget so the
	// final committed allocation is batch-quality even when streaming
	// commits run with a trimmed budget.
	flushCfg := cfg.Solver
	if d := core.DefaultConfig(); flushCfg.MaxLocalSearchIters < d.MaxLocalSearchIters {
		flushCfg.MaxLocalSearchIters = d.MaxLocalSearchIters
	}
	flushSolver, err := core.NewSolver(own, flushCfg)
	if err != nil {
		return nil, err
	}
	numK := own.Cloud.NumClusters()
	s := &Service{
		cfg:         cfg,
		scen:        own,
		solver:      solver,
		flushSolver: flushSolver,
		desired:     make([]atomic.Uint64, own.NumClients()),
		home:        make([]atomic.Int32, own.NumClients()),
		acc:         make([]clusterAcc, numK),
		maxProcCap:  make([]float64, numK),
		maxCommCap:  make([]float64, numK),
	}
	for k := 0; k < numK; k++ {
		for _, j := range own.Cloud.ClusterServers(model.ClusterID(k)) {
			class := own.Cloud.ServerClass(j)
			s.maxProcCap[k] = math.Max(s.maxProcCap[k], class.ProcCap)
			s.maxCommCap[k] = math.Max(s.maxCommCap[k], class.CommCap)
		}
		// A serverless cluster can never be priced; 1 keeps the
		// normalization finite.
		if s.maxProcCap[k] == 0 {
			s.maxProcCap[k] = 1
		}
		if s.maxCommCap[k] == 0 {
			s.maxCommCap[k] = 1
		}
	}
	s.decisions = cfg.Telemetry.Counter("online_decisions_total")
	s.admits = cfg.Telemetry.Counter("online_admits_total")
	s.rejects = cfg.Telemetry.Counter("online_rejects_total")
	s.commits = cfg.Telemetry.Counter("online_commits_total")
	for _, c := range []**telemetry.Counter{&s.decisions, &s.admits, &s.rejects, &s.commits} {
		if *c == nil {
			*c = new(telemetry.Counter) // telemetry off: a private count
		}
	}
	if tel := cfg.Telemetry; tel != nil {
		s.decideDur = tel.Histogram("online_decide_seconds", telemetry.MicroBuckets)
		s.commitDur = tel.Histogram("online_commit_seconds", telemetry.DurationBuckets)
		s.grossRate = tel.Gauge("online_gross_pending_rate")
	}

	a, _, err := solver.Solve()
	if err != nil {
		return nil, fmt.Errorf("online: initial solve: %w", err)
	}
	for i := range own.Clients {
		id := model.ClientID(i)
		if own.Clients[i].PredictedRate > 0 {
			s.desired[i].Store(math.Float64bits(own.Clients[i].PredictedRate))
		}
		s.home[i].Store(int32(a.ClusterOf(id)))
	}
	s.publish(a, 1)

	if cfg.Background {
		s.commitCh = make(chan struct{}, 1)
		s.done = make(chan struct{})
		s.wg.Add(1)
		go s.commitLoop()
	}
	return s, nil
}

// publish builds the index, pricing table and per-cluster tables for
// allocation a and swaps in the new snapshot. Caller holds mu (or is New).
func (s *Service) publish(a *alloc.Allocation, version uint64) {
	ix := alloc.NewIndex(a)
	ix.Refresh()
	numK := len(s.acc)
	sn := &snapshot{
		a:           a,
		prices:      alloc.NewPricingTable(ix),
		clusterRate: make([]float64, numK),
		threshold:   make([]float64, numK),
		version:     version,
	}
	for i := range s.scen.Clients {
		if k := a.ClusterOf(model.ClientID(i)); k != alloc.Unassigned {
			sn.clusterRate[k] += s.scen.Clients[i].PredictedRate
		}
	}
	for k := 0; k < numK; k++ {
		sn.threshold[k] = math.Max(s.cfg.CommitFloor, s.cfg.CommitRel*sn.clusterRate[k])
	}
	s.snap.Store(sn)
}

// Decide processes one event and returns the decision. Lock-free except
// when it triggers a synchronous commit. An event for an unknown client,
// with a NaN or infinite rate, or of an unknown kind changes nothing and
// counts as a reject.
func (s *Service) Decide(ev Event) Decision {
	var t0 time.Time
	if s.decideDur != nil {
		t0 = time.Now()
	}
	s.decisions.Inc()
	var d Decision
	switch {
	case uint(ev.Client) >= uint(len(s.desired)) || !(math.Abs(ev.Rate) <= math.MaxFloat64):
		// An unknown client or a NaN/±Inf rate is rejected untouched:
		// one such rate in the accumulators would poison every later
		// threshold test.
		d = s.reject()
	case ev.Kind == EventArrive || ev.Kind == EventRateChange:
		d = s.decideOffer(ev.Client, ev.Rate)
	case ev.Kind == EventDepart:
		d = s.decideDepart(ev.Client)
	default:
		d = s.reject()
	}
	if s.decideDur != nil {
		s.decideDur.ObserveSince(t0)
	}
	return d
}

// decideOffer handles arrivals and rate changes: find the best shaded
// gain bound over the clusters (PricingTable.Best), admit it if positive,
// and fold the load delta into the pending plane.
func (s *Service) decideOffer(i model.ClientID, rate float64) Decision {
	if rate <= 0 {
		// A rate change to zero is a departure in disguise.
		return s.decideDepart(i)
	}
	cl := &s.scen.Clients[i] // only immutable fields are read below
	best, bestBound, found := s.snap.Load().prices.Best(i, rate, func(k model.ClusterID) alloc.PendingLoad {
		return alloc.PendingLoad{Proc: loadFloat(&s.acc[k].pendProc), Comm: loadFloat(&s.acc[k].pendComm)}
	})
	admitted := found && (!s.cfg.Solver.AdmissionControl || bestBound > 0)

	// The desired rate is recorded either way: a rejected offer is
	// waitlisted, and every commit's re-solve reconsiders it under the
	// solver's own admission control (capacity freed by later departures
	// can turn a reject into a placement). The accumulators track only
	// *placed* load, so a waitlisted client contributes no pending load
	// until a commit actually places it.
	old := math.Float64frombits(s.desired[i].Swap(math.Float64bits(rate)))
	h := int(s.home[i].Load())
	var committed bool
	switch {
	case h >= 0:
		// Currently placed (by a commit, or advisory): charge the delta
		// to its home so a later reversal cancels in place.
		committed = s.addPending(h, rate-old, cl)
	case admitted:
		// Newly pending on the advisory cluster: charge the full rate
		// (nothing was charged while absent or waitlisted).
		s.home[i].Store(int32(best))
		committed = s.addPending(int(best), rate, cl)
	}
	if !admitted {
		d := s.reject()
		d.Committed = committed
		return d
	}
	s.admits.Inc()
	return Decision{Admitted: true, Cluster: best, Bound: bestBound, Committed: committed}
}

// reject counts a rejected event and returns its decision.
func (s *Service) reject() Decision {
	s.rejects.Inc()
	return Decision{Cluster: model.ClusterID(alloc.Unassigned)}
}

// decideDepart withdraws client i's pending load.
func (s *Service) decideDepart(i model.ClientID) Decision {
	old := math.Float64frombits(s.desired[i].Swap(0))
	if old == 0 {
		return Decision{Cluster: model.ClusterID(alloc.Unassigned)}
	}
	k := int(s.home[i].Load())
	s.home[i].Store(int32(alloc.Unassigned))
	if k < 0 {
		// Waitlisted (never placed): nothing was charged, nothing to
		// withdraw.
		return Decision{Cluster: model.ClusterID(alloc.Unassigned)}
	}
	cl := &s.scen.Clients[i]
	committed := s.addPending(k, -old, cl)
	return Decision{Cluster: model.ClusterID(k), Committed: committed}
}

// addPending folds a λ̃ delta for client cl into cluster k's accumulators
// and fires the commit protocol when the net crosses the threshold.
// Reports whether a commit was triggered.
func (s *Service) addPending(k int, delta float64, cl *model.Client) bool {
	acc := &s.acc[k]
	net := addFloat(&acc.net, delta)
	addFloat(&acc.pendProc, delta*cl.ProcTime/s.maxProcCap[k])
	addFloat(&acc.pendComm, delta*cl.CommTime/s.maxCommCap[k])
	addFloat(&acc.gross, math.Abs(delta))
	s.grossRate.Add(math.Abs(delta))
	sn := s.snap.Load()
	if math.Abs(net) < sn.threshold[k] {
		return false
	}
	if s.cfg.Background {
		select {
		case s.commitCh <- struct{}{}:
		default: // a commit is already queued
		}
		return true
	}
	s.commit(s.solver)
	return true
}

// commitLoop is the background committer: one goroutine, one commit at a
// time, triggered by threshold crossings.
func (s *Service) commitLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.done:
			return
		case <-s.commitCh:
			s.commit(s.solver)
		}
	}
}

// commit folds the pending plane into the committed plane: write desired
// rates into the owned scenario, warm re-solve from the previous
// allocation, publish the new snapshot, and subtract exactly the
// accumulator values observed at rate-copy time (deltas raced in by
// concurrent deciders survive as the next pending residue).
func (s *Service) commit(solver *core.Solver) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var t0 time.Time
	if s.commitDur != nil {
		t0 = time.Now()
	}
	prev := s.snap.Load()

	// Observe the accumulators before copying rates: every decision
	// writes desired first, then the accumulator, so an acc value
	// observed here only covers desired values already visible.
	numK := len(s.acc)
	type accSeen struct{ net, pendProc, pendComm, gross float64 }
	seen := make([]accSeen, numK)
	for k := range s.acc {
		seen[k] = accSeen{
			net:      loadFloat(&s.acc[k].net),
			pendProc: loadFloat(&s.acc[k].pendProc),
			pendComm: loadFloat(&s.acc[k].pendComm),
			gross:    loadFloat(&s.acc[k].gross),
		}
	}
	for i := range s.scen.Clients {
		r := math.Float64frombits(s.desired[i].Load())
		s.scen.Clients[i].ArrivalRate = r
		s.scen.Clients[i].PredictedRate = r
	}

	a, _, err := solver.SolveFromCtx(context.Background(), prev.a)
	if err != nil {
		// A commit failure leaves the previous snapshot standing and the
		// pending plane intact; the next threshold crossing retries.
		s.cfg.Telemetry.Logger().Error("online: commit re-solve failed", "err", err)
		return
	}
	// The re-solve's placements supersede the advisory homes.
	for i := range s.scen.Clients {
		s.home[i].Store(int32(a.ClusterOf(model.ClientID(i))))
	}
	s.publish(a, prev.version+1)
	for k := range s.acc {
		addFloat(&s.acc[k].net, -seen[k].net)
		addFloat(&s.acc[k].pendProc, -seen[k].pendProc)
		addFloat(&s.acc[k].pendComm, -seen[k].pendComm)
		addFloat(&s.acc[k].gross, -seen[k].gross)
		s.grossRate.Add(-seen[k].gross)
	}
	s.commits.Inc()
	if s.commitDur != nil {
		s.commitDur.ObserveSince(t0)
	}
}

// Flush forces a commit of all pending deltas regardless of thresholds,
// waiting for it to complete, using the full-quality flush solver. The
// returned allocation is the committed plane after the flush; it remains
// owned by the service.
func (s *Service) Flush() *alloc.Allocation {
	s.commit(s.flushSolver)
	return s.snap.Load().a
}

// Close stops the background committer (no-op in synchronous mode). It
// does not flush.
func (s *Service) Close() {
	if s.done != nil {
		close(s.done)
		s.wg.Wait()
		s.done = nil
	}
}

// Snapshot returns the committed allocation and its version. The
// allocation is shared — treat it as read-only.
func (s *Service) Snapshot() (*alloc.Allocation, uint64) {
	sn := s.snap.Load()
	return sn.a, sn.version
}

// Version returns the committed snapshot version (1 after construction).
func (s *Service) Version() uint64 { return s.snap.Load().version }

// Profit prices the committed allocation at the committed rates. It
// takes the solver lock (rates are read), so it must not be called from
// a latency-critical path.
func (s *Service) Profit() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snap.Load().a.Profit()
}

// Decisions returns the number of events processed. It and the three
// counts below read the online_*_total counters: with a Telemetry set,
// they count every service that shares it.
func (s *Service) Decisions() int64 { return s.decisions.Value() }

// Admits returns the number of admitted offers (arrivals and rate
// changes).
func (s *Service) Admits() int64 { return s.admits.Value() }

// Rejects returns the number of rejected offers.
func (s *Service) Rejects() int64 { return s.rejects.Value() }

// Commits returns the number of completed commits (Flush included).
func (s *Service) Commits() int64 { return s.commits.Value() }

// Scenario returns the service's owned scenario. Rates reflect the last
// commit; callers must hold no expectations across commits.
func (s *Service) Scenario() *model.Scenario { return s.scen }
