package cluster

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"time"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/parallel"
	"repro/internal/telemetry"
)

// ManagerConfig tunes the distributed solve.
type ManagerConfig struct {
	// NumInitSolutions mirrors core.Config: randomized greedy passes.
	NumInitSolutions int
	// Seed drives the client processing order.
	Seed int64
	// MaxInFlight bounds concurrent per-agent RPCs in every manager
	// fan-out (evaluate broadcasts, replay loads, improve rounds,
	// profit polls, snapshot merges) — the round loop's backpressure:
	// hundreds of agents never become hundreds of simultaneous
	// in-flight calls. 0 uses defaultMaxInFlight.
	MaxInFlight int
	// Telemetry, when non-nil, instruments the manager: solve/round
	// spans, round-latency histograms and per-cluster profit gauges.
	Telemetry *telemetry.Set
}

// The distributed improvement loop stops after maxImproveRounds rounds,
// or earlier once a round gains less than improveTolerance of the profit
// relatively — the same stop rule as core's local search.
const (
	maxImproveRounds = 20
	improveTolerance = 1e-4
)

// maxReassignPasses bounds the central reassignment polish: passes of
// the cloud-level reassignment pipeline over the merged allocation after
// the distributed improvement rounds. Cross-cluster client moves are a
// central-manager operation (paper Section V) the per-cluster agents
// cannot perform. Each pass after the first costs roughly O(changed
// clients) thanks to the solver's dirty-cluster tracking.
const maxReassignPasses = 3

// defaultMaxInFlight is the fan-out concurrency bound when
// ManagerConfig.MaxInFlight is 0. Agent RPCs are I/O-bound, so the
// bound is deliberately above GOMAXPROCS on small hosts.
const defaultMaxInFlight = 16

// DefaultManagerConfig matches the sequential solver's defaults.
func DefaultManagerConfig() ManagerConfig {
	return ManagerConfig{
		NumInitSolutions: 3,
		Seed:             1,
	}
}

// ManagerAttribution splits a distributed solve's final profit into the
// contribution of each manager-level phase: the greedy initial pass, the
// distributed improvement rounds, and the central reassignment polish.
// Initial + Improve + CentralReassign = Final up to float summation
// order — the manager-side counterpart of core.Attribution.
type ManagerAttribution struct {
	Initial         float64 `json:"initial"`
	Improve         float64 `json:"improve"`
	CentralReassign float64 `json:"central_reassign"`
	Final           float64 `json:"final"`
}

// ManagerStats summarizes a distributed solve.
type ManagerStats struct {
	InitialProfit float64
	FinalProfit   float64
	ImproveRounds int
	Activations   int
	Deactivations int
	// Reassignments counts the cross-cluster moves of the central
	// reassignment polish.
	Reassignments int
	Unplaced      int
	// Elapsed is the wall-clock time of the whole solve; InitElapsed the
	// share spent building (and replaying) the initial solutions.
	Elapsed     time.Duration
	InitElapsed time.Duration
	// RoundDurations has one entry per improvement round, in order —
	// the distributed counterpart of core.Stats timing.
	RoundDurations []time.Duration
	// Attribution is the per-phase profit breakdown of the solve.
	Attribution ManagerAttribution
}

// Manager is the paper's central resource manager: it owns the client
// list and coordinates one agent per cluster.
type Manager struct {
	scen   *model.Scenario
	agents []Agent
	cfg    ManagerConfig
	// reassigner runs the central reassignment polish on the merged
	// allocation. Its dirty-cluster marks carry across the passes of one
	// Solve only: merge builds a fresh allocation every Solve, and the
	// solver's cached pass state is keyed by allocation pointer, so each
	// Solve's first pass scores every client.
	reassigner *core.Solver
}

// NewManager wires a manager to its cluster agents. Exactly one agent per
// cluster is required, in cluster order.
func NewManager(scen *model.Scenario, agents []Agent, cfg ManagerConfig) (*Manager, error) {
	if err := scen.Validate(); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	if len(agents) != scen.Cloud.NumClusters() {
		return nil, fmt.Errorf("cluster: %d agents for %d clusters", len(agents), scen.Cloud.NumClusters())
	}
	for k, ag := range agents {
		id, err := ag.ClusterID(context.Background())
		if err != nil {
			return nil, fmt.Errorf("cluster: agent %d: %w", k, err)
		}
		if id != model.ClusterID(k) {
			return nil, fmt.Errorf("cluster: agent %d manages cluster %d", k, id)
		}
	}
	if cfg.NumInitSolutions <= 0 || cfg.MaxInFlight < 0 {
		return nil, fmt.Errorf("cluster: invalid config %+v", cfg)
	}
	ccfg := core.DefaultConfig()
	ccfg.Telemetry = cfg.Telemetry
	// The polish only moves clients between clusters; dropping an
	// already-served client would break the distributed solve's
	// constraint-(6) contract (every admitted client stays served).
	ccfg.AdmissionControl = false
	reassigner, err := core.NewSolver(scen, ccfg)
	if err != nil {
		return nil, fmt.Errorf("cluster: central reassigner: %w", err)
	}
	publish(cfg.Telemetry, &ManagerStats{}, make([]float64, len(agents))) // register the manager families
	return &Manager{
		scen:       scen,
		agents:     agents,
		cfg:        cfg,
		reassigner: reassigner,
	}, nil
}

// Solve runs the distributed heuristic and merges the agents' final
// cluster states into a single allocation.
func (m *Manager) Solve() (*alloc.Allocation, ManagerStats, error) {
	return m.SolveCtx(context.Background())
}

// SolveCtx is Solve under a caller-provided context. The whole solve —
// initial passes, improvement rounds, every RPC to every agent, and the
// agents' own spans on the far side of the wire — records as one trace
// tree rooted at the manager.solve span (or at the caller's span when
// ctx already carries trace context). A completed solve's ManagerStats
// is published to ManagerConfig.Telemetry.
func (m *Manager) SolveCtx(ctx context.Context) (*alloc.Allocation, ManagerStats, error) {
	start := time.Now()
	tel := m.cfg.Telemetry
	rng := rand.New(rand.NewSource(m.cfg.Seed))
	sp, ctx := tel.StartCtx(ctx, "manager.solve")
	defer sp.End()
	sp.Attr("clients", m.scen.NumClients())
	sp.Attr("clusters", len(m.agents))

	isp, ictx := tel.StartCtx(ctx, "manager.initial_pass")
	var (
		bestAssign map[model.ClientID]assignment
		bestProfit float64
		haveBest   bool
	)
	for iter := 0; iter < m.cfg.NumInitSolutions; iter++ {
		assignments, profit, err := m.initialPass(ictx, rng)
		if err != nil {
			return nil, ManagerStats{}, err
		}
		if !haveBest || profit > bestProfit {
			bestAssign, bestProfit, haveBest = assignments, profit, true
		}
	}

	// Load the best initial solution back into the agents.
	if err := m.load(ictx, bestAssign); err != nil {
		return nil, ManagerStats{}, err
	}
	stats := ManagerStats{InitialProfit: bestProfit, InitElapsed: time.Since(start)}
	isp.Attr("initial_profit", bestProfit)
	isp.End()

	// profits holds each cluster's profit after the latest round.
	profits := make([]float64, len(m.agents))
	prev := bestProfit
	for round := 0; round < maxImproveRounds; round++ {
		stats.ImproveRounds = round + 1
		rsp, rctx := tel.StartCtx(ctx, "manager.improve_round")
		t0 := time.Now()
		total, err := m.improveRound(rctx, &stats, profits)
		if err != nil {
			rsp.End()
			return nil, ManagerStats{}, err
		}
		stats.RoundDurations = append(stats.RoundDurations, time.Since(t0))
		rsp.Attr("round", round+1)
		rsp.Attr("profit", total)
		rsp.Attr("delta", total-prev)
		rsp.End()
		if total-prev <= improveTolerance*(1+abs(prev)) {
			prev = total
			break
		}
		prev = total
	}
	stats.FinalProfit = prev
	improved := prev // profit after the distributed rounds, pre-polish

	merged, err := m.merge(ctx)
	if err != nil {
		return nil, ManagerStats{}, err
	}

	// Central reassignment polish: the one local-search move only the
	// manager can make — moving clients across clusters on the merged
	// global state (paper Section V).
	csp, cctx := tel.StartCtx(ctx, "manager.central_reassign")
	if tel != nil {
		merged.Instrument(tel)
	}
	for pass := 0; pass < maxReassignPasses; pass++ {
		moved := m.reassigner.ReassignmentPassCtx(cctx, merged)
		stats.Reassignments += moved
		if moved == 0 {
			break
		}
	}
	if stats.Reassignments > 0 {
		stats.FinalProfit = merged.Profit()
	}
	csp.Attr("moves", stats.Reassignments)
	csp.End()
	stats.Attribution = ManagerAttribution{
		Initial:         stats.InitialProfit,
		Improve:         improved - stats.InitialProfit,
		CentralReassign: stats.FinalProfit - improved,
		Final:           stats.FinalProfit,
	}
	stats.Unplaced = m.scen.NumClients() - merged.NumAssigned()
	stats.Elapsed = time.Since(start)
	publish(tel, &stats, profits)
	sp.Attr("final_profit", stats.FinalProfit)
	sp.Attr("rounds", stats.ImproveRounds)
	return merged, stats, nil
}

type assignment struct {
	cluster  model.ClusterID
	portions []alloc.Portion
}

// initialPass runs one randomized greedy pass across the agents and
// returns the assignment map and its total profit.
func (m *Manager) initialPass(ctx context.Context, rng *rand.Rand) (map[model.ClientID]assignment, float64, error) {
	errs := m.fanOut(ctx, func(k int) error {
		return m.agents[k].Reset(ctx)
	})
	if err := errors.Join(errs...); err != nil {
		return nil, 0, fmt.Errorf("cluster: reset: %w", err)
	}
	assignments := make(map[model.ClientID]assignment, m.scen.NumClients())
	var order []bidRef
	for _, ci := range rng.Perm(m.scen.NumClients()) {
		id := model.ClientID(ci)
		bids, err := m.broadcastEvaluate(ctx, id)
		if err != nil {
			return nil, 0, err
		}
		// A failed Commit falls through to the next feasible bid.
		order = order[:0]
		for k, bid := range bids {
			if bid.Feasible {
				order = append(order, bidRef{est: bid.Est, k: k})
			}
		}
		slices.SortFunc(order, compareBids)
		for _, b := range order {
			if err := m.agents[b.k].Commit(ctx, id, bids[b.k].Portions); err == nil {
				assignments[id] = assignment{cluster: model.ClusterID(b.k), portions: bids[b.k].Portions}
				break
			}
		}
	}
	profit, err := m.totalProfit(ctx)
	if err != nil {
		return nil, 0, err
	}
	return assignments, profit, nil
}

// bidRef is one feasible cluster bid in the initial pass's commit order.
type bidRef struct {
	est float64
	k   int
}

// compareBids orders commit attempts: higher estimate first, lower
// cluster index on ties.
func compareBids(x, y bidRef) int {
	if c := cmp.Compare(y.est, x.est); c != 0 {
		return c
	}
	return cmp.Compare(x.k, y.k)
}

// maxInFlight resolves the fan-out concurrency bound.
func (m *Manager) maxInFlight() int {
	if m.cfg.MaxInFlight > 0 {
		return m.cfg.MaxInFlight
	}
	return defaultMaxInFlight
}

// fanOut runs fn once per agent on a bounded worker pool — the round
// loop's backpressure: at most maxInFlight agent calls are in flight at
// once, regardless of how many agents the manager coordinates. The
// returned slice has one entry per agent in agent order (nil on
// success), so callers keep deterministic error folding.
func (m *Manager) fanOut(ctx context.Context, fn func(k int) error) []error {
	errs := make([]error, len(m.agents))
	parallel.For(parallel.Options{Workers: m.maxInFlight(), Ctx: ctx}, len(m.agents), func(_, k int) {
		errs[k] = fn(k)
	})
	return errs
}

// broadcastEvaluate collects all agents' bids for a client on the
// bounded fan-out — the distributed analogue of trying every cluster.
func (m *Manager) broadcastEvaluate(ctx context.Context, id model.ClientID) ([]EvalResult, error) {
	bids := make([]EvalResult, len(m.agents))
	errs := m.fanOut(ctx, func(k int) error {
		var err error
		bids[k], err = m.agents[k].Evaluate(ctx, id)
		return err
	})
	if err := errors.Join(errs...); err != nil {
		return nil, fmt.Errorf("cluster: evaluate client %d: %w", id, err)
	}
	return bids, nil
}

// load resets the agents and replays an assignment map into them. Each
// agent only sees its own cluster's clients, so the replays are grouped
// per cluster (in client-ID order within each group, for deterministic
// agent-side state) and run on the bounded fan-out — the same shape as
// broadcastEvaluate.
func (m *Manager) load(ctx context.Context, assignments map[model.ClientID]assignment) error {
	groups := make([][]model.ClientID, len(m.agents))
	for i := 0; i < m.scen.NumClients(); i++ {
		id := model.ClientID(i)
		if as, ok := assignments[id]; ok {
			groups[as.cluster] = append(groups[as.cluster], id)
		}
	}
	errs := m.fanOut(ctx, func(k int) error {
		if err := m.agents[k].Reset(ctx); err != nil {
			return fmt.Errorf("cluster: reset: %w", err)
		}
		for _, id := range groups[k] {
			if err := m.agents[k].Commit(ctx, id, assignments[id].portions); err != nil {
				return fmt.Errorf("cluster: replay client %d: %w", id, err)
			}
		}
		return nil
	})
	return errors.Join(errs...)
}

// improveRound runs one Improve on every agent (bounded fan-out), writes
// each cluster's profit afterwards into profits and returns their total.
func (m *Manager) improveRound(ctx context.Context, stats *ManagerStats, profits []float64) (float64, error) {
	results := make([]ImproveStats, len(m.agents))
	errs := m.fanOut(ctx, func(k int) error {
		var err error
		results[k], err = m.agents[k].Improve(ctx)
		return err
	})
	if err := errors.Join(errs...); err != nil {
		return 0, fmt.Errorf("cluster: improve round: %w", err)
	}
	var total float64
	for k, r := range results {
		total += r.Profit
		profits[k] = r.Profit
		stats.Activations += r.Activations
		stats.Deactivations += r.Deactivations
	}
	return total, nil
}

// totalProfit sums the agents' cluster profits. Each agent answers from
// its allocation's incremental ledger, so a round's total costs
// O(mutations since the previous round), not O(cloud). The queries run
// on the bounded fan-out; the sum folds in fixed agent order, so the
// floating-point total is independent of scheduling.
func (m *Manager) totalProfit(ctx context.Context) (float64, error) {
	profits := make([]float64, len(m.agents))
	errs := m.fanOut(ctx, func(k int) error {
		p, err := m.agents[k].Profit(ctx)
		if err != nil {
			return fmt.Errorf("cluster: profit of cluster %d: %w", k, err)
		}
		profits[k] = p
		return nil
	})
	if err := errors.Join(errs...); err != nil {
		return 0, err
	}
	var total float64
	for _, p := range profits {
		total += p
	}
	return total, nil
}

// merge combines every agent's snapshot into one allocation. Snapshots
// are fetched on the bounded fan-out, then folded serially in agent
// order with sorted client IDs, so the merged allocation's mutation
// order — and hence its ledger's float summation order — is identical
// run to run. That determinism is what lets the chaos tests compare a
// faulty solve against the fault-free one bit-for-bit.
func (m *Manager) merge(ctx context.Context) (*alloc.Allocation, error) {
	snaps := make([]map[model.ClientID][]alloc.Portion, len(m.agents))
	errs := m.fanOut(ctx, func(k int) error {
		snap, err := m.agents[k].Snapshot(ctx)
		if err != nil {
			return fmt.Errorf("cluster: snapshot of cluster %d: %w", k, err)
		}
		snaps[k] = snap
		return nil
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	merged := alloc.New(m.scen)
	for k, snap := range snaps {
		ids := make([]model.ClientID, 0, len(snap))
		for id := range snap {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			if err := merged.Assign(id, model.ClusterID(k), snap[id]); err != nil {
				return nil, fmt.Errorf("cluster: merge client %d: %w", id, err)
			}
		}
	}
	return merged, nil
}

// Close closes all agents, returning the first error.
func (m *Manager) Close() error {
	var errs []error
	for _, ag := range m.agents {
		errs = append(errs, ag.Close())
	}
	return errors.Join(errs...)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
