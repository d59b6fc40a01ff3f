// Package cluster implements the paper's distributed decision making: a
// central manager holds the client set while one agent per cluster
// evaluates placements and improves its own cluster in parallel (Section
// V: "the local agents are used to parallelize the solution and decrease
// the decision time"). Agents can run in-process (LocalAgent) or behind a
// TCP transport (internal/agentrpc).
package cluster

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/telemetry"
)

// EvalResult is an agent's bid for hosting a client.
type EvalResult struct {
	// Feasible is false when the cluster cannot host the client.
	Feasible bool
	// Est is the approximate profit of the placement.
	Est float64
	// Portions realize the placement.
	Portions []alloc.Portion
}

// ImproveStats reports one cluster-local improvement round.
type ImproveStats struct {
	Activations   int
	Deactivations int
	Profit        float64
}

// Agent is the cluster-side interface of the distributed solver. Every
// operation takes a context carrying the manager's trace context
// (telemetry.RefFromContext), so spans an agent records — in-process or
// on the far side of an RPC hop — parent into the manager's trace tree.
type Agent interface {
	// ClusterID identifies the cluster the agent manages.
	ClusterID(ctx context.Context) (model.ClusterID, error)
	// Reset clears all assignments (start of a fresh initial solution).
	Reset(ctx context.Context) error
	// Evaluate bids for hosting client id against current cluster state.
	Evaluate(ctx context.Context, id model.ClientID) (EvalResult, error)
	// Commit places client id with the given portions.
	Commit(ctx context.Context, id model.ClientID, portions []alloc.Portion) error
	// Remove unassigns client id.
	Remove(ctx context.Context, id model.ClientID) error
	// Improve runs one round of cluster-local search phases.
	Improve(ctx context.Context) (ImproveStats, error)
	// Profit returns the cluster-local profit.
	Profit(ctx context.Context) (float64, error)
	// Snapshot returns the cluster's current assignments.
	Snapshot(ctx context.Context) (map[model.ClientID][]alloc.Portion, error)
	// Close releases agent resources.
	Close() error
}

// LocalAgent runs a cluster agent in-process.
type LocalAgent struct {
	k      model.ClusterID
	solver *core.Solver
	a      *alloc.Allocation
	tel    *telemetry.Set // nil when telemetry is disabled
}

var _ Agent = (*LocalAgent)(nil)

// NewLocalAgent builds an agent for cluster k of the scenario. When
// cfg.Telemetry is set, both the agent's solver and its allocation
// ledger report to it.
func NewLocalAgent(scen *model.Scenario, k model.ClusterID, cfg core.Config) (*LocalAgent, error) {
	if int(k) < 0 || int(k) >= scen.Cloud.NumClusters() {
		return nil, fmt.Errorf("cluster: unknown cluster %d", k)
	}
	solver, err := core.NewSolver(scen, cfg)
	if err != nil {
		return nil, err
	}
	ag := &LocalAgent{k: k, solver: solver, a: alloc.New(scen), tel: cfg.Telemetry}
	ag.a.Instrument(ag.tel)
	return ag, nil
}

// ClusterID implements Agent.
func (ag *LocalAgent) ClusterID(ctx context.Context) (model.ClusterID, error) { return ag.k, nil }

// Reset implements Agent.
func (ag *LocalAgent) Reset(ctx context.Context) error {
	ag.a = alloc.New(ag.solver.Scenario())
	ag.a.Instrument(ag.tel)
	return nil
}

// Evaluate implements Agent.
func (ag *LocalAgent) Evaluate(ctx context.Context, id model.ClientID) (EvalResult, error) {
	est, portions, err := ag.solver.AssignDistribute(ag.a, id, ag.k)
	if errors.Is(err, core.ErrCannotPlace) {
		// Infeasibility is a valid bid ("pass"), not an error.
		return EvalResult{}, nil
	}
	if err != nil {
		return EvalResult{}, fmt.Errorf("cluster: agent %d evaluate client %d: %w", ag.k, id, err)
	}
	return EvalResult{Feasible: true, Est: est, Portions: portions}, nil
}

// Commit implements Agent.
func (ag *LocalAgent) Commit(ctx context.Context, id model.ClientID, portions []alloc.Portion) error {
	return ag.a.Assign(id, ag.k, portions)
}

// Remove implements Agent.
func (ag *LocalAgent) Remove(ctx context.Context, id model.ClientID) error {
	ag.a.Unassign(id)
	return nil
}

// Improve implements Agent: one sweep of the paper's cluster-local
// phases. The sweep records an agent.improve span under the caller's
// trace context — across an RPC hop this is the leaf of the manager's
// trace tree.
func (ag *LocalAgent) Improve(ctx context.Context) (ImproveStats, error) {
	sp, ctx := ag.tel.StartCtx(ctx, "agent.improve")
	sp.Attr("cluster", int(ag.k))
	defer sp.End()
	var st ImproveStats
	st.Activations, st.Deactivations = ag.solver.SweepCluster(ag.a, ag.k)
	p, err := ag.Profit(ctx)
	if err != nil {
		return st, err
	}
	st.Profit = p
	return st, nil
}

// Profit implements Agent: the cluster's profit contribution read from
// the allocation's incremental ledger — O(entries touched since the last
// evaluation) instead of a full scan over clients and servers, so the
// manager can poll agents every improvement round at scale.
func (ag *LocalAgent) Profit(ctx context.Context) (float64, error) {
	return ag.a.ClusterProfit(ag.k), nil
}

// Snapshot implements Agent.
func (ag *LocalAgent) Snapshot(ctx context.Context) (map[model.ClientID][]alloc.Portion, error) {
	out := make(map[model.ClientID][]alloc.Portion)
	scen := ag.solver.Scenario()
	for i := range scen.Clients {
		id := model.ClientID(i)
		if ag.a.ClusterOf(id) == int(ag.k) {
			out[id] = ag.a.Portions(id)
		}
	}
	return out, nil
}

// Close implements Agent.
func (ag *LocalAgent) Close() error { return nil }
