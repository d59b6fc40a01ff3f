package baseline

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/model"
)

// rejectClient in a client→cluster vector leaves the client unserved
// (admission control).
const rejectClient = -1

// evalAssignment builds an allocation from a client→cluster vector using
// the proposed cluster-level resource allocation, and returns it with its
// profit. Clients whose designated cluster cannot host them are skipped
// (they simply earn nothing).
func evalAssignment(solver *core.Solver, clusters []int) (*alloc.Allocation, float64, error) {
	scen := solver.Scenario()
	a := alloc.New(scen)
	for i, k := range clusters {
		id := model.ClientID(i)
		if k == rejectClient {
			continue
		}
		if k < 0 || k >= scen.Cloud.NumClusters() {
			return nil, 0, fmt.Errorf("baseline: client %d assigned to cluster %d", i, k)
		}
		_, portions, err := solver.AssignDistribute(a, id, model.ClusterID(k))
		if err != nil {
			if errors.Is(err, core.ErrCannotPlace) {
				continue
			}
			return nil, 0, err
		}
		if err := a.Assign(id, model.ClusterID(k), portions); err != nil {
			continue
		}
	}
	return a, a.Profit(), nil
}

// maxExhaustiveClients bounds the brute-force search; beyond this the
// K^N enumeration is pointless.
const maxExhaustiveClients = 10

// SolveExhaustive enumerates every client→cluster assignment — including
// rejecting a client outright (admission control) — with the proposed
// cluster-level allocation, and returns the best. Only feasible for tiny
// instances: the paper's "exhaustive search … in the case of very small
// input size".
func SolveExhaustive(scen *model.Scenario, cfg core.Config) (*alloc.Allocation, error) {
	if scen.NumClients() > maxExhaustiveClients {
		return nil, fmt.Errorf("baseline: %d clients exceed exhaustive limit %d",
			scen.NumClients(), maxExhaustiveClients)
	}
	solver, err := core.NewSolver(scen, cfg)
	if err != nil {
		return nil, err
	}
	// Each enumerated assignment is polished with the assignment-
	// preserving local-search phases so the comparison point reflects the
	// best resource allocation for that assignment, not just the greedy
	// one.
	improveCfg := cfg
	improveCfg.DisableReassign = true
	improver, err := core.NewSolver(scen, improveCfg)
	if err != nil {
		return nil, err
	}
	numK := scen.Cloud.NumClusters()
	n := scen.NumClients()
	assign := make([]int, n)
	var (
		best       *alloc.Allocation
		bestProfit = math.Inf(-1)
	)
	var rec func(i int) error
	rec = func(i int) error {
		if i == n {
			a, _, err := evalAssignment(solver, assign)
			if err != nil {
				return err
			}
			improver.ImproveLocalCtx(context.Background(), a, nil)
			if p := a.Profit(); p > bestProfit {
				best, bestProfit = a, p
			}
			return nil
		}
		for k := rejectClient; k < numK; k++ {
			assign[i] = k
			if err := rec(i + 1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(0); err != nil {
		return nil, err
	}
	return best, nil
}
