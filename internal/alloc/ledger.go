package alloc

import (
	"math"

	"repro/internal/model"
)

// This file holds the incremental profit ledger: per-client revenue and
// per-server cost caches, per-cluster running totals, and the dirty sets
// that make Profit()/ProfitBreakdown() O(touched) instead of O(cloud).
//
// Invariants (see DESIGN.md §2):
//
//   - A client is "dirty" iff it is assigned and its cached revenue has
//     not been recomputed since its portions last changed. Unassigned
//     clients are never dirty: Unassign settles them eagerly by removing
//     their cached revenue from the ledger.
//   - A dirty client's ID appears in its cluster's dirtyClients list.
//     Stale list entries (the client was since unassigned, settled on
//     read, or moved to another cluster) are tolerated and skipped at
//     flush time via the clientDirty flag and the cluster check.
//   - A server is "dirty" iff any portion was added to or removed from it
//     since its cached cost was last recomputed. Servers never change
//     cluster, so the dirtyServers list needs no cluster check.
//   - Every ledger mutation touches only the cluster owning the mutated
//     client/server, so per-cluster goroutines (solver Parallel mode)
//     never race on ledger state as long as each goroutine confines its
//     mutations and profit reads to its own cluster.

// kahanSum is a compensated accumulator: the ledger totals absorb long
// streams of small deltas and must stay within 1e-9 of a from-scratch
// sum (the Validate cross-check), which plain accumulation cannot
// guarantee over millions of local-search moves.
type kahanSum struct {
	sum, comp float64
}

func (s *kahanSum) add(x float64) {
	y := x - s.comp
	t := s.sum + y
	s.comp = (t - s.sum) - y
	s.sum = t
}

func (s *kahanSum) value() float64 { return s.sum }

// clusterLedger aggregates one cluster's profit contribution.
type clusterLedger struct {
	rev       kahanSum // Σ cached revenue of the cluster's clients
	cost      kahanSum // Σ cached cost of the cluster's servers
	served    int      // clients with positive cached revenue
	saturated int      // assigned clients whose portions are saturated
	active    int      // servers with at least one portion
	assigned  int      // clients assigned to this cluster

	dirtyClients []model.ClientID
	dirtyServers []model.ServerID
}

// markClientDirty queues client i (assigned to cluster k) for revenue
// recomputation. Callers guarantee the client is not already dirty.
func (a *Allocation) markClientDirty(i model.ClientID, k int) {
	a.clientDirty[i] = true
	a.ledgers[k].dirtyClients = append(a.ledgers[k].dirtyClients, i)
}

// markServerDirty queues server j for cost recomputation.
func (a *Allocation) markServerDirty(j model.ServerID) {
	if a.serverDirty[j] {
		return
	}
	a.serverDirty[j] = true
	k := a.scen.Cloud.Servers[j].Cluster
	a.ledgers[k].dirtyServers = append(a.ledgers[k].dirtyServers, j)
}

// settleClient recomputes client i's revenue and folds the change into
// its cluster's ledger. The client must be assigned to the ledger's
// cluster.
func (a *Allocation) settleClient(i model.ClientID, led *clusterLedger) {
	a.clientDirty[i] = false
	rev, sat := a.computeRevenue(i)
	led.rev.add(rev - a.clientRev[i])
	a.clientRev[i] = rev
	if served := rev > 0; served != a.clientServed[i] {
		if served {
			led.served++
		} else {
			led.served--
		}
		a.clientServed[i] = served
	}
	if sat != a.clientSat[i] {
		if sat {
			led.saturated++
		} else {
			led.saturated--
		}
		a.clientSat[i] = sat
	}
}

// settleServer recomputes server j's cost and folds the change into its
// cluster's ledger.
func (a *Allocation) settleServer(j model.ServerID, led *clusterLedger) {
	a.serverDirty[j] = false
	cost := a.ServerCost(j)
	led.cost.add(cost - a.serverCost[j])
	a.serverCost[j] = cost
	if on := a.Active(j); on != a.serverOn[j] {
		if on {
			led.active++
		} else {
			led.active--
		}
		a.serverOn[j] = on
	}
}

// flush settles every dirty entry of cluster k's ledger. It reads and
// writes only cluster-k state, so concurrent flushes of distinct
// clusters are safe.
func (a *Allocation) flush(k int) {
	led := &a.ledgers[k]
	var settledC, settledS int
	if len(led.dirtyClients) > 0 {
		for _, i := range led.dirtyClients {
			// Skip stale entries: the client was settled on read,
			// unassigned, or moved to another cluster since it was queued.
			if !a.clientDirty[i] || a.clusterOf[i] != k {
				continue
			}
			a.settleClient(i, led)
			settledC++
		}
		led.dirtyClients = led.dirtyClients[:0]
	}
	if len(led.dirtyServers) > 0 {
		for _, j := range led.dirtyServers {
			if !a.serverDirty[j] {
				continue
			}
			a.settleServer(j, led)
			settledS++
		}
		led.dirtyServers = led.dirtyServers[:0]
	}
	if a.tel != nil {
		a.tel.recordFlush(k, settledC, settledS)
	}
}

// ClusterProfit returns cluster k's profit contribution — the revenue of
// its assigned clients minus the cost of its servers — settling only that
// cluster's dirty ledger entries: O(touched), not O(cloud). It touches no
// other cluster's state, so concurrent calls for distinct clusters are
// safe under the solver's per-cluster parallelism.
func (a *Allocation) ClusterProfit(k model.ClusterID) float64 {
	a.flush(int(k))
	led := &a.ledgers[k]
	return led.rev.value() - led.cost.value()
}

// RecomputeBreakdown computes the profit breakdown from scratch, ignoring
// every cached value. It is the O(cloud) reference the incremental ledger
// is checked against (Validate, property tests, benchmarks); production
// paths should use ProfitBreakdown.
func (a *Allocation) RecomputeBreakdown() Breakdown {
	var b Breakdown
	for i := range a.scen.Clients {
		id := model.ClientID(i)
		if !a.Assigned(id) {
			continue
		}
		b.Assigned++
		rev, sat := a.computeRevenue(id)
		if sat {
			b.Saturated++
		}
		if rev > 0 {
			b.Served++
		}
		b.Revenue += rev
	}
	for j := range a.servers {
		id := model.ServerID(j)
		if a.Active(id) {
			b.ActiveServers++
			b.EnergyCost += a.ServerCost(id)
		}
	}
	b.Profit = b.Revenue - b.EnergyCost
	return b
}

// ledgerCheck compares the incremental breakdown against a from-scratch
// recompute; used by Validate. tol bounds the float drift the compensated
// totals are allowed to accumulate, relative to each total's magnitude
// (an absolute bound cannot serve both a 50-client paper instance and a
// 1M-client scale instance whose revenue is seven orders larger).
func (a *Allocation) ledgerCheck(tol float64) (Breakdown, Breakdown, bool) {
	inc := a.ProfitBreakdown()
	full := a.RecomputeBreakdown()
	near := func(x, y float64) bool {
		return math.Abs(x-y) <= tol*(1+math.Max(math.Abs(x), math.Abs(y)))
	}
	ok := near(inc.Revenue, full.Revenue) &&
		near(inc.EnergyCost, full.EnergyCost) &&
		near(inc.Profit, full.Profit) &&
		inc.ActiveServers == full.ActiveServers &&
		inc.Served == full.Served &&
		inc.Saturated == full.Saturated &&
		inc.Assigned == full.Assigned
	return inc, full, ok
}
