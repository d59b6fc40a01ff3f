package alloc

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/model"
	"repro/internal/queueing"
)

// errUnassigned reports a revenue query for a client that is not placed.
var errUnassigned = errors.New("alloc: client unassigned")

// errSaturated reports a client whose current portions cannot sustain its
// predicted arrival rate (a portion's tandem queue is unstable). The
// solver treats this as "infeasible move", distinct from a placement that
// is merely worth zero revenue.
var errSaturated = errors.New("alloc: client portion saturated")

// ResponseTime returns the mean response time R̄_i of client i under the
// current allocation (paper eq. (1)). It returns an error if the client is
// unassigned or any portion is saturated.
func (a *Allocation) ResponseTime(i model.ClientID) (float64, error) {
	if !a.Assigned(i) {
		return 0, fmt.Errorf("alloc: client %d: %w", i, errUnassigned)
	}
	cl := &a.scen.Clients[i]
	var r float64
	for _, p := range a.portions[i] {
		class := a.scen.Cloud.ServerClass(p.Server)
		d, err := queueing.TandemDelay(
			queueing.PortionShares{Proc: p.ProcShare, Comm: p.CommShare},
			queueing.ServerCaps{Proc: class.ProcCap, Comm: class.CommCap},
			queueing.ExecTimes{Proc: cl.ProcTime, Comm: cl.CommTime},
			p.Alpha*cl.PredictedRate,
		)
		if err != nil {
			return 0, fmt.Errorf("alloc: client %d portion on server %d: %w", i, p.Server, err)
		}
		r += p.Alpha * d
	}
	return r, nil
}

// computeRevenue evaluates client i's revenue from scratch: λ_i ·
// U_{c(i)}(R̄_i) priced at the agreed arrival rate, plus a flag marking a
// saturated placement. The client must be assigned.
func (a *Allocation) computeRevenue(i model.ClientID) (rev float64, saturated bool) {
	r, err := a.ResponseTime(i)
	if err != nil {
		return 0, true
	}
	return a.scen.Clients[i].ArrivalRate * a.scen.Utility(i).Value(r), false
}

// Revenue returns the revenue earned from client i. Saturated or
// unassigned clients earn zero; use revenueErr to tell the cases apart.
// The value is served from the ledger cache when clean and settled into
// it otherwise, so repeated reads inside a local-search sweep are O(1).
func (a *Allocation) Revenue(i model.ClientID) float64 {
	rev, _ := a.revenueErr(i)
	return rev
}

// revenueErr returns client i's revenue, distinguishing the two zero
// cases the plain Revenue conflates: errUnassigned when the client is not
// placed and errSaturated when its portions cannot sustain the predicted
// rate (an infeasible, not merely worthless, placement).
func (a *Allocation) revenueErr(i model.ClientID) (float64, error) {
	if !a.Assigned(i) {
		return 0, fmt.Errorf("alloc: client %d: %w", i, errUnassigned)
	}
	if a.clientDirty[i] {
		// Settle on read; the stale dirty-list entry is skipped at flush.
		a.settleClient(i, &a.ledgers[a.clusterOf[i]])
	}
	if a.clientSat[i] {
		return 0, fmt.Errorf("alloc: client %d: %w", i, errSaturated)
	}
	return a.clientRev[i], nil
}

// Active reports whether server j serves at least one portion (paper
// constraint (3): a server with allocated resources is ON).
func (a *Allocation) Active(j model.ServerID) bool {
	return len(a.servers[j].clients) > 0
}

// ServerCost returns the operation cost of server j under the current
// allocation: P0 + P1·(processing utilization) when active, 0 otherwise.
func (a *Allocation) ServerCost(j model.ServerID) float64 {
	if !a.Active(j) {
		return 0
	}
	class := a.scen.Cloud.ServerClass(j)
	return class.FixedCost + class.UtilizationCost*a.servers[j].procLoad
}

// Breakdown decomposes the total profit.
type Breakdown struct {
	Revenue       float64
	EnergyCost    float64
	Profit        float64
	ActiveServers int
	Served        int // clients with positive revenue
	Saturated     int // assigned clients with saturated portions
	Assigned      int
}

// Profit returns total profit: Σ revenue − Σ active-server cost.
func (a *Allocation) Profit() float64 { return a.ProfitBreakdown().Profit }

// ProfitBreakdown returns the profit and its components from the
// incremental ledger: only entries dirtied since the previous evaluation
// are recomputed, so the cost is O(touched + clusters) rather than
// O(clients + servers). RecomputeBreakdown is the from-scratch reference.
func (a *Allocation) ProfitBreakdown() Breakdown {
	var b Breakdown
	for k := range a.ledgers {
		a.flush(k)
		led := &a.ledgers[k]
		b.Revenue += led.rev.value()
		b.EnergyCost += led.cost.value()
		b.ActiveServers += led.active
		b.Served += led.served
		b.Saturated += led.saturated
		b.Assigned += led.assigned
	}
	b.Profit = b.Revenue - b.EnergyCost
	return b
}

// ProcShareUsed returns the consumed processing-share budget of server j
// (including pre-allocated share), in [0,1].
func (a *Allocation) ProcShareUsed(j model.ServerID) float64 { return a.servers[j].procShare }

// CommShareUsed returns the consumed communication-share budget of server j.
func (a *Allocation) CommShareUsed(j model.ServerID) float64 { return a.servers[j].commShare }

// DiskUsed returns the reserved disk on server j in absolute units.
func (a *Allocation) DiskUsed(j model.ServerID) float64 { return a.servers[j].disk }

// ProcUtilization returns the processing-domain utilization of server j
// from this allocation's portions (the quantity the P1 cost multiplies).
func (a *Allocation) ProcUtilization(j model.ServerID) float64 { return a.servers[j].procLoad }

// ClientsOn returns the IDs of clients with a portion on server j, in
// ascending order.
func (a *Allocation) ClientsOn(j model.ServerID) []model.ClientID {
	st := &a.servers[j]
	if len(st.clients) == 0 {
		return nil
	}
	out := make([]model.ClientID, 0, len(st.clients))
	for id := range st.clients {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// NumActiveServers returns the number of active servers.
func (a *Allocation) NumActiveServers() int {
	var n int
	for j := range a.servers {
		if a.Active(model.ServerID(j)) {
			n++
		}
	}
	return n
}

// NumAssigned returns the number of assigned clients.
func (a *Allocation) NumAssigned() int {
	var n int
	for _, k := range a.clusterOf {
		if k != Unassigned {
			n++
		}
	}
	return n
}

// Clone returns a deep copy of the allocation — including the profit
// ledger, so the copy and the original can diverge without corrupting
// each other's cached totals — sharing the (immutable) scenario.
func (a *Allocation) Clone() *Allocation {
	c := &Allocation{
		scen:      a.scen,
		clusterOf: append([]int(nil), a.clusterOf...),
		portions:  make([][]Portion, len(a.portions)),
		servers:   make([]serverState, len(a.servers)),

		clientRev:    append([]float64(nil), a.clientRev...),
		clientServed: append([]bool(nil), a.clientServed...),
		clientSat:    append([]bool(nil), a.clientSat...),
		clientDirty:  append([]bool(nil), a.clientDirty...),
		serverCost:   append([]float64(nil), a.serverCost...),
		serverOn:     append([]bool(nil), a.serverOn...),
		serverDirty:  append([]bool(nil), a.serverDirty...),
		ledgers:      make([]clusterLedger, len(a.ledgers)),
		clusterVer:   append([]uint64(nil), a.clusterVer...),
		tel:          a.tel, // clones keep reporting to the same metrics
	}
	for i, ps := range a.portions {
		if len(ps) > 0 {
			c.portions[i] = append([]Portion(nil), ps...)
		}
	}
	for j, st := range a.servers {
		cs := st
		cs.clients = make(map[model.ClientID]struct{}, len(st.clients))
		for id := range st.clients {
			cs.clients[id] = struct{}{}
		}
		c.servers[j] = cs
	}
	for k, led := range a.ledgers {
		cl := led
		cl.dirtyClients = append([]model.ClientID(nil), led.dirtyClients...)
		cl.dirtyServers = append([]model.ServerID(nil), led.dirtyServers...)
		c.ledgers[k] = cl
	}
	return c
}

// Validate re-derives all server state from the portions and checks every
// problem constraint, then cross-checks the incremental profit ledger
// against a from-scratch recompute; it reports the first violation found.
// Useful as a post-solver invariant check and in property tests.
func (a *Allocation) Validate() error {
	fresh := New(a.scen)
	for i := range a.scen.Clients {
		id := model.ClientID(i)
		if !a.Assigned(id) {
			continue
		}
		if err := fresh.Assign(id, model.ClusterID(a.clusterOf[i]), a.portions[i]); err != nil {
			return err
		}
	}
	for j := range a.servers {
		got, want := a.servers[j], fresh.servers[j]
		if math.Abs(got.procShare-want.procShare) > 1e-6 ||
			math.Abs(got.commShare-want.commShare) > 1e-6 ||
			math.Abs(got.disk-want.disk) > 1e-6 ||
			math.Abs(got.procLoad-want.procLoad) > 1e-6 ||
			len(got.clients) != len(want.clients) {
			return fmt.Errorf("alloc: server %d bookkeeping drifted: have %+v want %+v", j, got, want)
		}
	}
	if inc, full, ok := a.ledgerCheck(1e-9); !ok {
		return fmt.Errorf("alloc: profit ledger drifted: incremental %+v vs recomputed %+v", inc, full)
	}
	return nil
}
