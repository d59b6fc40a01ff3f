package alloc

import (
	"math"

	"repro/internal/model"
	"repro/internal/queueing"
)

// View is a read-only window onto an allocation with one client's
// resources subtracted on the fly — the state the reassignment pass
// prices candidate placements against ("what would the cloud look like
// without this client"). It never mutates the allocation or its ledger,
// so any number of Views over the same allocation may be read
// concurrently as long as nothing mutates the allocation meanwhile.
type View struct {
	a        *Allocation
	client   model.ClientID
	portions []Portion // the excluded client's live portions (aliased)
	diskNeed float64
}

// Excluding returns a View of the allocation without client i's
// resources. If i is unassigned the View reads the raw state.
func (a *Allocation) Excluding(i model.ClientID) View {
	v := View{a: a, client: i}
	if a.Assigned(i) {
		v.portions = a.portions[i]
		v.diskNeed = a.scen.Clients[i].DiskNeed
	}
	return v
}

// exclPortion returns the excluded client's portion on server j, if any.
func (v *View) exclPortion(j model.ServerID) (Portion, bool) {
	for _, p := range v.portions {
		if p.Server == j {
			return p, true
		}
	}
	return Portion{}, false
}

// ProcShareUsed mirrors Allocation.ProcShareUsed without the excluded
// client.
func (v *View) ProcShareUsed(j model.ServerID) float64 {
	u := v.a.servers[j].procShare
	if p, ok := v.exclPortion(j); ok {
		u -= p.ProcShare
	}
	return u
}

// CommShareUsed mirrors Allocation.CommShareUsed without the excluded
// client.
func (v *View) CommShareUsed(j model.ServerID) float64 {
	u := v.a.servers[j].commShare
	if p, ok := v.exclPortion(j); ok {
		u -= p.CommShare
	}
	return u
}

// DiskUsed mirrors Allocation.DiskUsed without the excluded client.
func (v *View) DiskUsed(j model.ServerID) float64 {
	u := v.a.servers[j].disk
	if _, ok := v.exclPortion(j); ok {
		u -= v.diskNeed
	}
	return u
}

// Active mirrors Allocation.Active without the excluded client.
func (v *View) Active(j model.ServerID) bool {
	n := len(v.a.servers[j].clients)
	if _, ok := v.exclPortion(j); ok {
		n--
	}
	return n > 0
}

// procLoad returns server j's processing utilization without the
// excluded client, reproducing the float arithmetic an actual Unassign
// would perform (procLoad -= LoadFraction).
func (v *View) procLoad(j model.ServerID) float64 {
	load := v.a.servers[j].procLoad
	if p, ok := v.exclPortion(j); ok {
		cl := &v.a.scen.Clients[v.client]
		class := v.a.scen.Cloud.ServerClass(j)
		load -= queueing.LoadFraction(class.ProcCap, cl.ProcTime, p.Alpha*cl.PredictedRate)
	}
	return load
}

// GainScratch holds PlacementGain's per-call working memory so a hot
// caller can amortize it across candidates.
type GainScratch struct {
	seen []model.ServerID
}

// PlacementGain evaluates the exact marginal profit of placing the
// excluded client on cluster k with the given portions, against the
// "client unserved" state: the client's revenue minus the change in the
// cost of the servers it would join. It is the read-only equivalent of
// the mutate-and-measure sequence Unassign → Assign → Revenue → cost
// delta → Unassign, and rejects exactly the candidates a real Assign (or
// a saturated revenueErr) would reject, returning ok=false.
func (v *View) PlacementGain(k model.ClusterID, portions []Portion, scratch *GainScratch) (gain float64, ok bool) {
	a := v.a
	scen := a.scen
	if int(k) < 0 || int(k) >= scen.Cloud.NumClusters() {
		return 0, false
	}
	cl := &scen.Clients[v.client]
	var alphaSum, resp, costBefore, costAfter float64
	seen := scratch.seen[:0]
	defer func() { scratch.seen = seen }()
	for _, p := range portions {
		if p.Alpha == 0 {
			continue // Assign drops zero portions
		}
		if p.Alpha < 0 || p.Alpha > 1+_alphaTol {
			return 0, false
		}
		if int(p.Server) < 0 || int(p.Server) >= len(a.servers) {
			return 0, false
		}
		if scen.Cloud.Servers[p.Server].Cluster != k {
			return 0, false
		}
		for _, s := range seen {
			if s == p.Server {
				return 0, false // duplicate portions on one server
			}
		}
		seen = append(seen, p.Server)

		class := scen.Cloud.ServerClass(p.Server)
		rate := p.Alpha * cl.PredictedRate
		if p.ProcShare <= queueing.MinStableShare(class.ProcCap, cl.ProcTime, rate) {
			return 0, false
		}
		if p.CommShare <= queueing.MinStableShare(class.CommCap, cl.CommTime, rate) {
			return 0, false
		}
		if v.ProcShareUsed(p.Server)+p.ProcShare > 1+_shareTol {
			return 0, false
		}
		if v.CommShareUsed(p.Server)+p.CommShare > 1+_shareTol {
			return 0, false
		}
		if v.DiskUsed(p.Server)+cl.DiskNeed > class.StoreCap+_shareTol {
			return 0, false
		}
		alphaSum += p.Alpha

		// Revenue term: the portion's tandem delay. An unstable stage is
		// the errSaturated case — an infeasible, not merely worthless,
		// placement.
		d, err := queueing.TandemDelay(
			queueing.PortionShares{Proc: p.ProcShare, Comm: p.CommShare},
			queueing.ServerCaps{Proc: class.ProcCap, Comm: class.CommCap},
			queueing.ExecTimes{Proc: cl.ProcTime, Comm: cl.CommTime},
			rate,
		)
		if err != nil {
			return 0, false
		}
		resp += p.Alpha * d

		// Cost terms: the server's cost without the client vs with the
		// candidate portion added.
		base := v.procLoad(p.Server)
		if v.Active(p.Server) {
			costBefore += class.FixedCost + class.UtilizationCost*base
		}
		costAfter += class.FixedCost + class.UtilizationCost*(base+queueing.LoadFraction(class.ProcCap, cl.ProcTime, rate))
	}
	if math.Abs(alphaSum-1) > _alphaTol {
		return 0, false
	}
	rev := cl.ArrivalRate * scen.Utility(v.client).Value(resp)
	return rev - (costAfter - costBefore), true
}

// CurrentGain evaluates PlacementGain for the excluded client's own
// current placement — the "gain of staying put" term of the reassignment
// decision. ok is false when the client is unassigned or its placement
// has become saturated under the current predicted rates.
func (v *View) CurrentGain(scratch *GainScratch) (float64, bool) {
	k := v.a.ClusterOf(v.client)
	if k == Unassigned {
		return 0, false
	}
	return v.PlacementGain(model.ClusterID(k), v.portions, scratch)
}
