// Package epoch runs the allocator across decision epochs (paper Section
// III: the resource allocation problem is re-solved each decision epoch
// as client request rates drift; small changes are absorbed by cluster
// dispatchers, large ones trigger a new cloud-level decision).
//
// RunController replays a rate Trace against a decision Policy,
// re-solving warm (from the previous epoch's allocation, as the paper's
// pseudo-code does) or cold (from scratch) when the policy asks, and
// realize measures profit under the *actual* rates — including the SLA
// damage when the drift saturates previously adequate shares.
package epoch

import (
	"repro/internal/alloc"
	"repro/internal/model"
	"repro/internal/queueing"
)

// realize prices the allocation at the actual arrival rates: response
// times are recomputed with the actual per-portion loads; a saturated
// portion voids the client's revenue for the epoch. Returns the realized
// profit and the number of saturated clients.
func realize(scen *model.Scenario, a *alloc.Allocation) (float64, int) {
	var profit float64
	var saturated int
	actualLoad := make([]float64, scen.Cloud.NumServers())
	for i := range scen.Clients {
		id := model.ClientID(i)
		if !a.Assigned(id) {
			continue
		}
		cl := &scen.Clients[i]
		var resp float64
		ok := true
		for _, p := range a.Portions(id) {
			class := scen.Cloud.ServerClass(p.Server)
			rate := p.Alpha * cl.ArrivalRate
			actualLoad[p.Server] += queueing.LoadFraction(class.ProcCap, cl.ProcTime, rate)
			d, err := queueing.TandemDelay(
				queueing.PortionShares{Proc: p.ProcShare, Comm: p.CommShare},
				queueing.ServerCaps{Proc: class.ProcCap, Comm: class.CommCap},
				queueing.ExecTimes{Proc: cl.ProcTime, Comm: cl.CommTime},
				rate,
			)
			if err != nil {
				ok = false
				break
			}
			resp += p.Alpha * d
		}
		if !ok {
			saturated++
			continue
		}
		profit += cl.ArrivalRate * scen.Utility(id).Value(resp)
	}
	// The energy cost is paid at the actual utilization, not the planned
	// one. A saturated portion still occupies its full GPS share; charge
	// its utilization capped at the share itself.
	for j := range scen.Cloud.Servers {
		id := model.ServerID(j)
		if !a.Active(id) {
			continue
		}
		class := scen.Cloud.ServerClass(id)
		load := actualLoad[j]
		if lim := a.ProcShareUsed(id); load > lim {
			load = lim
		}
		profit -= class.FixedCost + class.UtilizationCost*load
	}
	return profit, saturated
}
