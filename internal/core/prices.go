package core

import (
	"math"

	"repro/internal/model"
)

// shadowPrices hold the calibrated capacity shadow prices η used by the
// greedy share formula of Assign_Distribute.
//
// The paper's eq. (16) gives the optimal share for a fixed dispersion rate
// as φ = a·t/C + sqrt(w·t/(η·C)) clamped to the available range, where η
// prices one unit of GPS share. The paper does not spell out how η is
// chosen; we calibrate it so that, if every client were placed whole on an
// average server, the sqrt-headroom demanded across all clients would
// exactly equal the share headroom the cloud has left after serving the
// raw load (see DESIGN.md §3.5). An overloaded cloud therefore gets a large η
// (shares hug the stability floors, packing tightly) and an idle cloud a
// small η (clients get generous shares).
type shadowPrices struct {
	proc float64
	comm float64
}

// calibratePrices computes the shadow prices for a scenario.
func calibratePrices(scen *model.Scenario, scale float64) shadowPrices {
	var (
		capP, capB   float64 // total capacity per dimension
		nServers     = float64(scen.Cloud.NumServers())
		avgCapP      float64
		avgCapB      float64
		loadP, loadB float64 // expected busy share demand (Σ λ̃t/C̄)
		demandP      float64 // Σ sqrt(w·t/C̄)
		demandB      float64
	)
	for j := range scen.Cloud.Servers {
		class := scen.Cloud.ServerClass(model.ServerID(j))
		capP += class.ProcCap
		capB += class.CommCap
	}
	if nServers == 0 {
		return shadowPrices{proc: 1, comm: 1}
	}
	avgCapP = capP / nServers
	avgCapB = capB / nServers
	for i := range scen.Clients {
		cl := &scen.Clients[i]
		w := cl.ArrivalRate * scen.Utility(model.ClientID(i)).Slope
		loadP += cl.PredictedRate * cl.ProcTime / avgCapP
		loadB += cl.PredictedRate * cl.CommTime / avgCapB
		demandP += math.Sqrt(w * cl.ProcTime / avgCapP)
		demandB += math.Sqrt(w * cl.CommTime / avgCapB)
	}
	price := func(demand, load float64) float64 {
		headroom := nServers - load
		// Keep a sliver of headroom even when the cloud is (over)loaded so
		// the price stays finite; the floors dominate in that regime.
		if headroom < 0.05*nServers {
			headroom = 0.05 * nServers
		}
		if demand == 0 {
			return 1
		}
		eta := demand / headroom
		return eta * eta * scale
	}
	return shadowPrices{
		proc: price(demandP, loadP),
		comm: price(demandB, loadB),
	}
}

// greedyShare is the closed-form share of paper eq. (16): the stability
// floor plus priced sqrt headroom, clamped to [minShare·(1+margin), avail].
// It returns 0, false when even the floor does not fit.
func greedyShare(weight, exec, portionRate, capacity, eta, avail float64) (float64, bool) {
	floor := portionRate * exec / capacity
	lo := floor*(1+1e-6) + 1e-12
	if lo >= avail {
		return 0, false
	}
	phi := floor
	if weight > 0 && eta > 0 {
		phi += math.Sqrt(weight * exec / (eta * capacity))
	}
	if phi < lo {
		phi = lo
	}
	if phi > avail {
		phi = avail
	}
	return phi, true
}
