// Package baseline implements the two comparators of the paper's
// evaluation (Section VI): the modified Proportional Share scheduler
// (adapted from Liu, Squillante & Wolf) and the Monte-Carlo
// random-assignment envelope that brackets the best/worst achievable
// profit.
package baseline

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/alloc"
	"repro/internal/model"
	"repro/internal/parallel"
)

// PSConfig tunes the modified Proportional Share baseline.
type PSConfig struct {
	// Workers bounds the sweep fan-out over psActiveFractions: 0, the
	// default, uses GOMAXPROCS; 1 sweeps sequentially. The winning
	// setting does not depend on the worker count.
	Workers int
}

// DefaultPSConfig returns the defaults used in the experiments.
func DefaultPSConfig() PSConfig {
	return PSConfig{}
}

// psActiveFractions is the sweep over the fraction of each cluster's
// servers (efficiency-ranked) to keep active; the best-profit setting
// wins (the paper's "iterative approach to find the best possible set of
// active servers").
var psActiveFractions = [...]float64{0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}

// psHeadroom multiplies the stability floor when sizing each client's
// minimum capacity.
const psHeadroom = 1.05

// SolveModifiedPS runs the modified Proportional Share baseline:
//
//  1. For each candidate active-server fraction, rank servers inside each
//     cluster by cost efficiency and keep the top fraction active.
//  2. Sort clients by utility slope, most response-time-sensitive first
//     (the paper's modification to respect client classes).
//  3. Give each client a capacity target proportional to its
//     slope-weighted work on the aggregated virtual server, then First-Fit
//     the target onto real servers, splitting to the next server when the
//     best one cannot fit the remainder (the paper's modified First Fit).
//  4. Keep the sweep setting with the best total profit.
func SolveModifiedPS(scen *model.Scenario, cfg PSConfig) (*alloc.Allocation, error) {
	if err := scen.Validate(); err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}

	// The sweep settings are independent; fan them out. Each worker
	// recycles one allocation arena and keeps its best attempt under
	// (profit desc, fraction index asc); the global winner under the
	// same order is the one a sequential sweep would keep, for any
	// worker count. Each attempt's first Profit() settles its whole
	// ledger once; any later re-evaluation of the winner is incremental.
	type workerBest struct {
		a      *alloc.Allocation
		profit float64
		index  int
	}
	n := len(psActiveFractions)
	workers := parallel.Bound(cfg.Workers, n)
	curs := make([]*alloc.Allocation, workers)
	bests := make([]workerBest, workers)
	parallel.For(parallel.Options{Workers: workers, Phase: "ps_sweep"}, n, func(w, idx int) {
		a := curs[w]
		if a == nil {
			a = alloc.New(scen)
		} else {
			a.Reset()
		}
		psAttempt(a, scen, psActiveFractions[idx])
		p := a.Profit()
		if b := &bests[w]; b.a == nil || p > b.profit || (p == b.profit && idx < b.index) {
			curs[w] = b.a
			*b = workerBest{a: a, profit: p, index: idx}
		} else {
			curs[w] = a
		}
	})
	var best *alloc.Allocation
	bestProfit, bestIndex := math.Inf(-1), n
	for w := range bests {
		b := &bests[w]
		if b.a == nil {
			continue
		}
		if best == nil || b.profit > bestProfit || (b.profit == bestProfit && b.index < bestIndex) {
			best, bestProfit, bestIndex = b.a, b.profit, b.index
		}
	}
	return best, nil
}

// psAttempt builds one PS solution with the given active fraction into
// an empty (fresh or Reset) allocation.
func psAttempt(a *alloc.Allocation, scen *model.Scenario, fraction float64) {
	active := activeSets(scen, fraction)

	// Virtual-server shares: weight each client by slope × work.
	type psClient struct {
		id     model.ClientID
		slope  float64
		weight float64
	}
	clients := make([]psClient, scen.NumClients())
	var totalWeight float64
	for i := range scen.Clients {
		cl := &scen.Clients[i]
		slope := scen.Utility(model.ClientID(i)).Slope
		w := slope * cl.ArrivalRate * cl.ProcTime
		clients[i] = psClient{id: model.ClientID(i), slope: slope, weight: w}
		totalWeight += w
	}
	// Most slope-sensitive clients are served first.
	sort.SliceStable(clients, func(x, y int) bool { return clients[x].slope > clients[y].slope })

	var totalCap float64
	for k := range active {
		for _, j := range active[k] {
			totalCap += scen.Cloud.ServerClass(j).ProcCap
		}
	}
	for _, pc := range clients {
		cl := &scen.Clients[pc.id]
		// PS target: proportional share of the aggregate capacity, at
		// least the stability floor with headroom.
		minCapP := cl.PredictedRate * cl.ProcTime * psHeadroom
		minCapB := cl.PredictedRate * cl.CommTime * psHeadroom
		targetP := minCapP
		if totalWeight > 0 {
			if t := pc.weight / totalWeight * totalCap; t > targetP {
				targetP = t
			}
		}
		targetB := targetP * cl.CommTime / cl.ProcTime
		if targetB < minCapB {
			targetB = minCapB
		}
		// Clusters tried in order of remaining aggregate capacity.
		for _, k := range clustersByRemaining(scen, a, active) {
			if portions := packFirstFit(scen, a, cl, active[k], targetP, targetB, minCapP, minCapB); portions != nil {
				if err := a.Assign(pc.id, k, portions); err == nil {
					break
				}
			}
		}
	}
}

// activeSets returns, per cluster, the servers kept active: the top
// fraction ranked by processing capacity per unit fixed-plus-utilization
// cost (at least one per cluster).
func activeSets(scen *model.Scenario, fraction float64) [][]model.ServerID {
	sets := make([][]model.ServerID, scen.Cloud.NumClusters())
	for k := range sets {
		servers := append([]model.ServerID(nil), scen.Cloud.ClusterServers(model.ClusterID(k))...)
		sort.SliceStable(servers, func(x, y int) bool {
			return psEfficiency(scen, servers[x]) > psEfficiency(scen, servers[y])
		})
		n := int(math.Ceil(fraction * float64(len(servers))))
		if n < 1 {
			n = 1
		}
		if n > len(servers) {
			n = len(servers)
		}
		sets[k] = servers[:n]
	}
	return sets
}

func psEfficiency(scen *model.Scenario, j model.ServerID) float64 {
	class := scen.Cloud.ServerClass(j)
	return class.ProcCap / (class.FixedCost + class.UtilizationCost)
}

// clustersByRemaining orders clusters by remaining aggregate processing
// capacity (descending).
func clustersByRemaining(scen *model.Scenario, a *alloc.Allocation, active [][]model.ServerID) []model.ClusterID {
	type rem struct {
		k model.ClusterID
		c float64
	}
	rems := make([]rem, len(active))
	for k := range active {
		var c float64
		for _, j := range active[k] {
			class := scen.Cloud.ServerClass(j)
			c += (1 - a.ProcShareUsed(j)) * class.ProcCap
		}
		rems[k] = rem{k: model.ClusterID(k), c: c}
	}
	sort.SliceStable(rems, func(x, y int) bool { return rems[x].c > rems[y].c })
	out := make([]model.ClusterID, len(rems))
	for n, r := range rems {
		out[n] = r.k
	}
	return out
}

// packFirstFit splits the client's capacity targets across the cluster's
// active servers, best (largest remaining) first; when the best server
// cannot host the remainder it takes what fits and the next server
// continues (the paper's modified First Fit). Returns nil when the
// cluster cannot host the client.
func packFirstFit(scen *model.Scenario, a *alloc.Allocation, cl *model.Client,
	servers []model.ServerID, targetP, targetB, minCapP, minCapB float64) []alloc.Portion {
	type slot struct {
		j            model.ServerID
		remP, remB   float64 // remaining capacity in absolute units
		capP, capB   float64
		diskFeasible bool
	}
	slots := make([]slot, 0, len(servers))
	for _, j := range servers {
		class := scen.Cloud.ServerClass(j)
		slots = append(slots, slot{
			j:            j,
			remP:         (1 - a.ProcShareUsed(j)) * class.ProcCap,
			remB:         (1 - a.CommShareUsed(j)) * class.CommCap,
			capP:         class.ProcCap,
			capB:         class.CommCap,
			diskFeasible: a.DiskUsed(j)+cl.DiskNeed <= class.StoreCap,
		})
	}
	sort.SliceStable(slots, func(x, y int) bool { return slots[x].remP > slots[y].remP })

	var portions []alloc.Portion
	remainingP := targetP
	for _, sl := range slots {
		if remainingP <= 0 {
			break
		}
		if !sl.diskFeasible {
			continue
		}
		// The chunk must keep its own stability: a fraction q of the
		// stream needs q·minCap of capacity in both dimensions.
		chunkP := math.Min(remainingP, sl.remP)
		q := chunkP / targetP
		chunkB := q * targetB
		if chunkB > sl.remB {
			// Scale the chunk down to what the communication side allows.
			q = sl.remB / targetB
			chunkP = q * targetP
			chunkB = sl.remB
		}
		if q <= 1e-9 || chunkP < q*minCapP || chunkB < q*minCapB {
			continue
		}
		portions = append(portions, alloc.Portion{
			Server:    sl.j,
			Alpha:     q,
			ProcShare: chunkP / sl.capP,
			CommShare: chunkB / sl.capB,
		})
		remainingP -= chunkP
	}
	if remainingP > 1e-9*targetP {
		return nil
	}
	// Normalize α drift from the chunking arithmetic.
	var sum float64
	for _, p := range portions {
		sum += p.Alpha
	}
	if math.Abs(sum-1) > 1e-9 {
		if sum <= 0 {
			return nil
		}
		for n := range portions {
			portions[n].Alpha /= sum
		}
	}
	return portions
}
