package alloc

import (
	"math"

	"repro/internal/model"
)

// Index is the per-cluster price/headroom summary the solver's candidate
// generation queries instead of scanning every cluster: for any client it
// yields a cheap, provably sound upper bound on the exact PlacementGain
// the cluster could offer, so clusters whose bound cannot beat the
// client's best known option are pruned before the expensive
// Assign_Distribute + View.PlacementGain evaluation ever runs.
//
// The index extends the allocation's incremental machinery rather than
// bypassing it: each cluster's aggregate row is stamped with the
// cluster's ledger version counter (ClusterVersion) and recomputed lazily
// on Refresh only when the counter moved — the same dirty-cluster
// contract the reassignment pass's skip marks rely on. Refresh costs
// O(servers of the touched clusters); an untouched cluster costs one
// integer compare.
//
// Concurrency: Refresh/RefreshClusters mutate the index and must not run
// while another goroutine mutates the allocation or reads the index.
// GainUpperBound and TopK are read-only and may be called from any number
// of goroutines concurrently, as long as the clusters they consult are
// not mutated (and therefore not stale) meanwhile — the same contract as
// alloc.View. In the sharded solve each shard keeps its own Index and
// refreshes only its own clusters, so shards never read each other's
// server state.
type Index struct {
	a       *Allocation
	statics []clusterStatic
	aggs    []clusterAgg
}

// clusterStatic caches the scenario-derived constants of one cluster.
type clusterStatic struct {
	maxProcCap float64 // largest ProcCap among the cluster's server classes
	maxCommCap float64 // largest CommCap among the cluster's server classes
	// minUtilCostPerProcCap is min over the cluster's classes of
	// UtilizationCost/ProcCap: the cheapest possible marginal energy cost
	// per unit of work routed to the cluster.
	minUtilCostPerProcCap float64
	// minFixedCost is the cheapest activation cost among the cluster's
	// classes — a floor on the cost of waking an all-idle cluster.
	minFixedCost float64
	// shareSlack absorbs the per-server _shareTol budgets when comparing
	// a client's aggregate share need against the cluster's free total.
	shareSlack float64
}

// clusterAgg caches the allocation-dependent headroom of one cluster,
// valid for version == ClusterVersion(k). Alongside the whole-cluster
// aggregates it keeps the same figures restricted to the currently
// active servers: the gain bound splits placements into "active servers
// only" (no activation cost, active-subset headroom) and "touches an
// inactive server" (whole-cluster headroom plus the cheapest inactive
// server's fixed cost) — without the split, idle capacity looks free and
// the bound ranks idle clusters far above what any placement achieves.
type clusterAgg struct {
	version uint64
	fresh   bool

	freeProc    float64 // Σ max(0, 1 − procShare) over servers
	freeComm    float64 // Σ max(0, 1 − commShare)
	maxFreeProc float64 // largest single-server free processing share
	maxFreeComm float64 // largest single-server free communication share
	maxFreeDisk float64 // largest single-server free disk capacity
	active      int     // servers currently hosting at least one client

	freeProcAct    float64 // Σ max(0, 1 − procShare) over active servers
	freeCommAct    float64
	maxFreeProcAct float64 // largest free processing share on an active server
	maxFreeCommAct float64
	maxFreeDiskAct float64 // largest free disk on an active server
	maxProcCapAct  float64 // largest ProcCap among active servers
	maxCommCapAct  float64
	minFixedInact  float64 // cheapest inactive server's FixedCost; +Inf when all active
}

// Candidate is one cluster surviving the index's feasibility screen,
// with its gain upper bound.
type Candidate struct {
	Cluster model.ClusterID
	Bound   float64
}

// NewIndex builds an index over the allocation. The static per-cluster
// data is computed once; call Refresh before the first query.
func NewIndex(a *Allocation) *Index {
	numK := a.scen.Cloud.NumClusters()
	ix := &Index{
		a:       a,
		statics: make([]clusterStatic, numK),
		aggs:    make([]clusterAgg, numK),
	}
	for k := 0; k < numK; k++ {
		st := &ix.statics[k]
		st.minUtilCostPerProcCap = math.Inf(1)
		st.minFixedCost = math.Inf(1)
		servers := a.scen.Cloud.ClusterServers(model.ClusterID(k))
		st.shareSlack = float64(len(servers)) * _shareTol
		for _, j := range servers {
			class := a.scen.Cloud.ServerClass(j)
			if class.ProcCap > st.maxProcCap {
				st.maxProcCap = class.ProcCap
			}
			if class.CommCap > st.maxCommCap {
				st.maxCommCap = class.CommCap
			}
			if c := class.UtilizationCost / class.ProcCap; c < st.minUtilCostPerProcCap {
				st.minUtilCostPerProcCap = c
			}
			if class.FixedCost < st.minFixedCost {
				st.minFixedCost = class.FixedCost
			}
		}
		if len(servers) == 0 {
			st.minUtilCostPerProcCap = 0
			st.minFixedCost = 0
		}
	}
	return ix
}

// Refresh brings every cluster's aggregates up to date with the
// allocation, recomputing only clusters whose version counter moved.
func (ix *Index) Refresh() {
	for k := range ix.aggs {
		ix.refreshCluster(model.ClusterID(k))
	}
}

// RefreshClusters is Refresh restricted to a subset — the sharded solve
// uses it so a shard never reads another shard's server state.
func (ix *Index) RefreshClusters(ks []model.ClusterID) {
	for _, k := range ks {
		ix.refreshCluster(k)
	}
}

func (ix *Index) refreshCluster(k model.ClusterID) {
	agg := &ix.aggs[k]
	ver := ix.a.clusterVer[k]
	if agg.fresh && agg.version == ver {
		return
	}
	*agg = clusterAgg{version: ver, fresh: true}
	agg.maxFreeDisk = math.Inf(-1)
	agg.minFixedInact = math.Inf(1)
	for _, j := range ix.a.scen.Cloud.ClusterServers(k) {
		st := &ix.a.servers[j]
		class := ix.a.scen.Cloud.ServerClass(j)
		active := len(st.clients) > 0
		freeP := 1 - st.procShare
		if freeP < 0 {
			freeP = 0
		}
		freeB := 1 - st.commShare
		if freeB < 0 {
			freeB = 0
		}
		agg.freeProc += freeP
		agg.freeComm += freeB
		if freeP > agg.maxFreeProc {
			agg.maxFreeProc = freeP
		}
		if freeB > agg.maxFreeComm {
			agg.maxFreeComm = freeB
		}
		freeDisk := class.StoreCap - st.disk
		if freeDisk > agg.maxFreeDisk {
			agg.maxFreeDisk = freeDisk
		}
		if active {
			agg.active++
			agg.freeProcAct += freeP
			agg.freeCommAct += freeB
			if freeP > agg.maxFreeProcAct {
				agg.maxFreeProcAct = freeP
			}
			if freeB > agg.maxFreeCommAct {
				agg.maxFreeCommAct = freeB
			}
			if freeDisk > agg.maxFreeDiskAct {
				agg.maxFreeDiskAct = freeDisk
			}
			if class.ProcCap > agg.maxProcCapAct {
				agg.maxProcCapAct = class.ProcCap
			}
			if class.CommCap > agg.maxCommCapAct {
				agg.maxCommCapAct = class.CommCap
			}
		} else if class.FixedCost < agg.minFixedInact {
			agg.minFixedInact = class.FixedCost
		}
	}
	if math.IsInf(agg.maxFreeDisk, -1) {
		agg.maxFreeDisk = 0
	}
}

// GainUpperBound returns an upper bound on View.PlacementGain for placing
// client i on cluster k, or ok=false when the index can prove no feasible
// placement exists. The bound is sound for any client that currently
// holds no resources in cluster k (an unassigned client, or any cluster
// other than the client's own — the caller must evaluate the client's own
// cluster exactly, since the exclusion view frees the client's shares
// there and the raw aggregates underestimate that headroom).
//
// Derivation: every portion's tandem delay is at least
// tp/(φp·Cp) + tb/(φb·Cb) ≥ tp/(φmax·Cpmax) + tb/(φmax·Cbmax), and the
// utility is non-increasing, so revenue ≤ λ·U(R_lb). Every portion adds
// at least UtilizationCost/ProcCap · α·λ̃·tp of energy cost (Σα = 1). The
// activation cost splits the bound in two: a placement that stays on the
// currently active servers pays none but is limited to their headroom
// and capacities, while a placement touching any inactive server pays at
// least the cheapest inactive FixedCost. The bound is the better of the
// two branches — each also dominates the greedy Assign_Distribute
// estimate of such a placement (the DP's per-portion delay and cost
// terms obey the same inequalities), so estimate-threshold pruning in
// the greedy phase is sound too.
func (ix *Index) GainUpperBound(i model.ClientID, k model.ClusterID) (bound float64, ok bool) {
	cl := &ix.a.scen.Clients[i]
	return ix.GainUpperBoundAt(i, k, cl.ArrivalRate, cl.PredictedRate, PendingLoad{})
}

// PendingLoad is uncommitted load the online service has admitted to a
// cluster but not yet written into the allocation: share-equivalents
// (Σ λ̃·t / maxCap over pending clients) subtracted from the cluster's
// free totals before the bound is computed. Negative values (net
// departures) add headroom back. Only the aggregate free totals are
// shaded — the per-server maxima cannot be attributed without knowing
// which servers the pending clients would land on, so the bound stays an
// upper bound (shading only ever tightens the feasibility screens).
type PendingLoad struct {
	Proc float64 // pending processing share-equivalents (λ̃·tp/maxProcCap units)
	Comm float64 // pending communication share-equivalents
}

// GainUpperBoundAt is GainUpperBound with the client's rates supplied by
// the caller instead of read from the scenario, and with uncommitted
// pending load shading the cluster's free totals. The online service's
// lock-free decision path uses it so it never reads the mutable
// ArrivalRate/PredictedRate fields the commit path rewrites — only the
// client's immutable ProcTime/CommTime/DiskNeed and the frozen snapshot's
// aggregates.
func (ix *Index) GainUpperBoundAt(i model.ClientID, k model.ClusterID,
	arrivalRate, predictedRate float64, pend PendingLoad) (bound float64, ok bool) {
	st := &ix.statics[k]
	agg := &ix.aggs[k]
	cl := &ix.a.scen.Clients[i]

	freeProc := agg.freeProc - pend.Proc
	freeComm := agg.freeComm - pend.Comm
	freeProcAct := agg.freeProcAct - pend.Proc
	freeCommAct := agg.freeCommAct - pend.Comm

	// Feasibility screens: each mirrors a constraint Assign/PlacementGain
	// enforces exactly, relaxed to cluster aggregates so a violation here
	// is a proof, not a heuristic.
	if agg.maxFreeDisk+_shareTol < cl.DiskNeed {
		return 0, false // no server has the disk (constraints 5, 8)
	}
	needProc := predictedRate * cl.ProcTime / st.maxProcCap
	if freeProc+st.shareSlack <= needProc {
		return 0, false // total free share cannot sustain the load (4, 7)
	}
	needComm := predictedRate * cl.CommTime / st.maxCommCap
	if freeComm+st.shareSlack <= needComm {
		return 0, false
	}

	utilFloor := ix.utilFloor(k, predictedRate, cl)
	u := ix.a.scen.Utility(i)
	bound = math.Inf(-1)

	// Branch 1: the placement uses active servers only — no activation
	// cost, but headroom and capacities restricted to the active subset.
	if agg.active > 0 &&
		agg.maxFreeDiskAct+_shareTol >= cl.DiskNeed &&
		freeProcAct+st.shareSlack > predictedRate*cl.ProcTime/agg.maxProcCapAct &&
		freeCommAct+st.shareSlack > predictedRate*cl.CommTime/agg.maxCommCapAct {
		dP, dB := agg.activeDelayDivisors()
		bound = gainAt(u, arrivalRate, cl.ProcTime/dP+cl.CommTime/dB, utilFloor)
		ok = true
	}

	// Branch 2: the placement touches at least one inactive server —
	// whole-cluster headroom, plus the cheapest activation cost.
	if !math.IsInf(agg.minFixedInact, 1) {
		if b := agg.wakeGain(st, u, arrivalRate, cl, utilFloor); !ok || b > bound {
			bound = b
		}
		ok = true
	}
	if !ok {
		return 0, false
	}
	return bound, true
}

// utilFloor, gainAt, activeDelayDivisors and wakeGain are
// GainUpperBoundAt's terms; PricingTable.Best calls the same helpers, so
// the two cannot drift apart by a bit. utilFloor is the energy floor.
func (ix *Index) utilFloor(k model.ClusterID, predictedRate float64, cl *model.Client) float64 {
	return ix.statics[k].minUtilCostPerProcCap * predictedRate * cl.ProcTime
}

// gainAt is a branch's value at delay floor rLB, non-increasing in rLB
// for λ ≥ 0.
func gainAt(u model.UtilityClass, arrivalRate, rLB, utilFloor float64) float64 {
	return arrivalRate*u.Value(rLB) - utilFloor
}

// activeDelayDivisors are branch 1's φ·C. φ, the emptiest active server's
// free budget plus the tolerance, is not clamped to 1: checkPortions
// admits 1+_shareTol, and shaving it could push the bound below a gain.
func (agg *clusterAgg) activeDelayDivisors() (dP, dB float64) {
	phiP, phiB := agg.maxFreeProcAct+_shareTol, agg.maxFreeCommAct+_shareTol
	return phiP * agg.maxProcCapAct, phiB * agg.maxCommCapAct
}

// wakeGain is branch 2's value: whole-cluster headroom and capacities,
// less the cheapest inactive server's activation cost.
func (agg *clusterAgg) wakeGain(st *clusterStatic, u model.UtilityClass, arrivalRate float64, cl *model.Client, utilFloor float64) float64 {
	phiP, phiB := agg.maxFreeProc+_shareTol, agg.maxFreeComm+_shareTol
	rLB := cl.ProcTime/(phiP*st.maxProcCap) + cl.CommTime/(phiB*st.maxCommCap)
	return gainAt(u, arrivalRate, rLB, utilFloor) - agg.minFixedInact
}

// TopK returns up to k candidate clusters for client i ordered by (bound
// descending, cluster ID ascending) — a deterministic order, so callers
// that evaluate candidates in sequence get the same result at any worker
// count. subset restricts the scan (nil means every cluster; the sharded
// solve passes its own clusters). Clusters the index proves infeasible
// are omitted. The result reuses out's backing array.
func (ix *Index) TopK(i model.ClientID, k int, subset []model.ClusterID, out []Candidate) []Candidate {
	out = out[:0]
	if k <= 0 {
		return out
	}
	consider := func(kid model.ClusterID) {
		b, ok := ix.GainUpperBound(i, kid)
		if !ok {
			return
		}
		c := Candidate{Cluster: kid, Bound: b}
		if len(out) == k {
			last := &out[len(out)-1]
			if b < last.Bound || (b == last.Bound && kid > last.Cluster) {
				return
			}
			out = out[:len(out)-1]
		}
		// Insertion sort: k is small and the slice is already ordered.
		pos := len(out)
		for pos > 0 {
			p := &out[pos-1]
			if c.Bound < p.Bound || (c.Bound == p.Bound && c.Cluster > p.Cluster) {
				break
			}
			pos--
		}
		out = append(out, Candidate{})
		copy(out[pos+1:], out[pos:])
		out[pos] = c
	}
	if subset != nil {
		for _, kid := range subset {
			consider(kid)
		}
	} else {
		for kid := 0; kid < len(ix.aggs); kid++ {
			consider(model.ClusterID(kid))
		}
	}
	return out
}
