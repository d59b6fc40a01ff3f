package alloc

import (
	"math"

	"repro/internal/model"
)

// PricingTable finds a client's best cluster by gain bound over a frozen
// Index (one per online snapshot). Clusters whose inputs to
// GainUpperBoundAt's wake branch (touch an inactive server) are
// bit-identical share one wake state, priced once per query; the active
// branch gets a division-free ceiling. The table is immutable.
type PricingTable struct {
	ix      *Index
	rows    []pricingRow
	wakeRep []model.ClusterID // one representative cluster per wake state
}

type pricingRow struct {
	recipP, recipB float64 // tp·recipP + tb·recipB ≤ branch 1's delay floor
	active         bool
	wake           int32 // wake-state id; -1 when every server is active
}

// wakeMemo wake states (≤ 32, the mask's bits) stay priced on Best's stack.
const wakeMemo = 16

// NewPricingTable builds the table over ix's current aggregates.
func NewPricingTable(ix *Index) *PricingTable {
	t := &PricingTable{ix: ix, rows: make([]pricingRow, len(ix.aggs))}
	ids := map[[6]uint64]int32{}
	for k := range ix.aggs {
		st, agg, row := &ix.statics[k], &ix.aggs[k], &t.rows[k]
		if agg.active > 0 {
			dP, dB := agg.activeDelayDivisors()
			row.recipP, row.recipB, row.active = recipBelow(dP), recipBelow(dB), true
		}
		row.wake = -1
		if math.IsInf(agg.minFixedInact, 1) {
			continue
		}
		var key [6]uint64
		for j, v := range [6]float64{agg.maxFreeProc, agg.maxFreeComm, st.maxProcCap, st.maxCommCap, agg.minFixedInact, st.minUtilCostPerProcCap} {
			key[j] = math.Float64bits(v)
		}
		id, ok := ids[key]
		if !ok {
			id, ids[key] = int32(len(t.wakeRep)), int32(len(t.wakeRep))
			t.wakeRep = append(t.wakeRep, model.ClusterID(k))
		}
		row.wake = id
	}
	return t
}

// recipBelow is fl(1/d) shrunk by 1e-14, far more than two roundings add:
// below 1/d for d > 0, so (rounding is monotone) fl(tp·r) ≤ fl(tp/d) for
// tp ≥ 0. Off the normal range the margin fails and 0 is the safe answer.
func recipBelow(d float64) float64 {
	if r := 1 / d * (1 - 1e-14); r >= 0x1p-1022 && r <= math.MaxFloat64 {
		return r
	}
	return 0
}

// Best returns exactly what the plain scan does: the first cluster in ID
// order with the largest GainUpperBoundAt(i, k, rate, rate, pend(k)), and
// ok = false when none is feasible. Past the first feasible cluster, one
// whose ceiling (max of active ceiling and wake value) is ≤ the incumbent
// cannot strictly win and is skipped unread; NaN ceilings and rates not
// ≥ 0 fall through to the exact bound.
func (t *PricingTable) Best(i model.ClientID, rate float64,
	pend func(model.ClusterID) PendingLoad) (best model.ClusterID, bound float64, ok bool) {
	ix, cl, u := t.ix, &t.ix.a.scen.Clients[i], t.ix.a.scen.Utility(i)
	var memo [wakeMemo]float64
	var priced uint32 // bit w: memo[w] holds wake state w's value
	wakeOf := func(w int32) float64 {
		if w < wakeMemo && priced&(1<<w) != 0 {
			return memo[w]
		}
		rep := t.wakeRep[w]
		v := ix.aggs[rep].wakeGain(&ix.statics[rep], u, rate, cl, ix.utilFloor(rep, rate, cl))
		if w < wakeMemo {
			memo[w], priced = v, priced|1<<w
		}
		return v
	}
	best, bound = Unassigned, math.Inf(-1)
	for k := range t.rows {
		kid, row := model.ClusterID(k), &t.rows[k]
		if best != Unassigned && rate >= 0 {
			c := math.Inf(-1)
			if row.active {
				// The float64 conversions keep the products from fusing.
				rLB := float64(cl.ProcTime*row.recipP) + float64(cl.CommTime*row.recipB)
				c = gainAt(u, rate, rLB, ix.utilFloor(kid, rate, cl))
			}
			if row.wake >= 0 {
				if wv := wakeOf(row.wake); wv > c {
					c = wv
				}
			}
			if c <= bound {
				continue
			}
		}
		if b, feasible := ix.GainUpperBoundAt(i, kid, rate, rate, pend(kid)); feasible && b > bound {
			best, bound = kid, b
		}
	}
	return best, bound, best != Unassigned
}
