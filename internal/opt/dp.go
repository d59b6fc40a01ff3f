package opt

import (
	"errors"
	"fmt"
	"math"
)

// NegInf marks an infeasible cell in a Combine value table.
var NegInf = math.Inf(-1)

// ErrNoFeasibleCombination is returned when no choice of per-candidate
// portions sums to the required total.
var ErrNoFeasibleCombination = errors.New("opt: no feasible portion combination")

// PortionScratch holds the working arrays of the Assign_Distribute dynamic
// program so a hot caller (the reassignment scoring pool prices every
// client against every cluster) can reuse them across calls. The units
// slice returned by Combine aliases the scratch and is only valid until
// the next call.
type PortionScratch struct {
	dp, next []float64
	choice   []int16 // flat len(values)×(total+1) back-pointer matrix
	units    []int
}

// Combine is the dynamic program of the paper's Assign_Distribute: given
// values[s][g] — the profit contribution of routing g grid units (g·δ of
// the request stream) to candidate server s — choose g_s ≥ 0 with
// Σ g_s = total that maximizes Σ values[s][g_s].
//
// values[s] may be shorter than total+1; missing, NegInf and NaN cells are
// infeasible. values[s][0] must be 0 for "route nothing" to be free. total
// is at most math.MaxInt16, the range of the back-pointers. Returns the
// best value and the chosen grid units per candidate.
//
// A row costs O(total·lim), lim being its last feasible index; an identity
// row (only "route nothing" feasible, at value ±0) costs O(total).
func (ps *PortionScratch) Combine(values [][]float64, total int) (float64, []int, error) {
	if total < 0 {
		return 0, nil, errors.New("opt: negative total")
	}
	if total > math.MaxInt16 {
		return 0, nil, fmt.Errorf("opt: total %d exceeds %d grid units", total, math.MaxInt16)
	}
	if len(values) == 0 {
		if total == 0 {
			return 0, nil, nil
		}
		return 0, nil, ErrNoFeasibleCombination
	}
	// dp[g] = best value routing g units among candidates seen so far.
	// choice[s*(total+1)+g] = units given to candidate s in the best
	// solution that routes g units among candidates 0..s.
	dp := grow(ps.dp, total+1)
	next := grow(ps.next, total+1)
	choice := grow(ps.choice, len(values)*(total+1))
	dp[0] = 0
	for g := 1; g <= total; g++ {
		dp[g] = NegInf
	}

	for s, vals := range values {
		row := choice[s*(total+1) : (s+1)*(total+1)]
		// lim is the row's last feasible cell; !(v > NegInf) holds for
		// both NegInf and NaN.
		lim := min(len(vals)-1, total)
		for lim >= 0 && !(vals[lim] > NegInf) {
			lim--
		}
		if lim == 0 && vals[0] == 0 {
			// Identity row: every feasible dp[g] carries over with u = 0.
			// dp never holds −0 (it starts at +0, and a round-to-nearest
			// sum is −0 only when both operands are), so dp[g]+vals[0]
			// is dp[g] bit for bit and dp can stay in place.
			for g, d := range dp {
				if d == NegInf {
					row[g] = -1
				} else {
					row[g] = 0
				}
			}
			continue
		}
		for g := 0; g <= total; g++ {
			next[g] = NegInf
			row[g] = -1
		}
		for g, d := range dp {
			if d == NegInf {
				continue
			}
			ul := min(lim, total-g)
			nx, rw := next[g:g+ul+1], row[g:g+ul+1]
			for u, v := range vals[:ul+1] {
				if !(v > NegInf) {
					continue
				}
				if cand := d + v; cand > nx[u] {
					nx[u] = cand
					rw[u] = int16(u)
				}
			}
		}
		dp, next = next, dp
	}
	// The dp/next swaps above may have left the slices crossed; keep the
	// scratch headers pointing at both backing arrays either way.
	ps.dp, ps.next, ps.choice = dp, next, choice
	if dp[total] == NegInf {
		return 0, nil, ErrNoFeasibleCombination
	}
	units := grow(ps.units, len(values))
	ps.units = units
	g := total
	for s := len(values) - 1; s >= 0; s-- {
		u := int(choice[s*(total+1)+g])
		if u < 0 {
			return 0, nil, ErrNoFeasibleCombination
		}
		units[s] = u
		g -= u
	}
	return dp[total], units, nil
}

// grow returns buf resliced to n, reallocating only when the capacity is
// insufficient.
func grow[T any](buf []T, n int) []T {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]T, n)
}
