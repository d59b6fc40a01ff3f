package opt

import (
	"errors"
	"fmt"
	"math"
)

// ConcaveItem is one coordinate of a separable concave maximization over a
// simplex: maximize Σ f_i(x_i) subject to Σ x_i = budget, 0 ≤ x_i < Cap_i.
//
// Deriv must be the derivative f_i', strictly decreasing on [0, Cap), with
// Deriv → −∞ as x → Cap (true for M/M/1 delays approaching saturation).
type ConcaveItem struct {
	Deriv func(x float64) float64
	Cap   float64
}

// errSimplexInfeasible is returned when Σ Cap_i ≤ budget, so the budget
// cannot be placed.
var errSimplexInfeasible = errors.New("opt: simplex budget exceeds total capacity")

// _capMargin keeps solutions strictly inside each item's capacity.
const _capMargin = 1e-9

// MaximizeOnSimplex solves the separable concave program by water-filling
// on the common derivative value ν: each x_i(ν) inverts f_i' (clipped to
// [0, Cap_i)), Σ x_i(ν) is decreasing in ν, and ν is found by bisection so
// the budget is met exactly. Returns the allocation aligned with items.
func MaximizeOnSimplex(items []ConcaveItem, budget float64) ([]float64, error) {
	if budget < 0 {
		return nil, fmt.Errorf("opt: negative simplex budget %v", budget)
	}
	if len(items) == 0 {
		if budget == 0 {
			return nil, nil
		}
		return nil, errSimplexInfeasible
	}
	var capSum float64
	for i, it := range items {
		if it.Cap < 0 || it.Deriv == nil {
			return nil, fmt.Errorf("opt: invalid concave item %d", i)
		}
		capSum += it.Cap * (1 - _capMargin)
	}
	if capSum <= budget {
		return nil, errSimplexInfeasible
	}

	// x_i(ν): invert the decreasing derivative by bisection on [0, cap).
	invert := func(it ConcaveItem, nu float64) float64 {
		hi := it.Cap * (1 - _capMargin)
		if hi <= 0 {
			return 0
		}
		if it.Deriv(0) <= nu {
			return 0
		}
		if it.Deriv(hi) >= nu {
			return hi
		}
		x, err := bisect(func(x float64) float64 { return it.Deriv(x) - nu }, 0, hi)
		if err != nil {
			return 0
		}
		return x
	}
	sumAt := func(nu float64) float64 {
		var s float64
		for _, it := range items {
			s += invert(it, nu)
		}
		return s
	}

	// Bracket ν. At ν = max f'(0) the sum is 0 ≤ budget; decrease ν until
	// the sum exceeds the budget.
	hiNu := math.Inf(-1)
	for _, it := range items {
		if d := it.Deriv(0); d > hiNu {
			hiNu = d
		}
	}
	if math.IsInf(hiNu, -1) || sumAt(hiNu) >= budget {
		// Degenerate: even the top derivative already forces the budget.
		hiNu = math.Max(hiNu, 1)
	}
	loNu := hiNu - 1
	for sumAt(loNu) < budget {
		loNu = hiNu - 2*(hiNu-loNu)
		if hiNu-loNu > 1e30 {
			return nil, errors.New("opt: simplex multiplier bracket failed")
		}
	}
	nu, err := bisect(func(nu float64) float64 { return sumAt(nu) - budget }, loNu, hiNu)
	if err != nil {
		return nil, fmt.Errorf("opt: simplex multiplier search: %w", err)
	}
	xs := make([]float64, len(items))
	var sum float64
	for i, it := range items {
		xs[i] = invert(it, nu)
		sum += xs[i]
	}
	// Repair residual numerical slack by scaling toward items with
	// remaining headroom.
	if slack := budget - sum; slack != 0 {
		distributeSlack(items, xs, slack)
	}
	return xs, nil
}

// distributeSlack adds (or removes) slack across items proportionally to
// their remaining headroom (or current value when removing).
func distributeSlack(items []ConcaveItem, xs []float64, slack float64) {
	if slack > 0 {
		var head float64
		for i, it := range items {
			head += it.Cap*(1-_capMargin) - xs[i]
		}
		if head <= 0 {
			return
		}
		for i, it := range items {
			xs[i] += slack * (it.Cap*(1-_capMargin) - xs[i]) / head
		}
		return
	}
	var total float64
	for _, x := range xs {
		total += x
	}
	if total <= 0 {
		return
	}
	for i := range xs {
		xs[i] += slack * xs[i] / total
	}
}
