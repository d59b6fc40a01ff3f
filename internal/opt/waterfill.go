package opt

import (
	"errors"
	"fmt"
	"math"
)

// ShareItem describes one client portion competing for the GPS share
// budget of a single server in a single resource dimension.
//
// The delay cost the solver minimizes is Weight · t/(φ·C − a·t): Weight is
// the coefficient of the portion's M/M/1 delay in the profit function
// (λ_i · b_{c(i)} · α_ij in the paper), Exec is t, PortionRate is a = α·λ̃,
// Cap is C.
type ShareItem struct {
	Weight      float64
	Exec        float64
	PortionRate float64
	Cap         float64
}

// minShare is the stability floor a·t/C for the item.
func (it ShareItem) minShare() float64 {
	return it.PortionRate * it.Exec / it.Cap
}

// delayCost evaluates Weight·t/(φC − at); +Inf if infeasible.
func (it ShareItem) delayCost(share float64) float64 {
	den := share*it.Cap - it.PortionRate*it.Exec
	if den <= 0 {
		return math.Inf(1)
	}
	return it.Weight * it.Exec / den
}

// errInsufficientBudget is returned when the stability floors alone exceed
// the share budget, so no feasible allocation exists.
var errInsufficientBudget = errors.New("opt: share budget below stability floor")

// _stabilityMargin keeps every share strictly above its floor so delays
// stay finite; it mirrors the paper's ε in constraint (7).
const _stabilityMargin = 1e-6

// WaterfillShares splits the share budget of one server dimension across
// the items, minimizing the total weighted M/M/1 delay. This is the
// closed-form KKT solution of the paper's eq. (16)/(18): for multiplier η,
//
//	φ_i(η) = clamp( a_i·t_i/C + sqrt(Weight_i·t_i/(C·η)), lo_i, budget )
//
// and η is found by binary search so that Σφ_i = budget (or every item is
// saturated). Items with zero weight receive only their stability floor.
//
// It returns the shares (aligned with items) and the achieved total
// weighted delay.
func WaterfillShares(items []ShareItem, budget float64) ([]float64, float64, error) {
	if len(items) == 0 {
		return nil, 0, nil
	}
	if budget <= 0 {
		return nil, 0, errInsufficientBudget
	}
	lows := make([]float64, len(items))
	var floorSum float64
	for i, it := range items {
		if it.Cap <= 0 || it.Exec <= 0 || it.PortionRate < 0 || it.Weight < 0 {
			return nil, 0, fmt.Errorf("opt: invalid share item %d: %+v", i, it)
		}
		lows[i] = it.minShare() * (1 + _stabilityMargin)
		if lows[i] == 0 {
			// Zero-load item: any positive share keeps it stable; it only
			// needs share if it has weight, which the water level provides.
			lows[i] = 0
		}
		floorSum += lows[i]
	}
	if floorSum >= budget {
		return nil, 0, errInsufficientBudget
	}

	sharesAt := func(eta float64) ([]float64, float64) {
		shares := make([]float64, len(items))
		var sum float64
		for i, it := range items {
			var phi float64
			if it.Weight > 0 {
				phi = it.minShare() + math.Sqrt(it.Weight*it.Exec/(it.Cap*eta))
			}
			if phi < lows[i] {
				phi = lows[i]
			}
			if phi > budget {
				phi = budget
			}
			shares[i] = phi
			sum += phi
		}
		return shares, sum
	}

	// Bracket η: total share is decreasing in η.
	loEta, hiEta := 1e-18, 1.0
	for {
		if _, sum := sharesAt(hiEta); sum <= budget {
			break
		}
		hiEta *= 4
		if hiEta > 1e30 {
			break
		}
	}
	if _, sum := sharesAt(loEta); sum <= budget {
		// Even a near-zero multiplier (maximal shares) fits: saturate.
		shares, _ := sharesAt(loEta)
		return shares, totalDelayCost(items, shares), nil
	}
	eta, err := bisect(func(eta float64) float64 {
		_, sum := sharesAt(eta)
		return sum - budget
	}, loEta, hiEta)
	if err != nil {
		return nil, 0, fmt.Errorf("opt: waterfill multiplier search: %w", err)
	}
	shares, sum := sharesAt(eta)
	// Distribute any numerical slack to the heaviest item; never take share
	// away (that could destabilize a floor-clamped item).
	if slack := budget - sum; slack > 0 {
		best := 0
		for i, it := range items {
			if it.Weight > items[best].Weight {
				best = i
			}
		}
		shares[best] += slack
	}
	return shares, totalDelayCost(items, shares), nil
}

func totalDelayCost(items []ShareItem, shares []float64) float64 {
	var c float64
	for i, it := range items {
		if it.Weight == 0 {
			continue
		}
		c += it.delayCost(shares[i])
	}
	return c
}
