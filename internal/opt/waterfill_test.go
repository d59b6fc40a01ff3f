package opt

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWaterfillSymmetricItems(t *testing.T) {
	items := []ShareItem{
		{Weight: 1, Exec: 1, PortionRate: 1, Cap: 4},
		{Weight: 1, Exec: 1, PortionRate: 1, Cap: 4},
	}
	shares, cost, err := WaterfillShares(items, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(shares[0]-shares[1]) > 1e-9 {
		t.Fatalf("symmetric items got asymmetric shares %v", shares)
	}
	if math.Abs(shares[0]+shares[1]-1) > 1e-9 {
		t.Fatalf("budget not exhausted: %v", shares)
	}
	// Each queue: μ = 0.5·4 = 2, λ = 1 → delay 1, weighted cost 1 each.
	if math.Abs(cost-2) > 1e-6 {
		t.Fatalf("cost = %v, want 2", cost)
	}
}

func TestWaterfillHeavierItemGetsMore(t *testing.T) {
	items := []ShareItem{
		{Weight: 4, Exec: 1, PortionRate: 1, Cap: 4},
		{Weight: 1, Exec: 1, PortionRate: 1, Cap: 4},
	}
	shares, _, err := WaterfillShares(items, 1)
	if err != nil {
		t.Fatal(err)
	}
	if shares[0] <= shares[1] {
		t.Fatalf("heavier item should get more share: %v", shares)
	}
}

func TestWaterfillZeroWeightGetsFloorOnly(t *testing.T) {
	items := []ShareItem{
		{Weight: 0, Exec: 1, PortionRate: 1, Cap: 4},
		{Weight: 1, Exec: 1, PortionRate: 1, Cap: 4},
	}
	shares, _, err := WaterfillShares(items, 1)
	if err != nil {
		t.Fatal(err)
	}
	floor := items[0].minShare()
	if shares[0] > floor*(1+1e-3) {
		t.Fatalf("zero-weight share %v, want ≈ floor %v", shares[0], floor)
	}
}

func TestWaterfillInfeasible(t *testing.T) {
	items := []ShareItem{
		{Weight: 1, Exec: 1, PortionRate: 3, Cap: 4}, // floor 0.75
		{Weight: 1, Exec: 1, PortionRate: 2, Cap: 4}, // floor 0.5
	}
	if _, _, err := WaterfillShares(items, 1); !errors.Is(err, errInsufficientBudget) {
		t.Fatalf("err = %v, want errInsufficientBudget", err)
	}
	if _, _, err := WaterfillShares(items, 0); !errors.Is(err, errInsufficientBudget) {
		t.Fatalf("zero budget: err = %v, want errInsufficientBudget", err)
	}
}

func TestWaterfillInvalidItem(t *testing.T) {
	if _, _, err := WaterfillShares([]ShareItem{{Weight: 1, Exec: -1, PortionRate: 1, Cap: 4}}, 1); err == nil {
		t.Fatal("negative exec time should error")
	}
	if _, _, err := WaterfillShares([]ShareItem{{Weight: -1, Exec: 1, PortionRate: 1, Cap: 4}}, 1); err == nil {
		t.Fatal("negative weight should error")
	}
}

func TestWaterfillEmpty(t *testing.T) {
	shares, cost, err := WaterfillShares(nil, 1)
	if err != nil || shares != nil || cost != 0 {
		t.Fatalf("empty waterfill: %v %v %v", shares, cost, err)
	}
}

// TestWaterfillOptimalVsGrid verifies KKT optimality against an exhaustive
// 1-D grid search on two items (φ2 = budget − φ1).
func TestWaterfillOptimalVsGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		items := []ShareItem{
			{Weight: 0.5 + rng.Float64()*3, Exec: 0.4 + 0.6*rng.Float64(), PortionRate: 0.2 + rng.Float64(), Cap: 2 + 4*rng.Float64()},
			{Weight: 0.5 + rng.Float64()*3, Exec: 0.4 + 0.6*rng.Float64(), PortionRate: 0.2 + rng.Float64(), Cap: 2 + 4*rng.Float64()},
		}
		budget := items[0].minShare() + items[1].minShare() + 0.1 + rng.Float64()*0.3
		if budget > 1 {
			budget = 1
		}
		shares, cost, err := WaterfillShares(items, budget)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if math.Abs(shares[0]+shares[1]-budget) > 1e-6 {
			t.Fatalf("trial %d: shares %v do not exhaust budget %v", trial, shares, budget)
		}
		best := math.Inf(1)
		for g := 1; g < 4000; g++ {
			p1 := budget * float64(g) / 4000
			c := items[0].delayCost(p1) + items[1].delayCost(budget-p1)
			if c < best {
				best = c
			}
		}
		if cost > best*(1+1e-3)+1e-9 {
			t.Fatalf("trial %d: waterfill cost %v worse than grid best %v", trial, cost, best)
		}
	}
}

// Property: shares respect floors and never exceed budget.
func TestWaterfillFeasibilityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		items := make([]ShareItem, n)
		var floors float64
		for i := range items {
			items[i] = ShareItem{
				Weight:      rng.Float64() * 3,
				Exec:        0.4 + 0.6*rng.Float64(),
				PortionRate: rng.Float64(),
				Cap:         2 + 4*rng.Float64(),
			}
			floors += items[i].minShare()
		}
		budget := floors + 0.05 + rng.Float64()*0.5
		if budget > 1 {
			budget = 1
		}
		if floors >= budget {
			return true // infeasible inputs are exercised elsewhere
		}
		shares, _, err := WaterfillShares(items, budget)
		if err != nil {
			return false
		}
		var sum float64
		for i, s := range shares {
			if s < items[i].minShare()-1e-12 {
				return false
			}
			sum += s
		}
		return sum <= budget+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
