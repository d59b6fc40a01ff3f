package opt

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// mm1DispersionItem builds a ConcaveItem for the dispersion-rate problem:
// f(α) = −w·α·t·M/(M − α·s) delay shape with fixed shares, where M = φC
// and s = λ̃t; f'(α) = −w·t·M/(M−αs)².
func mm1DispersionItem(w, execT, m, s float64) ConcaveItem {
	return ConcaveItem{
		Cap: m / s,
		Deriv: func(x float64) float64 {
			den := m - x*s
			if den <= 0 {
				return math.Inf(-1)
			}
			return -w * execT * m / (den * den)
		},
	}
}

func mm1DispersionValue(w, execT, m, s, x float64) float64 {
	den := m - x*s
	if den <= 0 {
		return math.Inf(-1)
	}
	return -w * x * execT / den
}

func TestSimplexSymmetric(t *testing.T) {
	items := []ConcaveItem{
		mm1DispersionItem(1, 1, 2, 1),
		mm1DispersionItem(1, 1, 2, 1),
	}
	xs, err := MaximizeOnSimplex(items, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(xs[0]-xs[1]) > 1e-6 {
		t.Fatalf("symmetric items got %v", xs)
	}
	if math.Abs(xs[0]+xs[1]-1) > 1e-6 {
		t.Fatalf("budget not met: %v", xs)
	}
}

func TestSimplexPrefersFasterServer(t *testing.T) {
	// Item 0 has double the service margin; it should carry more load.
	items := []ConcaveItem{
		mm1DispersionItem(1, 1, 4, 1),
		mm1DispersionItem(1, 1, 2, 1),
	}
	xs, err := MaximizeOnSimplex(items, 1)
	if err != nil {
		t.Fatal(err)
	}
	if xs[0] <= xs[1] {
		t.Fatalf("faster item should carry more: %v", xs)
	}
}

func TestSimplexInfeasible(t *testing.T) {
	items := []ConcaveItem{mm1DispersionItem(1, 1, 0.5, 1)} // cap 0.5 < 1
	if _, err := MaximizeOnSimplex(items, 1); !errors.Is(err, errSimplexInfeasible) {
		t.Fatalf("err = %v, want errSimplexInfeasible", err)
	}
	if _, err := MaximizeOnSimplex(nil, 1); !errors.Is(err, errSimplexInfeasible) {
		t.Fatalf("empty items: err = %v, want errSimplexInfeasible", err)
	}
}

func TestSimplexZeroBudget(t *testing.T) {
	items := []ConcaveItem{mm1DispersionItem(1, 1, 2, 1)}
	xs, err := MaximizeOnSimplex(items, 0)
	if err != nil {
		t.Fatal(err)
	}
	if xs[0] != 0 {
		t.Fatalf("zero budget should allocate nothing, got %v", xs)
	}
}

func TestSimplexNegativeBudget(t *testing.T) {
	if _, err := MaximizeOnSimplex(nil, -1); err == nil {
		t.Fatal("negative budget should error")
	}
}

// TestSimplexOptimalVsGrid compares against a grid search on two items.
func TestSimplexOptimalVsGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		w1, w2 := 0.5+rng.Float64()*2, 0.5+rng.Float64()*2
		m1, m2 := 1.5+rng.Float64()*3, 1.5+rng.Float64()*3
		s := 1.0
		items := []ConcaveItem{
			mm1DispersionItem(w1, 1, m1, s),
			mm1DispersionItem(w2, 1, m2, s),
		}
		xs, err := MaximizeOnSimplex(items, 1)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got := mm1DispersionValue(w1, 1, m1, s, xs[0]) + mm1DispersionValue(w2, 1, m2, s, xs[1])
		best := math.Inf(-1)
		for g := 0; g <= 4000; g++ {
			x1 := float64(g) / 4000
			v := mm1DispersionValue(w1, 1, m1, s, x1) + mm1DispersionValue(w2, 1, m2, s, 1-x1)
			if v > best {
				best = v
			}
		}
		if got < best-1e-3*math.Abs(best)-1e-6 {
			t.Fatalf("trial %d: simplex value %v worse than grid best %v (xs=%v)", trial, got, best, xs)
		}
	}
}

// Property: allocation is feasible — non-negative, within caps, sums to
// the budget.
func TestSimplexFeasibilityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5)
		items := make([]ConcaveItem, n)
		var capSum float64
		for i := range items {
			m := 0.5 + rng.Float64()*3
			items[i] = mm1DispersionItem(0.1+rng.Float64(), 0.4+0.6*rng.Float64(), m, 1)
			capSum += items[i].Cap
		}
		budget := rng.Float64()
		if capSum <= budget+0.01 {
			return true
		}
		xs, err := MaximizeOnSimplex(items, budget)
		if err != nil {
			return false
		}
		var sum float64
		for i, x := range xs {
			if x < -1e-12 || x >= items[i].Cap {
				return false
			}
			sum += x
		}
		return math.Abs(sum-budget) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
