package opt

import (
	"math"
	"testing"
)

func TestBisectIncreasing(t *testing.T) {
	x, err := bisect(func(x float64) float64 { return x*x - 2 }, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x-math.Sqrt2) > 1e-12 {
		t.Fatalf("root = %v, want √2", x)
	}
}

func TestBisectDecreasing(t *testing.T) {
	x, err := bisect(func(x float64) float64 { return 3 - x }, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x-3) > 1e-12 {
		t.Fatalf("root = %v, want 3", x)
	}
}

func TestBisectEndpoints(t *testing.T) {
	if x, err := bisect(func(x float64) float64 { return x }, 0, 1); err != nil || x != 0 {
		t.Fatalf("root at lo endpoint: x=%v err=%v", x, err)
	}
	if x, err := bisect(func(x float64) float64 { return x - 1 }, 0, 1); err != nil || x != 1 {
		t.Fatalf("root at hi endpoint: x=%v err=%v", x, err)
	}
}

func TestBisectNoBracket(t *testing.T) {
	if _, err := bisect(func(x float64) float64 { return x + 10 }, 0, 1); err != errNoBracket {
		t.Fatalf("err = %v, want errNoBracket", err)
	}
}
