package queueing

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMM1ResponseTime(t *testing.T) {
	tests := []struct {
		name    string
		mu, lam float64
		want    float64
		wantErr error
	}{
		{name: "basic", mu: 2, lam: 1, want: 1},
		{name: "light load", mu: 10, lam: 1, want: 1.0 / 9},
		{name: "near saturation", mu: 1, lam: 0.999, want: 1000},
		{name: "zero arrivals", mu: 4, lam: 0, want: 0.25},
		{name: "saturated", mu: 1, lam: 1, wantErr: errUnstable},
		{name: "overloaded", mu: 1, lam: 2, wantErr: errUnstable},
		{name: "zero service", mu: 0, lam: 0, wantErr: errUnstable},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := mm1ResponseTime(tt.mu, tt.lam)
			if tt.wantErr != nil {
				if !errors.Is(err, tt.wantErr) {
					t.Fatalf("mm1ResponseTime(%v,%v) err = %v, want %v", tt.mu, tt.lam, err, tt.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("mm1ResponseTime(%v,%v) unexpected error: %v", tt.mu, tt.lam, err)
			}
			if math.Abs(got-tt.want) > 1e-9*tt.want+1e-12 {
				t.Fatalf("mm1ResponseTime(%v,%v) = %v, want %v", tt.mu, tt.lam, got, tt.want)
			}
		})
	}
}

func TestMM1ResponseTimeNegativeArrival(t *testing.T) {
	if _, err := mm1ResponseTime(1, -0.5); err == nil {
		t.Fatal("expected error for negative arrival rate")
	}
}

// Property: response time is decreasing in service rate and increasing in
// arrival rate on the stable region.
func TestMM1Monotonicity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mu := 1 + rng.Float64()*9
		lam := rng.Float64() * mu * 0.9
		w1, err1 := mm1ResponseTime(mu, lam)
		w2, err2 := mm1ResponseTime(mu*1.1, lam)
		w3, err3 := mm1ResponseTime(mu, lam*0.9)
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		return w2 < w1 && w3 <= w1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGPSServiceRate(t *testing.T) {
	tests := []struct {
		share, cap, exec, want float64
	}{
		{0.5, 4, 1, 2},
		{1, 4, 0.5, 8},
		{0.25, 2, 0.4, 1.25},
	}
	for _, tt := range tests {
		if got := GPSServiceRate(tt.share, tt.cap, tt.exec); math.Abs(got-tt.want) > 1e-12 {
			t.Fatalf("GPSServiceRate(%v,%v,%v) = %v, want %v", tt.share, tt.cap, tt.exec, got, tt.want)
		}
	}
	if got := GPSServiceRate(0.5, 4, 0); !math.IsInf(got, 1) {
		t.Fatalf("zero exec time should give +Inf rate, got %v", got)
	}
}

func TestPortionDelay(t *testing.T) {
	// share 0.5 of cap 4 with exec 1 → μ = 2; rate 1 → delay 1.
	d, err := PortionDelay(0.5, 4, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-1) > 1e-12 {
		t.Fatalf("delay = %v, want 1", d)
	}
	if _, err := PortionDelay(0.25, 4, 1, 1); !errors.Is(err, errUnstable) {
		t.Fatalf("saturated portion: err = %v, want errUnstable", err)
	}
}

func TestMinStableShareBoundary(t *testing.T) {
	// Just above the floor the queue is stable; at the floor it is not.
	const (
		cap  = 4.0
		exec = 0.7
		rate = 2.0
	)
	floor := MinStableShare(cap, exec, rate)
	if _, err := PortionDelay(floor, cap, exec, rate); !errors.Is(err, errUnstable) {
		t.Fatalf("at floor: err = %v, want errUnstable", err)
	}
	if _, err := PortionDelay(floor*1.001, cap, exec, rate); err != nil {
		t.Fatalf("above floor: unexpected error %v", err)
	}
	if got := MinStableShare(0, exec, rate); !math.IsInf(got, 1) {
		t.Fatalf("zero capacity floor = %v, want +Inf", got)
	}
}

func TestLoadFractionMatchesFloor(t *testing.T) {
	f := func(cap, exec, rate float64) bool {
		cap = 1 + math.Abs(cap)
		exec = 0.1 + math.Abs(exec)
		rate = math.Abs(rate)
		return LoadFraction(cap, exec, rate) == MinStableShare(cap, exec, rate)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
