package sim

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/alloc"
)

func TestDispatcherRejectsBadPortions(t *testing.T) {
	if _, err := newDispatcher(nil, nil); err == nil {
		t.Fatal("empty portions accepted")
	}
	if _, err := newDispatcher([]alloc.Portion{{Server: 0, Alpha: 0.4}}, nil); err == nil {
		t.Fatal("α sum 0.4 accepted")
	}
	if _, err := newDispatcher([]alloc.Portion{{Server: 0, Alpha: -0.5}, {Server: 1, Alpha: 1.5}}, nil); err == nil {
		t.Fatal("negative α accepted")
	}
}

func TestRouteFrequenciesMatchAlphas(t *testing.T) {
	d, err := newDispatcher([]alloc.Portion{
		{Server: 3, Alpha: 0.5},
		{Server: 7, Alpha: 0.3},
		{Server: 9, Alpha: 0.2},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	const n = 200000
	var counts [3]int
	for i := 0; i < n; i++ {
		idx := d.route(rng)
		if idx < 0 || idx > 2 {
			t.Fatalf("route returned %d", idx)
		}
		counts[idx]++
	}
	wants := []float64{0.5, 0.3, 0.2}
	for i, want := range wants {
		if got := float64(counts[i]) / n; math.Abs(got-want) > 0.01 {
			t.Fatalf("portion %d frequency %v, want ≈%v", i, got, want)
		}
	}
}

func TestRouteSinglePortion(t *testing.T) {
	d, err := newDispatcher([]alloc.Portion{{Server: 2, Alpha: 1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		if d.route(rng) != 0 {
			t.Fatal("single portion must always be chosen")
		}
	}
}

// TestRouteAllocFree pins the hot path allocation-free: the simulator
// calls route once per simulated request.
func TestRouteAllocFree(t *testing.T) {
	d, err := newDispatcher([]alloc.Portion{
		{Server: 0, Alpha: 0.5},
		{Server: 1, Alpha: 0.5},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	if n := testing.AllocsPerRun(1000, func() { d.route(rng) }); n != 0 {
		t.Fatalf("route allocates %v times per call, want 0", n)
	}
}

func BenchmarkRoute(b *testing.B) {
	d, err := newDispatcher([]alloc.Portion{
		{Server: 0, Alpha: 0.3},
		{Server: 1, Alpha: 0.3},
		{Server: 2, Alpha: 0.4},
	}, nil)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.route(rng)
	}
}
