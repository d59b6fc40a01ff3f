package telemetry

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

// TestConcurrentHammering drives counters, gauges and histograms from
// many goroutines; run under -race this is the registry's thread-safety
// proof, and the totals double as a lost-update check.
func TestConcurrentHammering(t *testing.T) {
	reg := newRegistry()
	const (
		workers = 16
		perW    = 2000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Resolve handles inside the goroutine: creation races too.
			c := reg.Counter("hammer_total")
			g := reg.Gauge("hammer_gauge")
			h := reg.Histogram("hammer_seconds", DurationBuckets)
			for i := 0; i < perW; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i%100) / 1000)
			}
		}(w)
	}
	wg.Wait()

	if got := reg.Counter("hammer_total").Value(); got != workers*perW {
		t.Errorf("counter = %d, want %d", got, workers*perW)
	}
	if got := reg.Gauge("hammer_gauge").Value(); got != workers*perW {
		t.Errorf("gauge = %v, want %d", got, workers*perW)
	}
	h := reg.Histogram("hammer_seconds", nil)
	if got := h.Count(); got != workers*perW {
		t.Errorf("histogram count = %d, want %d", got, workers*perW)
	}
	wantSum := float64(workers) * func() float64 {
		var s float64
		for i := 0; i < perW; i++ {
			s += float64(i%100) / 1000
		}
		return s
	}()
	if got := h.Sum(); math.Abs(got-wantSum) > 1e-6 {
		t.Errorf("histogram sum = %v, want %v", got, wantSum)
	}
}

// TestPrometheusGolden locks the exposition format: sorted families,
// HELP/TYPE headers, label merging on histogram buckets.
func TestPrometheusGolden(t *testing.T) {
	reg := newRegistry()
	reg.Help("zz_requests_total", "requests served")
	reg.Counter(Name("zz_requests_total", "op", "get")).Add(3)
	reg.Counter(Name("zz_requests_total", "op", "put")).Add(1)
	reg.Gauge("aa_profit").Set(12.5)
	reg.Histogram(Name("mid_seconds", "phase", "solve"), []float64{0.1, 1}).Observe(0.5)

	var b strings.Builder
	reg.WritePrometheus(&b)
	want := `# TYPE aa_profit gauge
aa_profit 12.5
# TYPE mid_seconds histogram
mid_seconds_bucket{phase="solve",le="0.1"} 0
mid_seconds_bucket{phase="solve",le="1"} 1
mid_seconds_bucket{phase="solve",le="+Inf"} 1
mid_seconds_sum{phase="solve"} 0.5
mid_seconds_count{phase="solve"} 1
# HELP zz_requests_total requests served
# TYPE zz_requests_total counter
zz_requests_total{op="get"} 3
zz_requests_total{op="put"} 1
`
	if got := b.String(); got != want {
		t.Errorf("prometheus output mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestRegistryExpvarString(t *testing.T) {
	reg := newRegistry()
	reg.Counter("c").Add(2)
	reg.Gauge("g").Set(1.5)
	reg.Histogram("h", []float64{1}).Observe(0.5)
	var decoded map[string]any
	if err := json.Unmarshal([]byte(reg.String()), &decoded); err != nil {
		t.Fatalf("expvar string is not JSON: %v\n%s", err, reg.String())
	}
	if decoded["c"].(float64) != 2 {
		t.Errorf("c = %v", decoded["c"])
	}
	hist := decoded["h"].(map[string]any)
	if hist["count"].(float64) != 1 || hist["sum"].(float64) != 0.5 {
		t.Errorf("h = %v", hist)
	}
}

func TestPublishExpvar(t *testing.T) {
	reg := newRegistry()
	if err := reg.publishExpvar("telemetry_test_reg"); err != nil {
		t.Fatal(err)
	}
	// Second publish of the same registry is a no-op.
	if err := reg.publishExpvar("telemetry_test_reg"); err != nil {
		t.Fatal(err)
	}
	// A different registry must not panic on the taken name.
	if err := newRegistry().publishExpvar("telemetry_test_reg"); err == nil {
		t.Fatal("want error for duplicate expvar name")
	}
}

// TestNameHoldsOneKind: a second kind asked for under a taken name gets
// a working but detached handle; only the first kind is exported.
func TestNameHoldsOneKind(t *testing.T) {
	reg := newRegistry()
	reg.Counter("x").Add(2)
	g := reg.Gauge("x")
	g.Set(7)
	reg.Histogram("x", nil).Observe(1)
	if g.Value() != 7 || reg.Gauge("x") == g {
		t.Fatalf("gauge under a counter's name: value %v, registered %v", g.Value(), reg.Gauge("x") == g)
	}
	var b strings.Builder
	reg.WritePrometheus(&b)
	if want := "# TYPE x counter\nx 2\n"; b.String() != want {
		t.Errorf("exposition = %q, want %q", b.String(), want)
	}
	if got := reg.String(); got != `{"x":2}` {
		t.Errorf("expvar = %s", got)
	}
}

// TestNilSafety: every operation on nil handles must be a no-op.
func TestNilSafety(t *testing.T) {
	var (
		reg *Registry
		s   *Set
	)
	reg.Counter("x").Inc()
	reg.Gauge("x").Set(1)
	reg.Histogram("x", nil).Observe(1)
	reg.Help("x", "h")
	reg.WritePrometheus(&strings.Builder{})
	if reg.String() != "{}" {
		t.Error("nil registry String")
	}
	s.Counter("x").Add(5)
	s.Gauge("x").Add(1)
	s.Histogram("x", nil).Observe(1)
	sp := s.Start("x")
	sp.Attr("k", 1)
	sp.End()
	s.Logger().Info("dropped")
}

// TestDisabledPathAllocationFree is the ≤5%-overhead guarantee: with
// telemetry disabled (nil handles), instrumented hot paths must not
// allocate.
func TestDisabledPathAllocationFree(t *testing.T) {
	var (
		c  *Counter
		g  *Gauge
		h  *Histogram
		tr *Tracer
		s  *Set
	)
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Set(1)
		h.Observe(2)
		sp := tr.Start("op")
		sp.Attr("k", "v")
		sp.End()
		sp2 := s.Start("op")
		sp2.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled path allocates %v per op, want 0", allocs)
	}
}

func TestNameFormatting(t *testing.T) {
	if got := Name("m"); got != "m" {
		t.Errorf("Name no labels = %q", got)
	}
	if got := Name("m", "a", "1", "b", "2"); got != `m{a="1",b="2"}` {
		t.Errorf("Name = %q", got)
	}
	if got := Name("m", "a"); got != "m" {
		t.Errorf("Name odd kv = %q", got)
	}
}

// TestDurationBucketsCoverMinutes pins the widened histogram range: solve
// phases at the million-client scale run minutes, and before the 30–600s
// buckets existed a 94-second observation fell straight into +Inf.
func TestDurationBucketsCoverMinutes(t *testing.T) {
	if top := DurationBuckets[len(DurationBuckets)-1]; top != 600 {
		t.Fatalf("DurationBuckets top out at %vs, want 600s", top)
	}
	r := newRegistry()
	h := r.Histogram("solve_seconds", DurationBuckets)
	h.Observe(94.0)
	var sb strings.Builder
	r.WritePrometheus(&sb)
	text := sb.String()
	// Cumulative buckets: everything below 120s is empty, 120s and up
	// (including +Inf) hold the observation.
	for _, want := range []string{
		`solve_seconds_bucket{le="60"} 0`,
		`solve_seconds_bucket{le="120"} 1`,
		`solve_seconds_bucket{le="600"} 1`,
		`solve_seconds_bucket{le="+Inf"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}

// TestMicroBucketsCoverDecisionLatencies pins the fine-grained preset the
// online decision path uses: a few hundred nanoseconds must land in a
// low bucket, not collapse into the first DurationBuckets bucket, and an
// inline-commit observation (milliseconds) must still resolve finitely.
func TestMicroBucketsCoverDecisionLatencies(t *testing.T) {
	if bottom := MicroBuckets[0]; bottom != 1e-7 {
		t.Fatalf("MicroBuckets start at %vs, want 100ns", bottom)
	}
	if top := MicroBuckets[len(MicroBuckets)-1]; top != 1e-1 {
		t.Fatalf("MicroBuckets top out at %vs, want 0.1s", top)
	}
	r := newRegistry()
	h := r.Histogram("decide_seconds", MicroBuckets)
	h.Observe(750e-9) // a typical lock-free decision
	h.Observe(3e-3)   // an inline commit (warm re-solve)
	var sb strings.Builder
	r.WritePrometheus(&sb)
	text := sb.String()
	for _, want := range []string{
		`decide_seconds_bucket{le="0.0000005"} 0`,
		`decide_seconds_bucket{le="0.000001"} 1`,
		`decide_seconds_bucket{le="0.0025"} 1`,
		`decide_seconds_bucket{le="0.005"} 2`,
		`decide_seconds_bucket{le="+Inf"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}
