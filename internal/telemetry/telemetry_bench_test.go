package telemetry

import (
	"context"
	"testing"
	"time"
)

// The solver's placement loop runs these paths per client per candidate:
// a disabled tracer's StartCtx and a sampled-out flight check must cost a
// nil/hash check and nothing else — no allocation, no clock read.

func TestDisabledTracerAllocFree(t *testing.T) {
	var tr *Tracer
	ctx := context.Background()
	if n := testing.AllocsPerRun(1000, func() {
		sp, c := tr.StartCtx(ctx, "solver.greedy")
		sp.Attr("clients", 1)
		sp.End()
		_ = c
	}); n != 0 {
		t.Fatalf("disabled tracer StartCtx allocates %.1f/op", n)
	}
	var set *Set
	if n := testing.AllocsPerRun(1000, func() {
		sp, c := set.StartCtx(ctx, "solver.greedy")
		sp.End()
		_ = c
	}); n != 0 {
		t.Fatalf("disabled set StartCtx allocates %.1f/op", n)
	}
}

func TestSampledOutFlightAllocFree(t *testing.T) {
	f := NewFlight(16, 1000)
	// Find a client the 1-in-1000 hash leaves out.
	out := int64(-1)
	for i := int64(0); i < 2000; i++ {
		if !f.SampleClient(i) {
			out = i
			break
		}
	}
	if out < 0 {
		t.Fatal("sampling kept every client")
	}
	if n := testing.AllocsPerRun(1000, func() {
		// The hot-path pattern: gate on the sample before building the
		// event, so a sampled-out client never constructs one.
		if f.SampleClient(out) {
			f.Record(Event{Kind: EventPlaceAccept, Client: out})
		}
	}); n != 0 {
		t.Fatalf("sampled-out flight path allocates %.1f/op", n)
	}
	var nilF *Flight
	if n := testing.AllocsPerRun(1000, func() {
		if nilF.SampleClient(3) {
			nilF.Record(Event{Kind: EventPlaceAccept, Client: 3})
		}
	}); n != 0 {
		t.Fatalf("nil flight path allocates %.1f/op", n)
	}
}

func BenchmarkStartCtxDisabled(b *testing.B) {
	var tr *Tracer
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp, _ := tr.StartCtx(ctx, "solver.greedy")
		sp.End()
	}
}

func BenchmarkStartCtxEnabled(b *testing.B) {
	tr := newTracer(1024, 1)
	root, ctx := tr.StartCtx(context.Background(), "root")
	defer root.End()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp, _ := tr.StartCtx(ctx, "solver.round")
		sp.End()
	}
}

func BenchmarkFlightSampledOut(b *testing.B) {
	f := NewFlight(1024, 1000)
	out := int64(-1)
	for i := int64(0); i < 2000; i++ {
		if !f.SampleClient(i) {
			out = i
			break
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f.SampleClient(out) {
			f.Record(Event{Kind: EventPlaceAccept, Client: out})
		}
	}
}

func BenchmarkFlightRecord(b *testing.B) {
	f := NewFlight(1024, 1)
	now := time.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Record(Event{Kind: EventPlaceAccept, Client: int64(i), Time: now})
	}
}

// BenchmarkCounterInc is the metric hot path itself.
func BenchmarkCounterInc(b *testing.B) {
	set := New(nil)
	c := set.Counter("bench_total")
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

// BenchmarkHistogramObserve is the latency-recording hot path.
func BenchmarkHistogramObserve(b *testing.B) {
	set := New(nil)
	h := set.Histogram("bench_seconds", DurationBuckets)
	b.RunParallel(func(pb *testing.PB) {
		v := 0.0001
		for pb.Next() {
			h.Observe(v)
			v *= 1.7
			if v > 10 {
				v = 0.0001
			}
		}
	})
}

// BenchmarkDisabledCounterInc shows the cost of the nil no-op path.
func BenchmarkDisabledCounterInc(b *testing.B) {
	var set *Set
	c := set.Counter("bench_total") // nil handle
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}
