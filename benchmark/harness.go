package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// region is one workload's timed region. run_s is the sum of the calls
// wrapped in time/add — the benchmark's own event generation and checks
// run between them, untimed — while the allocation, GC and CPU deltas
// span the region from begin to end, which is why benchmark-owned buffers
// are allocated before begin.
type region struct {
	wall time.Duration
	ms0  runtime.MemStats
	cpu0 time.Duration
	t0   time.Time
	peak *heapSampler
}

// regionStats is what a closed region measured.
type regionStats struct {
	RunS       float64
	SpanS      float64 // begin→end wall clock, untimed gaps included
	AllocMB    float64
	MallocsK   float64
	CPUS       float64
	GCCycles   float64
	GCPauseMS  float64
	PeakHeapMB float64 // 0 unless traced
}

// beginRegion collects garbage left by set-up, so the region's GC work is
// its own, then snapshots the counters. The heap sampler runs only on
// traced runs: end-to-end numbers are never perturbed by it.
func beginRegion(traced bool) *region {
	r := &region{}
	runtime.GC()
	runtime.ReadMemStats(&r.ms0)
	r.cpu0 = processCPU()
	if traced {
		r.peak = startHeapSampler(10 * time.Millisecond)
	}
	r.t0 = time.Now()
	return r
}

// time runs fn as one timed call and returns its duration.
func (r *region) time(fn func()) time.Duration {
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	r.wall += d
	return d
}

func (r *region) end() regionStats {
	span := time.Since(r.t0)
	cpu := processCPU() - r.cpu0
	var peak float64
	if r.peak != nil {
		peak = r.peak.stop()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return regionStats{
		RunS:       r.wall.Seconds(),
		SpanS:      span.Seconds(),
		AllocMB:    float64(ms.TotalAlloc-r.ms0.TotalAlloc) / 1e6,
		MallocsK:   float64(ms.Mallocs-r.ms0.Mallocs) / 1e3,
		CPUS:       cpu.Seconds(),
		GCCycles:   float64(ms.NumGC - r.ms0.NumGC),
		GCPauseMS:  float64(ms.PauseTotalNs-r.ms0.PauseTotalNs) / 1e6,
		PeakHeapMB: peak,
	}
}

// processCPU is the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler polls the in-use heap (objects + unused span space, i.e.
// MemStats.HeapInuse) through runtime/metrics, which does not stop the
// world the way ReadMemStats does.
type heapSampler struct {
	stopCh chan struct{}
	wg     sync.WaitGroup
	max    uint64
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stopCh: make(chan struct{})}
	samples := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	read := func() {
		metrics.Read(samples)
		var sum uint64
		for _, s := range samples {
			if s.Value.Kind() == metrics.KindUint64 {
				sum += s.Value.Uint64()
			}
		}
		if sum > h.max {
			h.max = sum
		}
	}
	read()
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-h.stopCh:
				read()
				return
			case <-tick.C:
				read()
			}
		}
	}()
	return h
}

// stop ends the sampler and returns the peak in MB.
func (h *heapSampler) stop() float64 {
	close(h.stopCh)
	h.wg.Wait()
	return float64(h.max) / 1e6
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the "inclusive" method); xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// blockTime is how long one block of a per-call probe lasts. The tests
// shorten it.
var blockTime = 10 * time.Millisecond

// probeBlocks is how many blocks a per-call probe takes the median of.
const probeBlocks = 11

// perCall times fn as 11 blocks and returns the median block's time per
// call in nanoseconds. fn(n) performs n calls. One probe call sizes n so
// that a block lasts about 10 ms: anything faster than 10 µs is therefore
// measured over more than 10 000 calls, and a call slower than a block
// is measured 11 times.
func perCall(fn func(n int)) float64 {
	t0 := time.Now()
	fn(1)
	n := int(blockTime / (time.Since(t0) + 1))
	if n < 1 {
		n = 1
	}
	per := make([]float64, probeBlocks)
	for b := range per {
		t0 := time.Now()
		fn(n)
		per[b] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return median(per)
}

// perCallEach is perCall for a call that needs untimed preparation before
// every repetition: prep runs outside the clock, fn inside it.
func perCallEach(prep, fn func()) float64 {
	once := func() time.Duration {
		prep()
		t0 := time.Now()
		fn()
		return time.Since(t0)
	}
	n := int(blockTime / (once() + 1))
	if n < 1 {
		n = 1
	}
	per := make([]float64, probeBlocks)
	for b := range per {
		var sum time.Duration
		for c := 0; c < n; c++ {
			sum += once()
		}
		per[b] = float64(sum.Nanoseconds()) / float64(n)
	}
	return median(per)
}
