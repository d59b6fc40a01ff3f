// Package parallel is the shared fan-out engine for the repository's
// embarrassingly-parallel loops: the solver's multi-start greedy phase,
// per-cluster evaluation, sweep parts (clusters or shards) and
// reassignment scoring, the Monte-Carlo draw loop, the Proportional-Share
// active-fraction sweep and the experiment scenario jobs all route
// through it. Best is its best-of-N search: the multi-start solve, the
// Monte-Carlo draws and the PS sweep keep their winner through it.
//
// Two properties make the engine safe to drop into result-bearing code:
//
//   - Determinism by seed-splitting. Randomized tasks must not share one
//     rand.Rand consumed in scheduling order; instead each task derives
//     its own stream with SplitSeed(master, index) (a splitmix64 step),
//     so task i sees the same random numbers whether it runs first on a
//     single worker or last on sixteen. Combined with an index-ordered
//     (or otherwise order-free) reduction in the caller, results are
//     bit-identical for every worker count.
//
//   - Bounded, observable workers. For/ForErr run at most
//     Bound(opts.Workers, tasks) goroutines, hand every callback its
//     worker index so callers can keep per-worker scratch state (arena
//     reuse), and — when a telemetry set is attached — publish per-phase
//     task counts, worker counts, busy time and utilization plus a span
//     per fan-out.
package parallel

import (
	"cmp"
	"context"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// splitmix64 constants (Steele, Lea & Flood; the JDK SplittableRandom
// gamma and the murmur-style finalizer).
const (
	splitGamma = 0x9E3779B97F4A7C15
	splitMix1  = 0xBF58476D1CE4E5B9
	splitMix2  = 0x94D049BB133111EB
)

// SplitSeed derives the seed of task stream `index` from the master
// seed: one splitmix64 advance-and-finalize. Adjacent indices yield
// statistically independent seeds, so per-task rand.Rand streams do not
// overlap the way a shared sequential source sliced at arbitrary
// scheduling points would.
func SplitSeed(master int64, index uint64) int64 {
	z := uint64(master) + (index+1)*splitGamma
	z = (z ^ (z >> 30)) * splitMix1
	z = (z ^ (z >> 27)) * splitMix2
	z ^= z >> 31
	return int64(z)
}

// Rand builds the deterministic RNG of task stream `index`.
func Rand(master int64, index uint64) *rand.Rand {
	return rand.New(rand.NewSource(SplitSeed(master, index)))
}

// Bound resolves a configured worker count against a task count:
// workers <= 0 means GOMAXPROCS, and the result never exceeds the
// number of tasks (nor drops below 1).
func Bound(workers, tasks int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > tasks {
		workers = tasks
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// Options configures one fan-out.
type Options struct {
	// Workers bounds the pool; <= 0 uses GOMAXPROCS. The worker count
	// never changes results for callers that follow the seed-splitting
	// and index-ordered-reduction contract — only wall-clock time.
	Workers int
	// Tel, when non-nil, records the fan-out: a span plus per-phase
	// fanout_* metrics. Nil (the default) costs nothing per task.
	Tel *telemetry.Set
	// Phase labels the telemetry ("multistart", "mc_draws", ...).
	Phase string
	// Ctx, when non-nil and carrying trace context, parents the fan-out
	// span under the caller's span so the fan-out shows up inside the
	// solve's trace tree. Task callbacks that start their own spans
	// should derive them from the same ctx with deterministic indices
	// (telemetry.Tracer.StartCtxAt) to stay scheduling-independent.
	Ctx context.Context
}

// For runs fn(worker, task) for every task in [0, n) on a bounded pool.
// worker is in [0, Bound(o.Workers, n)) and is stable for the goroutine
// invoking fn, so callers may index per-worker scratch state with it.
// Tasks are claimed from an atomic counter; every task runs exactly once.
func For(o Options, n int, fn func(worker, task int)) {
	_ = ForErr(o, n, func(w, t int) error { fn(w, t); return nil })
}

// ForErr is For over fallible tasks. Every task runs regardless of
// failures elsewhere (so side effects match the single-worker run), and
// the error of the lowest-indexed failing task is returned — the same
// error a sequential loop that collected errors would report first.
func ForErr(o Options, n int, fn func(worker, task int) error) error {
	if n <= 0 {
		return nil
	}
	workers := Bound(o.Workers, n)
	ft := newFanTel(o.Tel, o.Phase)
	sp := ft.span(o.Ctx, n, workers)

	var firstErr struct {
		sync.Mutex
		idx int
		err error
	}
	firstErr.idx = n
	record := func(idx int, err error) {
		firstErr.Lock()
		if idx < firstErr.idx {
			firstErr.idx, firstErr.err = idx, err
		}
		firstErr.Unlock()
	}

	start := time.Now()
	if workers == 1 {
		for t := 0; t < n; t++ {
			if err := fn(0, t); err != nil {
				record(t, err)
			}
		}
		ft.finish(n, workers, time.Since(start), time.Since(start), sp)
		if firstErr.err != nil {
			return firstErr.err
		}
		return nil
	}

	var next atomic.Int64
	var busyTotal atomic.Int64 // summed per-worker busy nanoseconds
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var busy time.Duration
			for {
				t := int(next.Add(1)) - 1
				if t >= n {
					break
				}
				var t0 time.Time
				if ft != nil {
					t0 = time.Now()
				}
				if err := fn(w, t); err != nil {
					record(t, err)
				}
				if ft != nil {
					busy += time.Since(t0)
				}
			}
			if ft != nil {
				busyTotal.Add(int64(busy))
			}
		}(w)
	}
	wg.Wait()
	ft.finish(n, workers, time.Since(start), time.Duration(busyTotal.Load()), sp)
	if firstErr.err != nil {
		return firstErr.err
	}
	return nil
}

// Best runs try(worker, task, arena) for every task in [0, n) through
// ForErr and returns the arena of the winning task: the highest score,
// ties to the lowest task (beats). A failed task is no candidate, and
// the lowest failing task's error is returned with the zero A, as ForErr
// does; with no task the zero A is returned. Each worker holds at most
// two arenas, its best so far and a spare: fresh makes one, and reset
// empties a used spare before the next task gets it.
func Best[A any](o Options, n int, fresh func() A, reset func(A), try func(worker, task int, arena A) (float64, error)) (A, error) {
	type slot struct {
		best, spare A
		haveSpare   bool
		score       float64
		task        int // of best; -1 before the worker's first candidate
	}
	slots := make([]slot, Bound(o.Workers, n))
	for w := range slots {
		slots[w].task = -1
	}
	err := ForErr(o, n, func(w, t int) error {
		s := &slots[w]
		a := s.spare
		if s.haveSpare {
			reset(a)
		} else {
			a = fresh()
		}
		p, err := try(w, t, a)
		if err != nil || !beats(p, t, s.score, s.task) {
			s.spare, s.haveSpare = a, true
			return err
		}
		s.spare, s.haveSpare = s.best, s.task >= 0
		s.best, s.score, s.task = a, p, t
		return nil
	})
	if err != nil {
		var zero A
		return zero, err
	}
	win := slot{task: -1}
	for _, s := range slots {
		if s.task >= 0 && beats(s.score, s.task, win.score, win.task) {
			win = s
		}
	}
	return win.best, nil
}

// beats is Best's order: score p of task t ranks above score q of task u
// (u < 0: no task yet) when it is higher, or equal with t < u. A NaN ranks
// below every number (cmp.Compare), so the order is total and the winner
// is the sequential first maximum at every worker count.
func beats(p float64, t int, q float64, u int) bool {
	c := cmp.Compare(p, q)
	return u < 0 || c > 0 || (c == 0 && t < u)
}

// fanTel holds one fan-out's resolved metric handles; nil disables.
type fanTel struct {
	set         *telemetry.Set
	phase       string
	runs        *telemetry.Counter
	tasks       *telemetry.Counter
	workers     *telemetry.Gauge
	busySeconds *telemetry.Gauge
	utilization *telemetry.Gauge
}

func newFanTel(set *telemetry.Set, phase string) *fanTel {
	if set == nil {
		return nil
	}
	if phase == "" {
		phase = "unnamed"
	}
	set.Metrics.Help("fanout_runs_total", "fan-outs executed per phase")
	set.Metrics.Help("fanout_tasks_total", "fan-out tasks executed per phase")
	set.Metrics.Help("fanout_workers", "worker count of the most recent fan-out per phase")
	set.Metrics.Help("fanout_busy_seconds_total", "summed per-worker busy time per phase")
	set.Metrics.Help("fanout_utilization", "busy / (workers x wall) of the most recent fan-out per phase")
	return &fanTel{
		set:         set,
		phase:       phase,
		runs:        set.Counter(telemetry.Name("fanout_runs_total", "phase", phase)),
		tasks:       set.Counter(telemetry.Name("fanout_tasks_total", "phase", phase)),
		workers:     set.Gauge(telemetry.Name("fanout_workers", "phase", phase)),
		busySeconds: set.Gauge(telemetry.Name("fanout_busy_seconds_total", "phase", phase)),
		utilization: set.Gauge(telemetry.Name("fanout_utilization", "phase", phase)),
	}
}

func (t *fanTel) span(ctx context.Context, tasks, workers int) telemetry.Span {
	if t == nil {
		return telemetry.Span{}
	}
	var sp telemetry.Span
	if ctx != nil {
		sp, _ = t.set.StartCtx(ctx, "fanout."+t.phase)
	} else {
		sp = t.set.Start("fanout." + t.phase)
	}
	sp.Attr("tasks", tasks)
	sp.Attr("workers", workers)
	return sp
}

func (t *fanTel) finish(tasks, workers int, wall, busy time.Duration, sp telemetry.Span) {
	if t == nil {
		return
	}
	t.runs.Inc()
	t.tasks.Add(int64(tasks))
	t.workers.Set(float64(workers))
	t.busySeconds.Add(busy.Seconds())
	if denom := float64(workers) * wall.Seconds(); denom > 0 {
		t.utilization.Set(busy.Seconds() / denom)
	}
	sp.Attr("busy_seconds", busy.Seconds())
	sp.End()
}
