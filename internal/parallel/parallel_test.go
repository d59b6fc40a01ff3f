package parallel

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/telemetry"
)

func TestSplitSeedDistinct(t *testing.T) {
	const n = 1 << 16
	seen := make(map[int64]uint64, n)
	for i := uint64(0); i < n; i++ {
		s := SplitSeed(42, i)
		if prev, dup := seen[s]; dup {
			t.Fatalf("SplitSeed(42, %d) == SplitSeed(42, %d) == %d", i, prev, s)
		}
		seen[s] = i
	}
}

func TestSplitSeedMasterSensitivity(t *testing.T) {
	if SplitSeed(1, 0) == SplitSeed(2, 0) {
		t.Fatal("different masters produced the same task-0 seed")
	}
}

// TestSplitStreamsNonOverlapping checks the property the engine's
// determinism contract rests on: adjacent task streams are statistically
// independent, unlike slices of one shared sequential source. 256 draws
// per stream across many adjacent index pairs must never collide.
func TestSplitStreamsNonOverlapping(t *testing.T) {
	const draws = 256
	for _, master := range []int64{0, 1, 1 << 40, -7} {
		for idx := uint64(0); idx < 64; idx++ {
			a, b := Rand(master, idx), Rand(master, idx+1)
			seen := make(map[uint64]bool, draws)
			for d := 0; d < draws; d++ {
				seen[a.Uint64()] = true
			}
			for d := 0; d < draws; d++ {
				if v := b.Uint64(); seen[v] {
					t.Fatalf("master %d: streams %d and %d share value %d", master, idx, idx+1, v)
				}
			}
		}
	}
}

func TestRandDeterministic(t *testing.T) {
	a, b := Rand(7, 3), Rand(7, 3)
	for d := 0; d < 100; d++ {
		if x, y := a.Int63(), b.Int63(); x != y {
			t.Fatalf("draw %d: %d != %d", d, x, y)
		}
	}
}

func TestBound(t *testing.T) {
	cases := []struct{ workers, tasks, min, max int }{
		{1, 10, 1, 1},
		{4, 10, 4, 4},
		{4, 2, 2, 2},       // capped to tasks
		{0, 1000, 1, 1000}, // GOMAXPROCS, whatever it is
		{-3, 2, 1, 2},
		{5, 0, 1, 1}, // never below 1
	}
	for _, c := range cases {
		got := Bound(c.workers, c.tasks)
		if got < c.min || got > c.max {
			t.Errorf("Bound(%d, %d) = %d, want in [%d, %d]", c.workers, c.tasks, got, c.min, c.max)
		}
	}
}

func TestForVisitsEveryTaskOnce(t *testing.T) {
	const n = 1000
	for _, workers := range []int{1, 2, 7, 16, 0} {
		counts := make([]atomic.Int32, n)
		maxW := Bound(workers, n)
		For(Options{Workers: workers}, n, func(w, task int) {
			if w < 0 || w >= maxW {
				t.Errorf("worker index %d outside [0, %d)", w, maxW)
			}
			counts[task].Add(1)
		})
		for task := range counts {
			if c := counts[task].Load(); c != 1 {
				t.Fatalf("workers=%d: task %d ran %d times", workers, task, c)
			}
		}
	}
}

// TestForErrLowestIndex: every task still runs when some fail, and the
// reported error belongs to the lowest failing index — both independent
// of the worker count.
func TestForErrLowestIndex(t *testing.T) {
	const n = 50
	for _, workers := range []int{1, 4} {
		var ran atomic.Int32
		err := ForErr(Options{Workers: workers}, n, func(_, task int) error {
			ran.Add(1)
			if task == 3 || task == 7 || task == 40 {
				return fmt.Errorf("task %d failed", task)
			}
			return nil
		})
		if err == nil || err.Error() != "task 3 failed" {
			t.Fatalf("workers=%d: got error %v, want task 3's", workers, err)
		}
		if got := ran.Load(); got != n {
			t.Fatalf("workers=%d: only %d of %d tasks ran", workers, got, n)
		}
	}
}

func TestForErrNilOnSuccess(t *testing.T) {
	if err := ForErr(Options{Workers: 3}, 10, func(_, _ int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := ForErr(Options{}, 0, func(_, _ int) error { return errors.New("never runs") }); err != nil {
		t.Fatal(err)
	}
}

func TestFanoutTelemetry(t *testing.T) {
	set := telemetry.New(nil)
	For(Options{Workers: 2, Tel: set, Phase: "test_phase"}, 8, func(_, _ int) {})
	For(Options{Workers: 2, Tel: set, Phase: "test_phase"}, 8, func(_, _ int) {})
	if got := set.Counter(telemetry.Name("fanout_runs_total", "phase", "test_phase")).Value(); got != 2 {
		t.Errorf("fanout_runs_total = %d, want 2", got)
	}
	if got := set.Counter(telemetry.Name("fanout_tasks_total", "phase", "test_phase")).Value(); got != 16 {
		t.Errorf("fanout_tasks_total = %d, want 16", got)
	}
	if got := set.Gauge(telemetry.Name("fanout_workers", "phase", "test_phase")).Value(); got != 2 {
		t.Errorf("fanout_workers = %v, want 2", got)
	}
	if got := set.Gauge(telemetry.Name("fanout_utilization", "phase", "test_phase")).Value(); got < 0 || got > 1.0001 {
		t.Errorf("fanout_utilization = %v outside [0, 1]", got)
	}
}

// bestArena is TestBestWorkerEquiv's arena: task is the task that last
// filled it (-1 when empty) and busy guards against two running tasks
// sharing it.
type bestArena struct {
	task int
	busy atomic.Bool
}

// TestBestWorkerEquiv: Best picks the task a sequential first-maximum
// loop picks under cmp.Compare (ties to the lowest task, NaN below every
// number, even as the first candidate), runs every task once, returns
// the lowest failing task's error, calls fresh at most twice per worker
// and never hands one arena to two running tasks.
func TestBestWorkerEquiv(t *testing.T) {
	const n = 64
	scores := make([]float64, n)
	for i := range scores {
		scores[i] = float64(i * 37 % 11) // 10 first at task 8, tied at 19, 30, ...
	}
	scores[0], scores[19] = math.NaN(), math.NaN()
	want := -1
	for i, s := range scores {
		if want < 0 || cmp.Compare(s, scores[want]) > 0 {
			want = i
		}
	}
	if want != 8 {
		t.Fatalf("reference loop picked task %d, want 8", want)
	}
	for _, fail := range [][]int{nil, {41, 3, 8}} {
		for _, workers := range []int{1, 2, 3, 8} {
			for rep := 0; rep < 20; rep++ {
				var fresh atomic.Int32
				runs := make([]atomic.Int32, n)
				got, err := Best(Options{Workers: workers}, n,
					func() *bestArena { fresh.Add(1); return &bestArena{task: -1} },
					func(a *bestArena) { a.task = -1 },
					func(_, task int, a *bestArena) (float64, error) {
						runs[task].Add(1)
						if !a.busy.CompareAndSwap(false, true) {
							t.Errorf("task %d: arena already in use", task)
						}
						defer a.busy.Store(false)
						if a.task != -1 {
							t.Errorf("task %d: arena of task %d not emptied", task, a.task)
						}
						a.task = task
						runtime.Gosched()
						for _, f := range fail {
							if task == f {
								return math.Inf(1), fmt.Errorf("task %d failed", task)
							}
						}
						return scores[task], nil
					})
				name := fmt.Sprintf("fail=%v workers=%d", fail, workers)
				for task := range runs {
					if c := runs[task].Load(); c != 1 {
						t.Fatalf("%s: task %d ran %d times", name, task, c)
					}
				}
				if f, max := fresh.Load(), 2*Bound(workers, n); int(f) > max {
					t.Fatalf("%s: fresh called %d times, want at most %d", name, f, max)
				}
				if fail != nil {
					if err == nil || err.Error() != "task 3 failed" || got != nil {
						t.Fatalf("%s: got (%v, %v), want (nil, task 3's error)", name, got, err)
					}
					continue
				}
				if err != nil || got == nil || got.task != want {
					t.Fatalf("%s: got (%+v, %v), want task %d", name, got, err, want)
				}
			}
		}
	}
}
