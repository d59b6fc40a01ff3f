package experiment

import (
	"reflect"
	"testing"
)

// TestSweepWorkerEquivalence: runSweep's scenario fan-out must produce
// byte-for-byte identical points at any worker count — each job writes
// its own (point, slot) cell and all per-job randomness is seeded from
// the job itself. Run under -race in CI.
func TestSweepWorkerEquivalence(t *testing.T) {
	run := func(workers int) []sweepPoint {
		sz := sizes{counts: []int{8, 15}, scenarios: 3, scenariosAtMax: 2, draws: 10, passes: 2, workers: workers}
		points, err := runSweep(sz, 1, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return points
	}
	ref := run(1)
	got := run(4)
	if !reflect.DeepEqual(got, ref) {
		t.Fatalf("sweep results differ between W=1 and W=4:\nW=1: %+v\nW=4: %+v", ref, got)
	}
}
