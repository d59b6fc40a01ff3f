package telemetry

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestSpanRecording(t *testing.T) {
	tr := newTracer(8, 1)
	sp := tr.Start("solve")
	sp.Attr("clients", 250)
	sp.Attr("phase", "greedy")
	time.Sleep(time.Millisecond)
	sp.End()

	spans := tr.Snapshot()
	if len(spans) != 1 {
		t.Fatalf("got %d spans", len(spans))
	}
	got := spans[0]
	if got.Name != "solve" || got.Duration <= 0 || len(got.Attrs) != 2 {
		t.Errorf("span = %+v", got)
	}
	if got.Attrs[0].Key != "clients" || got.Attrs[1].Value != "greedy" {
		t.Errorf("attrs = %+v", got.Attrs)
	}
}

// TestRingWraparound fills the buffer past capacity and checks that the
// snapshot holds exactly the newest spans, oldest first.
func TestRingWraparound(t *testing.T) {
	const capacity = 4
	tr := newTracer(capacity, 1)
	for i := 0; i < 10; i++ {
		sp := tr.Start(fmt.Sprintf("span-%d", i))
		sp.End()
	}
	spans := tr.Snapshot()
	if len(spans) != capacity {
		t.Fatalf("snapshot len = %d, want %d", len(spans), capacity)
	}
	for i, sp := range spans {
		want := fmt.Sprintf("span-%d", 10-capacity+i)
		if sp.Name != want {
			t.Errorf("spans[%d] = %q, want %q", i, sp.Name, want)
		}
	}
	if tr.Total() != 10 {
		t.Errorf("total = %d, want 10", tr.Total())
	}
}

// TestTracerConcurrent exercises the ring under -race.
func TestTracerConcurrent(t *testing.T) {
	tr := newTracer(64, 1)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				sp := tr.Start("op")
				sp.Attr("worker", w)
				sp.End()
				if i%50 == 0 {
					tr.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	if tr.Total() != 8*200 {
		t.Errorf("total = %d", tr.Total())
	}
	if got := len(tr.Snapshot()); got != 64 {
		t.Errorf("snapshot len = %d", got)
	}
}

func TestDoubleEndIsSingleRecord(t *testing.T) {
	tr := newTracer(8, 1)
	sp := tr.Start("once")
	sp.End()
	sp.End() // second End must be inert
	if tr.Total() != 1 {
		t.Errorf("total = %d, want 1", tr.Total())
	}
}
