package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one call the benchmark made into a layer. Spans of one
// operation share Op; Parent is an index into the tracer's spans, -1 for
// the operation's root.
type span struct {
	Name   string
	Start  time.Duration // since the tracer was created
	End    time.Duration
	Parent int
	Op     int
}

// tracer keeps every span in memory until the run ends. A nil tracer
// records nothing, so the untraced run pays one nil check per call site.
// The mutex is for dist_tcp, whose manager calls the agent decorator
// from several goroutines at once.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	root  int // the open operation's root span, -1 between operations
	ops   int
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16), root: -1}
}

// beginOp opens the root span of a new operation.
func (t *tracer) beginOp(name string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.t0), Parent: -1, Op: t.ops})
	t.root = len(t.spans) - 1
	return t.root
}

// begin opens a child of the open operation's root.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.t0), Parent: t.root, Op: t.ops})
	return len(t.spans) - 1
}

// recordOp adds a finished root span with no children: an operation that
// is only known to be one once it has returned.
func (t *tracer) recordOp(name string, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	s := start.Sub(t.t0)
	t.spans = append(t.spans, span{Name: name, Start: s, End: s + d, Parent: -1, Op: t.ops})
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].End = now
	if id == t.root {
		t.root = -1
	}
	t.mu.Unlock()
}

// layerTime is one span name's share of the traced run.
type layerTime struct {
	Name  string
	Calls int
	Total time.Duration
	Self  time.Duration
}

// selfTimes folds the spans by name. A span's self time is its duration
// minus the part of that interval its children cover; children of one
// root may overlap (parallel RPCs), so the covered part is the length of
// the union of their intervals, not their sum.
func (t *tracer) selfTimes() (layers []layerTime, roots time.Duration) {
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	byName := make(map[string]*layerTime)
	for i, s := range t.spans {
		lt := byName[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			byName[s.Name] = lt
		}
		dur := s.End - s.Start
		lt.Calls++
		lt.Total += dur
		lt.Self += dur - t.covered(children[i])
		if s.Parent < 0 {
			roots += dur
		}
	}
	for _, lt := range byName {
		layers = append(layers, *lt)
	}
	sort.Slice(layers, func(i, j int) bool {
		if layers[i].Self != layers[j].Self {
			return layers[i].Self > layers[j].Self
		}
		return layers[i].Name < layers[j].Name
	})
	return layers, roots
}

// covered is the length of the union of the given spans' intervals.
func (t *tracer) covered(ids []int) time.Duration {
	if len(ids) == 0 {
		return 0
	}
	sort.Slice(ids, func(i, j int) bool { return t.spans[ids[i]].Start < t.spans[ids[j]].Start })
	var sum time.Duration
	lo, hi := t.spans[ids[0]].Start, t.spans[ids[0]].End
	for _, id := range ids[1:] {
		s := t.spans[id]
		if s.Start > hi {
			sum += hi - lo
			lo, hi = s.Start, s.End
		} else if s.End > hi {
			hi = s.End
		}
	}
	return sum + hi - lo
}

// writeChrome writes the spans as Chrome trace-event JSON (complete "X"
// events, microsecond timestamps), loadable in chrome://tracing and
// Perfetto. Events on one tid must nest, so roots go on tid 0 and each
// child on the lowest-numbered lane that is free when it starts:
// parallel RPCs show side by side.
func (t *tracer) writeChrome(w io.Writer) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	order := make([]int, len(t.spans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return t.spans[order[i]].Start < t.spans[order[j]].Start })
	var laneEnd []time.Duration
	events := make([]event, 0, len(t.spans))
	for _, i := range order {
		s := t.spans[i]
		tid := 0
		if s.Parent >= 0 {
			lane := 0
			for lane < len(laneEnd) && laneEnd[lane] > s.Start {
				lane++
			}
			if lane == len(laneEnd) {
				laneEnd = append(laneEnd, 0)
			}
			laneEnd[lane] = s.End
			tid = lane + 1
		}
		events = append(events, event{
			Name: s.Name, Ph: "X",
			Ts:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: tid,
			Args: map[string]int{"op": s.Op, "span": i, "parent": s.Parent},
		})
	}
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		return fmt.Errorf("write chrome trace: %w", err)
	}
	return nil
}
