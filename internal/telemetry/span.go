package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one key/value annotation on a span. Values are kept as any so
// spans can carry counts, profits and peer addresses alike; they must be
// JSON-encodable for /debug/trace.
type Attr struct {
	Key   string `json:"key"`
	Value any    `json:"value"`
}

// ID identifies a trace or a span. IDs are derived with the same
// splitmix64 finalizer as internal/parallel.SplitSeed (the constants are
// duplicated here because parallel imports telemetry), so the tree of
// span IDs under a given root is a pure function of the call structure —
// deterministic under any worker count and across processes. The zero ID
// means "absent". JSON encodes IDs as 16-hex-digit strings to survive
// the float64 round-trip of generic JSON consumers.
type ID uint64

// String renders the ID as 16 lowercase hex digits.
func (id ID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// MarshalJSON encodes the ID as a hex string.
func (id ID) MarshalJSON() ([]byte, error) {
	return []byte(`"` + id.String() + `"`), nil
}

// UnmarshalJSON accepts the hex-string form (and bare numbers, for
// leniency toward hand-written fixtures).
func (id *ID) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		var n uint64
		if err2 := json.Unmarshal(b, &n); err2 != nil {
			return err
		}
		*id = ID(n)
		return nil
	}
	n, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return fmt.Errorf("telemetry: bad ID %q: %w", s, err)
	}
	*id = ID(n)
	return nil
}

// splitmix64 finalizer constants — keep in sync with internal/parallel.
const (
	splitGamma = 0x9E3779B97F4A7C15
	splitMix1  = 0xBF58476D1CE4E5B9
	splitMix2  = 0x94D049BB133111EB
)

// deriveID maps (parent, index) to a child ID via the splitmix64
// finalizer: the same derivation as parallel.SplitSeed, so sibling IDs
// are well-spread and the mapping is deterministic. A zero result is
// nudged so that zero stays reserved for "absent".
func deriveID(parent ID, index uint64) ID {
	z := uint64(parent) + (index+1)*splitGamma
	z = (z ^ (z >> 30)) * splitMix1
	z = (z ^ (z >> 27)) * splitMix2
	z ^= z >> 31
	if z == 0 {
		z = splitGamma
	}
	return ID(z)
}

// TraceRef is the portable identity of a span: the pair that crosses
// process boundaries (it rides in the agentrpc wire request) and links a
// flight-recorder event to the span it happened under. The zero TraceRef
// is "no trace context".
type TraceRef struct {
	TraceID ID `json:"trace_id"`
	SpanID  ID `json:"span_id"`
}

// valid reports whether the ref carries trace context.
func (r TraceRef) valid() bool { return r.TraceID != 0 && r.SpanID != 0 }

// spanCtx is the in-process trace context carried through
// context.Context: the current span's identity plus the shared child
// counter that numbers its sequentially-started children.
type spanCtx struct {
	ref  TraceRef
	kids *atomic.Uint64
}

type spanCtxKey struct{}

// ContextWithRef rehydrates trace context received from another process
// (or another goroutine) into a context, so spans started under it
// become children of ref. A zero ref returns ctx unchanged.
func ContextWithRef(ctx context.Context, ref TraceRef) context.Context {
	if !ref.valid() {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, spanCtx{ref: ref, kids: new(atomic.Uint64)})
}

// RefFromContext extracts the current span's TraceRef from ctx (zero
// when ctx carries no trace context).
func RefFromContext(ctx context.Context) TraceRef {
	if ctx == nil {
		return TraceRef{}
	}
	sc, _ := ctx.Value(spanCtxKey{}).(spanCtx)
	return sc.ref
}

// SpanRecord is a finished span as stored in the tracer's ring buffer.
// TraceID groups the records of one logical operation (e.g. a manager
// round across all agents); ParentID links a record to the span that
// started it, zero for roots.
type SpanRecord struct {
	Name     string        `json:"name"`
	TraceID  ID            `json:"trace_id,omitempty"`
	SpanID   ID            `json:"span_id,omitempty"`
	ParentID ID            `json:"parent_id,omitempty"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	Attrs    []Attr        `json:"attrs,omitempty"`
}

// Tracer records finished spans into a fixed-size ring buffer: cheap,
// bounded, and always holding the most recent activity. A nil *Tracer
// is a valid disabled tracer: Start returns a zero Span whose methods
// are allocation-free no-ops.
type Tracer struct {
	mu    sync.Mutex
	buf   []SpanRecord
	next  int
	total uint64

	seed  uint64        // root-ID derivation seed
	roots atomic.Uint64 // numbers root spans within this tracer
}

// defaultTraceCapacity bounds the ring buffer when none is given.
const defaultTraceCapacity = 4096

// newTracer builds a tracer retaining the last capacity spans
// (defaultTraceCapacity when capacity <= 0) whose root trace IDs derive
// from seed; two tracers given distinct seeds cannot collide on root IDs.
func newTracer(capacity int, seed uint64) *Tracer {
	if capacity <= 0 {
		capacity = defaultTraceCapacity
	}
	if seed == 0 {
		seed = 1
	}
	return &Tracer{buf: make([]SpanRecord, 0, capacity), seed: seed}
}

// Span is an in-flight operation. It is a value type so that starting a
// span on a disabled tracer performs no allocation; call End exactly
// once (deferred ends are fine).
type Span struct {
	tr     *Tracer
	name   string
	start  time.Time
	attrs  []Attr
	ref    TraceRef
	parent ID
	kids   *atomic.Uint64
}

// Ref returns the span's identity (zero on a disabled span) — what a
// caller forwards across a process boundary.
func (sp *Span) Ref() TraceRef { return sp.ref }

// Start opens a root span with a fresh trace ID. On a nil tracer it
// returns an inert zero Span and does not read the clock.
func (t *Tracer) Start(name string) Span {
	if t == nil {
		return Span{}
	}
	return t.startUnder(spanCtx{}, name, 0, false)
}

// StartCtx opens a span as a child of the span in ctx (a fresh root when
// ctx carries none) and returns a derived context under which further
// StartCtx calls nest. On a nil tracer it returns an inert Span and ctx
// unchanged, without reading the clock — the disabled path stays
// allocation-free.
func (t *Tracer) StartCtx(ctx context.Context, name string) (Span, context.Context) {
	return t.startCtx(ctx, name, 0, false)
}

// StartCtxAt is StartCtx with an explicit child index instead of the
// parent's running counter: fan-out sites (parallel.For workers, shard
// loops) pass their task index so the child span ID is independent of
// scheduling order. Indexes live in a separate namespace from counter-
// assigned ones, so mixing both under one parent cannot collide.
func (t *Tracer) StartCtxAt(ctx context.Context, name string, index int) (Span, context.Context) {
	return t.startCtx(ctx, name, uint64(index), true)
}

// startCtx is the body of StartCtx and StartCtxAt.
func (t *Tracer) startCtx(ctx context.Context, name string, index uint64, indexed bool) (Span, context.Context) {
	if t == nil {
		return Span{}, ctx
	}
	if ctx == nil {
		ctx = context.Background()
	}
	parent, _ := ctx.Value(spanCtxKey{}).(spanCtx)
	sp := t.startUnder(parent, name, index, indexed)
	return sp, context.WithValue(ctx, spanCtxKey{}, spanCtx{ref: sp.ref, kids: sp.kids})
}

// indexedChildBit separates explicitly-indexed children from counter-
// numbered ones in the derivation space.
const indexedChildBit = uint64(1) << 62

func (t *Tracer) startUnder(parent spanCtx, name string, index uint64, indexed bool) Span {
	sp := Span{tr: t, name: name, start: time.Now(), kids: new(atomic.Uint64)}
	if parent.ref.valid() {
		n := index | indexedChildBit
		if !indexed {
			if parent.kids != nil {
				n = parent.kids.Add(1) - 1
			} else {
				n = 0
			}
		}
		sp.ref = TraceRef{
			TraceID: parent.ref.TraceID,
			SpanID:  deriveID(parent.ref.SpanID, n),
		}
		sp.parent = parent.ref.SpanID
		return sp
	}
	traceID := deriveID(ID(t.seed), t.roots.Add(1)-1)
	sp.ref = TraceRef{TraceID: traceID, SpanID: traceID}
	return sp
}

// Attr annotates the span; a no-op on a disabled span.
func (sp *Span) Attr(key string, value any) {
	if sp.tr == nil {
		return
	}
	sp.attrs = append(sp.attrs, Attr{Key: key, Value: value})
}

// End finishes the span and commits it to the ring buffer.
func (sp *Span) End() {
	if sp.tr == nil {
		return
	}
	sp.tr.record(SpanRecord{
		Name:     sp.name,
		TraceID:  sp.ref.TraceID,
		SpanID:   sp.ref.SpanID,
		ParentID: sp.parent,
		Start:    sp.start,
		Duration: time.Since(sp.start),
		Attrs:    sp.attrs,
	})
	sp.tr = nil
}

func (t *Tracer) record(r SpanRecord) {
	t.mu.Lock()
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, r)
	} else {
		t.buf[t.next] = r
		t.next = (t.next + 1) % cap(t.buf)
	}
	t.total++
	t.mu.Unlock()
}

// Snapshot returns the retained spans, oldest first.
func (t *Tracer) Snapshot() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanRecord, 0, len(t.buf))
	out = append(out, t.buf[t.next:]...)
	out = append(out, t.buf[:t.next]...)
	return out
}

// Total returns the number of spans recorded over the tracer's lifetime,
// including those already overwritten in the ring.
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}
