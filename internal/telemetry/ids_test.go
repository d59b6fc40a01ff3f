package telemetry

import (
	"context"
	"encoding/json"
	"testing"
)

func TestDeriveIDDeterministicAndSpread(t *testing.T) {
	seen := map[ID]bool{}
	for i := uint64(0); i < 1000; i++ {
		id := deriveID(ID(42), i)
		if id == 0 {
			t.Fatal("derived zero ID (reserved for absent)")
		}
		if id != deriveID(ID(42), i) {
			t.Fatal("deriveID not deterministic")
		}
		if seen[id] {
			t.Fatalf("sibling collision at index %d", i)
		}
		seen[id] = true
	}
}

func TestIDJSONRoundTrip(t *testing.T) {
	id := ID(0xDEADBEEF12345678)
	b, err := json.Marshal(id)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `"deadbeef12345678"` {
		t.Fatalf("marshal = %s", b)
	}
	var back ID
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != id {
		t.Fatalf("round trip = %x, want %x", uint64(back), uint64(id))
	}
	// Lenient numeric form.
	if err := json.Unmarshal([]byte("7"), &back); err != nil || back != 7 {
		t.Fatalf("numeric unmarshal = %v, %v", back, err)
	}
	if err := json.Unmarshal([]byte(`"not hex"`), &back); err == nil {
		t.Fatal("bad hex accepted")
	}
}

func TestStartCtxParentLinks(t *testing.T) {
	tr := newTracer(8, 1)
	root, ctx := tr.StartCtx(context.Background(), "root")
	child, cctx := tr.StartCtx(ctx, "child")
	grand, _ := tr.StartCtx(cctx, "grand")
	grand.End()
	child.End()
	root.End()

	spans := tr.Snapshot()
	if len(spans) != 3 {
		t.Fatalf("recorded %d spans", len(spans))
	}
	byName := map[string]SpanRecord{}
	for _, sp := range spans {
		byName[sp.Name] = sp
	}
	r, c, g := byName["root"], byName["child"], byName["grand"]
	if r.ParentID != 0 || r.TraceID != r.SpanID {
		t.Fatalf("root record malformed: %+v", r)
	}
	if c.TraceID != r.TraceID || c.ParentID != r.SpanID {
		t.Fatalf("child not under root: %+v", c)
	}
	if g.TraceID != r.TraceID || g.ParentID != c.SpanID {
		t.Fatalf("grand not under child: %+v", g)
	}
}

func TestStartCtxAtOrderIndependent(t *testing.T) {
	// Two tracers start the same indexed children in opposite orders; the
	// span IDs must match — fan-out span identity is a function of the
	// task index, not of goroutine scheduling.
	ids := func(order []int) map[int]ID {
		tr := newTracer(8, 1)
		root, ctx := tr.StartCtx(context.Background(), "root")
		out := map[int]ID{}
		for _, i := range order {
			sp, _ := tr.StartCtxAt(ctx, "shard", i)
			out[i] = sp.Ref().SpanID
			sp.End()
		}
		root.End()
		return out
	}
	a, b := ids([]int{0, 1, 2}), ids([]int{2, 0, 1})
	for i := 0; i < 3; i++ {
		if a[i] != b[i] {
			t.Fatalf("shard %d ID depends on start order: %s vs %s", i, a[i], b[i])
		}
	}

	// Indexed children must not collide with counter-assigned siblings.
	tr := newTracer(8, 1)
	_, ctx := tr.StartCtx(context.Background(), "root")
	counter, _ := tr.StartCtx(ctx, "seq")
	indexed, _ := tr.StartCtxAt(ctx, "idx", 1)
	if counter.Ref().SpanID == indexed.Ref().SpanID {
		t.Fatal("counter and indexed children collided")
	}
}

// TestNewSetsRootAtDistinctTraceIDs: two sets — a manager's and an
// agent's, say — must not start their first traces at the same ID, or a
// merged /debug/trace view would conflate unrelated trees.
func TestNewSetsRootAtDistinctTraceIDs(t *testing.T) {
	a, b := New(nil).Tracer.Start("root"), New(nil).Tracer.Start("root")
	if a.Ref().TraceID == b.Ref().TraceID {
		t.Fatalf("two sets rooted their first traces at the same ID %v", a.Ref().TraceID)
	}
}

func TestContextWithRefCrossProcess(t *testing.T) {
	// Simulate the RPC hop: a span on tracer A, its ref shipped over the
	// wire, rehydrated into a context for tracer B. B's span must join
	// A's trace.
	trA, trB := newTracer(8, 1), newTracer(8, 2)
	root, _ := trA.StartCtx(context.Background(), "manager.solve")
	wire := root.Ref()

	ctx := ContextWithRef(context.Background(), wire)
	if got := RefFromContext(ctx); got != wire {
		t.Fatalf("RefFromContext = %+v, want %+v", got, wire)
	}
	remote, _ := trB.StartCtx(ctx, "rpc.evaluate")
	remote.End()
	root.End()

	got := trB.Snapshot()[0]
	if got.TraceID != wire.TraceID || got.ParentID != wire.SpanID {
		t.Fatalf("remote span did not join the caller's trace: %+v", got)
	}

	// Zero refs are wire-compatible no-ops: the remote span is a root.
	ctx2 := ContextWithRef(context.Background(), TraceRef{})
	if RefFromContext(ctx2).valid() {
		t.Fatal("zero ref produced trace context")
	}
}
