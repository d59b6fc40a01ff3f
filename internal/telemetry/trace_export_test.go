package telemetry

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
)

// recordTree runs a tiny two-level trace on a fresh tracer and returns
// the snapshot: root → (child_a → grandchild, child_b).
func recordTree(t *testing.T) []SpanRecord {
	t.Helper()
	tr := newTracer(16, 1)
	root, ctx := tr.StartCtx(context.Background(), "root")
	a, actx := tr.StartCtx(ctx, "child_a")
	g, _ := tr.StartCtx(actx, "grandchild")
	g.End()
	a.End()
	b, _ := tr.StartCtx(ctx, "child_b")
	b.Attr("k", 3)
	b.End()
	root.End()
	return tr.Snapshot()
}

func TestWriteTraceTree(t *testing.T) {
	var sb strings.Builder
	writeTraceTree(&sb, recordTree(t))
	out := sb.String()
	for _, want := range []string{"trace ", "root", "├── child_a", "│   └── grandchild", "└── child_b", "k=3"} {
		if !strings.Contains(out, want) {
			t.Fatalf("tree output missing %q:\n%s", want, out)
		}
	}

	sb.Reset()
	writeTraceTree(&sb, nil)
	if !strings.Contains(sb.String(), "no spans") {
		t.Fatalf("empty tree output = %q", sb.String())
	}
}

func TestWriteTraceTreeOrphanBecomesRoot(t *testing.T) {
	// A child whose parent was evicted from the ring (or lives in another
	// process's tracer) must still render, as its own root.
	spans := []SpanRecord{
		{Name: "orphan", TraceID: 9, SpanID: 5, ParentID: 1234},
	}
	var sb strings.Builder
	writeTraceTree(&sb, spans)
	if !strings.Contains(sb.String(), "orphan") {
		t.Fatalf("orphan span dropped:\n%s", sb.String())
	}
}

func TestWriteChromeTrace(t *testing.T) {
	var sb strings.Builder
	if err := WriteChromeTrace(&sb, recordTree(t)); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Dur  float64        `json:"dur"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 4 {
		t.Fatalf("got %d events, want 4", len(doc.TraceEvents))
	}
	names := map[string]bool{}
	for _, e := range doc.TraceEvents {
		names[e.Name] = true
		if e.Ph != "X" {
			t.Fatalf("event %q has phase %q, want complete (X)", e.Name, e.Ph)
		}
		if e.Args["trace_id"] == "" || e.Args["span_id"] == "" {
			t.Fatalf("event %q lacks span identity args: %v", e.Name, e.Args)
		}
	}
	for _, want := range []string{"root", "child_a", "child_b", "grandchild"} {
		if !names[want] {
			t.Fatalf("chrome trace missing %q (have %v)", want, names)
		}
	}
}
