package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// This file renders span snapshots in two offline-consumable forms: the
// Chrome trace-event JSON that Perfetto / chrome://tracing load
// (cloudalloc -trace-out), and an ASCII tree for /debug/trace?format=tree.

// chromeEvent is one complete ("ph":"X") trace event.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace writes spans in the Chrome trace-event JSON format.
// Each trace tree gets its own tid so Perfetto renders one lane per
// trace; span/parent IDs and attrs ride in args.
func WriteChromeTrace(w io.Writer, spans []SpanRecord) error {
	events := make([]chromeEvent, 0, len(spans))
	lane := map[ID]int{}
	laneOf := func(tid ID) int {
		if l, ok := lane[tid]; ok {
			return l
		}
		l := len(lane) + 1
		lane[tid] = l
		return l
	}
	for _, sp := range spans {
		args := map[string]any{
			"trace_id": sp.TraceID.String(),
			"span_id":  sp.SpanID.String(),
		}
		if sp.ParentID != 0 {
			args["parent_id"] = sp.ParentID.String()
		}
		for _, a := range sp.Attrs {
			args[a.Key] = a.Value
		}
		events = append(events, chromeEvent{
			Name: sp.Name,
			Cat:  "span",
			Ph:   "X",
			Ts:   float64(sp.Start.UnixNano()) / 1e3,
			Dur:  float64(sp.Duration) / 1e3,
			Pid:  1,
			Tid:  laneOf(sp.TraceID),
			Args: args,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{TraceEvents: events, DisplayTimeUnit: "ms"})
}

// treeNode is one span plus its resolved children.
type treeNode struct {
	rec  SpanRecord
	kids []*treeNode
}

// buildTraceTrees groups spans by TraceID and links them parent→child.
// Roots (ParentID zero, or parent absent from the snapshot — it may have
// been evicted from the ring, or recorded by another process) come back
// ordered by start time; children are ordered by start time under each
// parent. Spans without IDs (legacy flat records) each form their own
// single-node tree.
func buildTraceTrees(spans []SpanRecord) []*treeNode {
	nodes := make(map[ID]*treeNode, len(spans))
	var all []*treeNode
	for _, sp := range spans {
		n := &treeNode{rec: sp}
		all = append(all, n)
		if sp.SpanID != 0 {
			nodes[sp.SpanID] = n
		}
	}
	var roots []*treeNode
	for _, n := range all {
		if p := n.rec.ParentID; p != 0 {
			if parent, ok := nodes[p]; ok && parent != n {
				parent.kids = append(parent.kids, n)
				continue
			}
		}
		roots = append(roots, n)
	}
	sortNodes := func(ns []*treeNode) {
		sort.SliceStable(ns, func(i, j int) bool {
			if !ns[i].rec.Start.Equal(ns[j].rec.Start) {
				return ns[i].rec.Start.Before(ns[j].rec.Start)
			}
			return ns[i].rec.SpanID < ns[j].rec.SpanID
		})
	}
	sortNodes(roots)
	for _, n := range all {
		sortNodes(n.kids)
	}
	return roots
}

// writeTraceTree renders spans as indented ASCII trees, one per trace,
// newest-rooted trace last:
//
//	trace 4a2e...  manager.solve  1.24s
//	├── manager.improve_round  612ms  round=0
//	│   ├── rpc.improve  203ms  peer=127.0.0.1:7071
//	...
func writeTraceTree(w io.Writer, spans []SpanRecord) {
	roots := buildTraceTrees(spans)
	for _, root := range roots {
		fmt.Fprintf(w, "trace %s  %s\n", root.rec.TraceID, formatTreeLine(root.rec))
		writeTreeChildren(w, root, "")
	}
	if len(roots) == 0 {
		fmt.Fprintln(w, "(no spans recorded)")
	}
}

func writeTreeChildren(w io.Writer, n *treeNode, prefix string) {
	for i, kid := range n.kids {
		connector, childPrefix := "├── ", prefix+"│   "
		if i == len(n.kids)-1 {
			connector, childPrefix = "└── ", prefix+"    "
		}
		fmt.Fprintf(w, "%s%s%s\n", prefix, connector, formatTreeLine(kid.rec))
		writeTreeChildren(w, kid, childPrefix)
	}
}

func formatTreeLine(sp SpanRecord) string {
	var b strings.Builder
	b.WriteString(sp.Name)
	b.WriteString("  ")
	b.WriteString(sp.Duration.Round(time.Microsecond).String())
	for _, a := range sp.Attrs {
		fmt.Fprintf(&b, "  %s=%v", a.Key, a.Value)
	}
	return b.String()
}
