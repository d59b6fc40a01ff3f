package telemetry

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestFlightNilSafety(t *testing.T) {
	var f *Flight
	if f.SampleClient(1) {
		t.Fatal("nil recorder sampled a client")
	}
	f.Record(Event{Kind: EventPlaceAccept})
	if got := f.Snapshot(); got != nil {
		t.Fatalf("nil snapshot = %v", got)
	}
	if f.Total() != 0 || f.sampleEvery() != 0 {
		t.Fatal("nil totals nonzero")
	}
}

func TestFlightRingWraparound(t *testing.T) {
	f := NewFlight(4, 1)
	for i := 0; i < 10; i++ {
		f.Record(Event{Kind: EventPlaceAccept, Client: int64(i)})
	}
	if f.Total() != 10 {
		t.Fatalf("total = %d, want 10", f.Total())
	}
	got := f.Snapshot()
	if len(got) != 4 {
		t.Fatalf("retained %d events, want 4", len(got))
	}
	for i, e := range got {
		// Oldest first: clients 6,7,8,9 with seq 7..10.
		if e.Client != int64(6+i) || e.Seq != uint64(7+i) {
			t.Fatalf("event %d = client %d seq %d, want client %d seq %d",
				i, e.Client, e.Seq, 6+i, 7+i)
		}
		if e.Time.IsZero() {
			t.Fatal("Record did not stamp Time")
		}
	}
}

func TestFlightSamplingDeterministic(t *testing.T) {
	f1 := NewFlight(16, 8)
	f2 := NewFlight(16, 8)
	var sampled int
	for i := int64(0); i < 1000; i++ {
		if f1.SampleClient(i) != f2.SampleClient(i) {
			t.Fatalf("sampling of client %d differs between identical recorders", i)
		}
		if f1.SampleClient(i) {
			sampled++
		}
	}
	// The hash keeps roughly 1-in-8; allow a generous band.
	if sampled < 60 || sampled > 250 {
		t.Fatalf("1-in-8 sampling kept %d of 1000 clients", sampled)
	}
	// every<=1 records everything.
	all := NewFlight(16, 1)
	for i := int64(0); i < 50; i++ {
		if !all.SampleClient(i) {
			t.Fatalf("unsampled recorder skipped client %d", i)
		}
	}
}

func TestEventKindNamesAndJSON(t *testing.T) {
	want := map[EventKind]string{
		EventPlaceAccept:   "place_accept",
		EventPlaceReject:   "place_reject",
		EventPruneBound:    "prune_bound",
		EventEscalate:      "escalate",
		EventCommitFail:    "commit_fail",
		EventRestoreFail:   "restore_fail",
		EventReconcileMove: "reconcile_move",
	}
	for k, name := range want {
		if k.String() != name {
			t.Fatalf("kind %d = %q, want %q", k, k.String(), name)
		}
	}
	if EventKind(200).String() != "unknown" {
		t.Fatal("out-of-range kind not unknown")
	}

	f := NewFlight(4, 1)
	f.Record(Event{Kind: EventPruneBound, Client: 7, Cluster: 2, Bound: 3.5, Exact: 2.25,
		Trace: TraceRef{TraceID: 1, SpanID: 2}})
	b, err := json.Marshal(f.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{`"kind":"prune_bound"`, `"bound":3.5`, `"span_id":"0000000000000002"`} {
		if !strings.Contains(string(b), frag) {
			t.Fatalf("flight JSON missing %s:\n%s", frag, b)
		}
	}
}
