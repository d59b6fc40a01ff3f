package alloc

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestSnapshotRoundTrip(t *testing.T) {
	s := testScenario(t)
	a := New(s)
	if err := a.Assign(0, 0, fullPortion(0)); err != nil {
		t.Fatal(err)
	}
	if err := a.Assign(1, 0, fullPortion(1)); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := a.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(s, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Profit()-a.Profit()) > 1e-12 {
		t.Fatalf("profit %v != %v after round trip", got.Profit(), a.Profit())
	}
	if got.NumAssigned() != 2 || got.ClusterOf(0) != 0 {
		t.Fatalf("placements lost: %+v", got.Snapshot())
	}
}

func TestSnapshotSkipsUnassigned(t *testing.T) {
	s := testScenario(t)
	a := New(s)
	if err := a.Assign(1, 1, []Portion{{Server: 2, Alpha: 1, ProcShare: 0.9, CommShare: 0.9}}); err != nil {
		t.Fatal(err)
	}
	snap := a.Snapshot()
	if len(snap.Placements) != 1 || snap.Placements[0].Client != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

func TestFromSnapshotRejectsInvalid(t *testing.T) {
	s := testScenario(t)
	if _, err := fromSnapshot(s, Snapshot{Placements: []Placement{{Client: 99, Cluster: 0}}}); err == nil {
		t.Fatal("unknown client accepted")
	}
	bad := Snapshot{Placements: []Placement{{
		Client:  0,
		Cluster: 0,
		// Unstable share.
		Portions: []Portion{{Server: 0, Alpha: 1, ProcShare: 0.01, CommShare: 0.5}},
	}}}
	if _, err := fromSnapshot(s, bad); err == nil {
		t.Fatal("infeasible placement accepted")
	}
}

func TestReadJSONRejectsGarbage(t *testing.T) {
	s := testScenario(t)
	if _, err := ReadJSON(s, strings.NewReader("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
}
