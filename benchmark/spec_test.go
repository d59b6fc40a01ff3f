package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// benchmarkJSON mirrors the root BENCHMARK.json, key for key.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSONMatchesSpec fails when a name the command prints is
// missing from BENCHMARK.json or the other way round, when a unit,
// direction, bound or reason differs, and when the file leaves the shape
// the driver accepts.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	want := []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
	if len(keys) != len(want) {
		t.Errorf("BENCHMARK.json has %d keys, want exactly %v", len(keys), want)
	}
	for _, k := range want {
		if _, ok := keys[k]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", k)
		}
	}
	var f benchmarkJSON
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(f.Command, []string{"bash", "benchmark/run.sh"}) || !reflect.DeepEqual(f.Paths, []string{"benchmark"}) {
		t.Errorf("command %v, paths %v", f.Command, f.Paths)
	}
	if f.RunSeconds != refSeconds {
		t.Errorf("run_seconds %d, but the sizes are fixed for %d", f.RunSeconds, refSeconds)
	}

	if n := len(f.Workloads); n != len(workloads) || n < 2 || n > 8 {
		t.Fatalf("%d workloads in the file, %d in the command, 2..8 allowed", n, len(workloads))
	}
	for i, w := range workloads {
		if g := f.Workloads[i]; g.Name != w.Name || g.Why != w.Why {
			t.Errorf("workload %d: file has %q (%q), command has %q (%q)", i, g.Name, g.Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, over 200", w.Name, len(w.Why))
		}
	}

	if n := len(f.EndToEnd); n != len(endToEnd) || n < 1 || n > 16 {
		t.Fatalf("%d end-to-end metrics in the file, %d in the command, 1..16 allowed", n, len(endToEnd))
	}
	for i, m := range endToEnd {
		g := f.EndToEnd[i]
		if g.Bound == nil || g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better || *g.Bound != m.Bound {
			t.Errorf("end-to-end %d: file has %+v, command has %+v", i, g, m)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if m := endToEnd[0]; m.Name != "setup_s" || m.Unit != "s" || m.Better != "lower" {
		t.Errorf("the first end-to-end metric must be setup_s in s, lower is better: %+v", m)
	}
	for _, m := range endToEnd[1:] {
		if m.Bound > endToEnd[0].Bound {
			t.Errorf("%s has a larger bound than setup_s", m.Name)
		}
	}

	if n := len(f.PerLayer); n != len(perLayer) || n < 1 || n > 128 {
		t.Fatalf("%d per-layer metrics in the file, %d in the command, 1..128 allowed", n, len(perLayer))
	}
	for i, m := range perLayer {
		if g := f.PerLayer[i]; g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
			t.Errorf("per-layer %d: file has %+v, command has %+v", i, g, m)
		}
	}

	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q has a character outside letters, digits, _ . - or is too long", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check("workload", w.Name)
	}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		check("metric", m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
}
