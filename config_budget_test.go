package cloudalloc

import (
	"reflect"
	"testing"

	"repro/internal/agentrpc"
	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/experiment"
	"repro/internal/online"
	"repro/internal/sim"
	"repro/internal/workload"
)

// settableValues lists the independently settable values of a config
// type as dotted paths under prefix: every exported field, with nested
// struct fields expanded. A pointer, slice, map or interface field is one
// value.
func settableValues(t reflect.Type, prefix string) []string {
	if t.Kind() != reflect.Struct {
		return []string{prefix}
	}
	var out []string
	for i := 0; i < t.NumField(); i++ {
		if f := t.Field(i); f.IsExported() {
			out = append(out, settableValues(f.Type, prefix+"."+f.Name)...)
		}
	}
	return out
}

// configCensus is every config struct with its budget of settable values.
// DESIGN.md's Settings table has one row per value (TestDocsSettingsTable).
var configCensus = []struct {
	cfg    any
	budget int
}{
	{experiment.ScaleExpConfig{}, 2},
	{epoch.ControllerConfig{}, 3},
	{baseline.MCConfig{}, 5},
	{baseline.PSConfig{}, 1},
	{cluster.ManagerConfig{}, 4},
	{core.Config{}, 12},
	{online.Config{}, 16},
	{online.ChurnConfig{}, 8},
	{sim.Config{}, 3},
	{agentrpc.Policy{}, 7},
	{workload.Config{}, 24},
}

// TestConfigFieldBudget pins the settable values of every config struct.
// A setting earns its place when a non-test caller or a benchmark
// workload needs a value other than its default; with one value in use
// it is a constant. A new knob fails here and needs its budget raised
// in the same change, with the caller that needs it (DESIGN §10).
func TestConfigFieldBudget(t *testing.T) {
	total := 0
	for _, b := range configCensus {
		typ := reflect.TypeOf(b.cfg)
		n := len(settableValues(typ, typ.String()))
		total += n
		if n != b.budget {
			t.Errorf("%v has %d settable values, budget %d", typ, n, b.budget)
		}
	}
	if total != 85 {
		t.Errorf("census total %d, want 85", total)
	}
}
