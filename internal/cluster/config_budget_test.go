package cluster

import (
	"reflect"
	"testing"

	"repro/internal/core"
)

// TestConfigFieldBudget pins the number of independently settable values
// in the two solver config structs. A new field needs two non-test
// callers that want different values; otherwise it is a constant.
func TestConfigFieldBudget(t *testing.T) {
	for _, c := range []struct {
		typ    reflect.Type
		budget int
	}{
		{reflect.TypeOf(core.Config{}), 12},
		{reflect.TypeOf(ManagerConfig{}), 6},
	} {
		if n := c.typ.NumField(); n > c.budget {
			t.Errorf("%v has %d fields, budget %d", c.typ, n, c.budget)
		}
	}
}
