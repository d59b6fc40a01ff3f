package sim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/alloc"
	"repro/internal/telemetry"
)

// dispatcher is the cluster request dispatcher of the paper (Figure 2)
// for one client: it routes each incoming request to one of the
// client's portions with probability equal to the dispersion rate α_ij.
// By the Poisson splitting property the per-portion streams remain
// Poisson, which is what makes the analytical M/M/1 model exact.
type dispatcher struct {
	cum    []float64 // cumulative α
	routed *telemetry.Counter
}

// newDispatcher builds a dispatcher from a client's portions, whose
// dispersion rates must sum to 1. routed, when non-nil, is incremented
// once per routed request; counters are shareable, so every client's
// dispatcher can feed the same cloud-wide counter.
func newDispatcher(portions []alloc.Portion, routed *telemetry.Counter) (*dispatcher, error) {
	if len(portions) == 0 {
		return nil, errors.New("dispatch: no portions")
	}
	d := &dispatcher{cum: make([]float64, len(portions)), routed: routed}
	var sum float64
	for i, p := range portions {
		if p.Alpha < 0 {
			return nil, fmt.Errorf("dispatch: negative dispersion rate %v", p.Alpha)
		}
		sum += p.Alpha
		d.cum[i] = sum
	}
	if math.Abs(sum-1) > 1e-6 {
		return nil, fmt.Errorf("dispatch: dispersion rates sum to %v, want 1", sum)
	}
	// Guard the last boundary against floating-point shortfall.
	d.cum[len(d.cum)-1] = math.Max(sum, 1)
	return d, nil
}

// route picks a portion index for the next request.
func (d *dispatcher) route(rng *rand.Rand) int {
	d.routed.Inc() // nil-safe no-op when uninstrumented
	u := rng.Float64()
	// Portions are few (≤ number of servers a client spans); linear scan
	// beats binary search at this size.
	idx := len(d.cum) - 1
	for i, c := range d.cum {
		if u < c {
			idx = i
			break
		}
	}
	return idx
}
