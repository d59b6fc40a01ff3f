// Package telemetry is the repo's zero-dependency observability layer:
// a concurrent metrics registry (counters, gauges, fixed-bucket
// histograms) exposable in Prometheus text format and as expvar, a
// lightweight span tracer backed by a ring buffer, structured logging
// via log/slog, and an HTTP debug surface (/metrics, /debug/vars,
// /debug/trace, /debug/pprof).
//
// Everything is nil-safe: a nil *Set, *Counter, *Gauge, *Histogram or
// *Tracer turns every operation into an allocation-free no-op, so
// instrumented components pay only a nil check when telemetry is
// disabled (the default). See DESIGN.md §8.
package telemetry

import (
	"expvar"
	"fmt"
	"io"
	"maps"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing integer metric. The zero value
// is ready to use; all methods are safe on a nil receiver.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (negative n is ignored).
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 metric that can go up and down. The zero value is
// ready to use; all methods are safe on a nil receiver.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add folds a delta into the gauge with a CAS loop.
func (g *Gauge) Add(dv float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + dv)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets, Prometheus-style:
// bucket i counts observations ≤ upper[i], with an implicit +Inf bucket
// at the end. All hot-path operations are atomic; methods are safe on a
// nil receiver.
type Histogram struct {
	upper  []float64
	counts []atomic.Int64 // len(upper)+1, last is +Inf
	sum    Gauge
	count  atomic.Int64
}

// DurationBuckets spans 100µs to 10min. The upper decades matter:
// phase timings at the 1M-client scale run minutes (BENCH_scale.json
// records 12m for the full solve on a 1-core host), and before the
// 30–600s buckets were added every such observation collapsed into the
// +Inf overflow bucket, making the histograms useless exactly where
// they are most needed.
var DurationBuckets = []float64{
	.0001, .00025, .0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5,
	1, 2.5, 5, 10, 30, 60, 120, 300, 600,
}

// MicroBuckets spans 100ns to 100ms for per-event decision latencies.
// The online service's hot path is a handful of atomic loads — decisions
// land in the sub-microsecond decades where every DurationBuckets
// observation would collapse into the first bucket. The top decades
// overlap DurationBuckets so the occasional inline commit (a warm
// re-solve, milliseconds) still lands in a finite bucket.
var MicroBuckets = []float64{
	1e-7, 2.5e-7, 5e-7, 1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5,
	1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 1e-1,
}

// newHistogram builds a histogram over the given bucket upper bounds
// (DurationBuckets when none are given).
func newHistogram(upper []float64) *Histogram {
	if len(upper) == 0 {
		upper = DurationBuckets
	}
	u := append([]float64(nil), upper...)
	sort.Float64s(u)
	return &Histogram{upper: u, counts: make([]atomic.Int64, len(u)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Buckets are few and the slice is sorted; linear scan is branch-
	// predictable and beats binary search at this size.
	idx := len(h.upper)
	for i, ub := range h.upper {
		if v <= ub {
			idx = i
			break
		}
	}
	h.counts[idx].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// ObserveSince records the seconds elapsed since t0.
func (h *Histogram) ObserveSince(t0 time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(t0).Seconds())
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.Value()
}

// metric is what the registry exports of each kind: its Prometheus
// TYPE, its sample lines, and its expvar (JSON) value.
type metric interface {
	promType() string
	writeProm(w io.Writer, family, labels string)
	expvarValue() string
}

func (*Counter) promType() string   { return "counter" }
func (*Gauge) promType() string     { return "gauge" }
func (*Histogram) promType() string { return "histogram" }

func (c *Counter) writeProm(w io.Writer, family, labels string) {
	fmt.Fprintf(w, "%s%s %d\n", family, braced(labels), c.Value())
}

func (g *Gauge) writeProm(w io.Writer, family, labels string) {
	fmt.Fprintf(w, "%s%s %s\n", family, braced(labels), formatFloat(g.Value()))
}

// writeProm renders one histogram family member: cumulative _bucket
// series (the le label merged into any existing labels), then _sum and
// _count.
func (h *Histogram) writeProm(w io.Writer, family, labels string) {
	cum := int64(0)
	for i, ub := range h.upper {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", family, labelPrefix(labels), formatFloat(ub), cum)
	}
	cum += h.counts[len(h.upper)].Load()
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", family, labelPrefix(labels), cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", family, braced(labels), formatFloat(h.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", family, braced(labels), h.Count())
}

func (c *Counter) expvarValue() string { return fmt.Sprintf("%d", c.Value()) }
func (g *Gauge) expvarValue() string   { return fmt.Sprintf("%g", g.Value()) }
func (h *Histogram) expvarValue() string {
	return fmt.Sprintf(`{"count":%d,"sum":%g}`, h.Count(), h.Sum())
}

// Registry holds named metrics. Metric handles are created once
// (get-or-create) and then operated on lock-free; the registry lock is
// only taken on (rare) creation and on export.
type Registry struct {
	mu        sync.RWMutex
	metrics   map[string]metric
	helps     map[string]string // keyed by family (name sans labels)
	published bool
}

// newRegistry returns an empty registry.
func newRegistry() *Registry {
	return &Registry{metrics: make(map[string]metric), helps: make(map[string]string)}
}

// Name formats a metric name with label pairs, deterministically:
// Name("rpc_calls_total", "op", "evaluate") → rpc_calls_total{op="evaluate"}.
// Pairs must come in key, value order; odd trailing keys are dropped.
func Name(base string, kv ...string) string {
	if len(kv) < 2 {
		return base
	}
	var b strings.Builder
	b.WriteString(base)
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", kv[i], kv[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

// splitName separates a full metric name into its family and the label
// body (without braces); labels are empty when the name has none.
func splitName(name string) (family, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 && strings.HasSuffix(name, "}") {
		return name[:i], name[i+1 : len(name)-1]
	}
	return name, ""
}

// Help registers a description for a metric family, shown as the
// Prometheus # HELP line.
func (r *Registry) Help(family, help string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.helps[family] = help
	r.mu.Unlock()
}

// Counter returns the counter with the given full name (create on first
// use). Nil-safe: a nil registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	return lookup(r, name, func() *Counter { return &Counter{} })
}

// Gauge returns the gauge with the given full name (create on first use).
func (r *Registry) Gauge(name string) *Gauge {
	return lookup(r, name, func() *Gauge { return &Gauge{} })
}

// Histogram returns the histogram with the given full name, creating it
// with the given bucket upper bounds on first use (later calls reuse the
// original buckets).
func (r *Registry) Histogram(name string, buckets []float64) *Histogram {
	return lookup(r, name, func() *Histogram { return newHistogram(buckets) })
}

// lookup is the get-or-create behind Counter, Gauge and Histogram (the
// nil handle on a nil registry). A name holds one kind: asking for
// another kind under a name already taken returns a fresh detached
// handle, which works but is never exported.
func lookup[M metric](r *Registry, name string, fresh func() M) M {
	var m M
	if r == nil {
		return m
	}
	r.mu.RLock()
	m, ok := r.metrics[name].(M)
	r.mu.RUnlock()
	if ok {
		return m
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	old, taken := r.metrics[name]
	if m, ok := old.(M); ok {
		return m
	}
	m = fresh()
	if !taken {
		r.metrics[name] = m
	}
	return m
}

// entry is one registered metric with its name split for export.
type entry struct {
	name, family, labels string
	m                    metric
}

// sorted lists the registered metrics by family, then labels: the order
// both exports walk. The caller holds r.mu.
func (r *Registry) sorted() []entry {
	es := make([]entry, 0, len(r.metrics))
	for name, m := range r.metrics {
		fam, lab := splitName(name)
		es = append(es, entry{name: name, family: fam, labels: lab, m: m})
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].family != es[j].family {
			return es[i].family < es[j].family
		}
		return es[i].labels < es[j].labels
	})
	return es
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format, families sorted by name, with # HELP/# TYPE headers.
func (r *Registry) WritePrometheus(w io.Writer) {
	if r == nil {
		return
	}
	r.mu.RLock()
	es := r.sorted()
	helps := maps.Clone(r.helps)
	r.mu.RUnlock()
	lastFam := ""
	for _, e := range es {
		if e.family != lastFam {
			if help := helps[e.family]; help != "" {
				fmt.Fprintf(w, "# HELP %s %s\n", e.family, help)
			}
			fmt.Fprintf(w, "# TYPE %s %s\n", e.family, e.m.promType())
			lastFam = e.family
		}
		e.m.writeProm(w, e.family, e.labels)
	}
}

// braced wraps a non-empty label body in braces.
func braced(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

func labelPrefix(labels string) string {
	if labels == "" {
		return ""
	}
	return labels + ","
}

func formatFloat(v float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.9f", v), "0"), ".")
}

// String renders the registry as a JSON object of name → value
// (histograms export {count, sum}), which makes *Registry an expvar.Var.
func (r *Registry) String() string {
	if r == nil {
		return "{}"
	}
	r.mu.RLock()
	es := r.sorted()
	r.mu.RUnlock()
	var b strings.Builder
	b.WriteByte('{')
	for i, e := range es {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%q:%s", e.name, e.m.expvarValue())
	}
	b.WriteByte('}')
	return b.String()
}

var _ expvar.Var = (*Registry)(nil)

// publishExpvar publishes the registry under the given expvar name.
// Safe to call more than once per registry; a second registry reusing a
// taken name is an error (expvar panics on duplicates, which we avoid).
func (r *Registry) publishExpvar(name string) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.published {
		return nil
	}
	if expvar.Get(name) != nil {
		return fmt.Errorf("telemetry: expvar name %q already taken", name)
	}
	expvar.Publish(name, r)
	r.published = true
	return nil
}
