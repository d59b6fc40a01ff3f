package telemetry

import (
	"context"
	"io"
	"log/slog"
	"math/rand/v2"
)

// Set bundles the three observability facilities a component is handed:
// metrics, tracing and structured logging. A nil *Set disables all
// three at zero cost — every accessor below is safe on a nil receiver
// and returns a nil (no-op) handle, so components resolve their metric
// handles once at construction and the hot path pays only nil checks.
type Set struct {
	Metrics *Registry
	Tracer  *Tracer
	Log     *slog.Logger
	Flight  *Flight
}

// New builds a fully enabled Set: fresh registry, default-capacity
// tracer, default-capacity unsampled flight recorder, and the given
// logger (the no-op logger when nil). Each set draws its tracer's root
// seed at random, so the root trace IDs of two sets — a manager's and an
// agent's, say — do not collide; child IDs still derive deterministically
// from their root.
func New(log *slog.Logger) *Set {
	return &Set{
		Metrics: newRegistry(),
		Tracer:  newTracer(0, rand.Uint64()),
		Log:     log,
		Flight:  NewFlight(0, 1),
	}
}

// registry and tracer are the set's nil-safe parts: nil on a nil set,
// and the nil handles they give are themselves no-ops.
func (s *Set) registry() *Registry {
	if s == nil {
		return nil
	}
	return s.Metrics
}

func (s *Set) tracer() *Tracer {
	if s == nil {
		return nil
	}
	return s.Tracer
}

// Counter resolves a counter handle (nil when disabled).
func (s *Set) Counter(name string) *Counter { return s.registry().Counter(name) }

// Gauge resolves a gauge handle (nil when disabled).
func (s *Set) Gauge(name string) *Gauge { return s.registry().Gauge(name) }

// Histogram resolves a histogram handle (nil when disabled).
func (s *Set) Histogram(name string, buckets []float64) *Histogram {
	return s.registry().Histogram(name, buckets)
}

// Start opens a root span on the set's tracer (inert on a disabled set).
func (s *Set) Start(name string) Span { return s.tracer().Start(name) }

// StartCtx opens a span as a child of the span in ctx and returns the
// derived context (inert, ctx unchanged, on a disabled set).
func (s *Set) StartCtx(ctx context.Context, name string) (Span, context.Context) {
	return s.tracer().StartCtx(ctx, name)
}

// StartCtxAt is StartCtx with an explicit child index
// (Tracer.StartCtxAt), for fan-out sites.
func (s *Set) StartCtxAt(ctx context.Context, name string, index int) (Span, context.Context) {
	return s.tracer().StartCtxAt(ctx, name, index)
}

// FlightRecorder returns the set's flight recorder (nil when disabled);
// a nil *Flight is itself a valid no-op recorder.
func (s *Set) FlightRecorder() *Flight {
	if s == nil {
		return nil
	}
	return s.Flight
}

// Logger returns the set's logger, falling back to the no-op logger so
// callers never nil-check before logging.
func (s *Set) Logger() *slog.Logger {
	if s == nil || s.Log == nil {
		return nopLogger
	}
	return s.Log
}

// discardHandler drops every record (log/slog gained a built-in discard
// handler only after the module's Go floor).
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }

var nopLogger = slog.New(discardHandler{})

// NewTextLogger builds a slog text logger writing to w at the given
// level — what the cmds install behind their -debug / -v flags.
func NewTextLogger(w io.Writer, level slog.Level) *slog.Logger {
	return slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{Level: level}))
}
