package telemetry

import (
	"encoding/json"
	"expvar"
	"net/http"
	"net/http/pprof"
	"strconv"
)

// Handler builds the debug HTTP surface for a Set:
//
//	/metrics      — Prometheus text exposition of the registry
//	/debug/vars   — expvar JSON (includes the registry when published)
//	/debug/trace  — the tracer's recent spans; ?n=K limits the reply to
//	                the last K spans, ?format=tree renders ASCII trace
//	                trees, ?format=chrome emits Chrome trace-event JSON
//	                (Perfetto-loadable), default is plain JSON
//	/debug/flight — the flight recorder's recent events as JSON
//	                (?n=K limits to the last K events)
//	/debug/pprof/ — the standard net/http/pprof profiles
//
// The same mux is what allocd serves on -debug-addr.
func Handler(s *Set) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if s != nil {
			s.Metrics.WritePrometheus(w)
		}
	})
	if s != nil {
		// Best effort: a second registry reusing the name keeps the
		// process-global expvar page; its own /metrics is unaffected.
		_ = s.Metrics.publishExpvar("cloudalloc")
	}
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		var spans []SpanRecord
		if s != nil {
			spans = s.Tracer.Snapshot()
		}
		spans = lastN(spans, r.URL.Query().Get("n"))
		switch r.URL.Query().Get("format") {
		case "tree":
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			writeTraceTree(w, spans)
		case "chrome":
			w.Header().Set("Content-Type", "application/json")
			_ = WriteChromeTrace(w, spans)
		default:
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(struct {
				Total uint64       `json:"total_spans"`
				Spans []SpanRecord `json:"spans"`
			}{Total: s.traceTotal(), Spans: spans})
		}
	})
	mux.HandleFunc("/debug/flight", func(w http.ResponseWriter, r *http.Request) {
		var (
			events []Event
			total  uint64
			every  uint64
		)
		if s != nil {
			f := s.Flight
			events = f.Snapshot()
			total = f.Total()
			every = f.sampleEvery()
		}
		events = lastN(events, r.URL.Query().Get("n"))
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(struct {
			Total       uint64  `json:"total_events"`
			SampleEvery uint64  `json:"sample_every"`
			Events      []Event `json:"events"`
		}{Total: total, SampleEvery: every, Events: events})
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// lastN keeps the trailing n entries when the query parameter parses.
func lastN[T any](items []T, nStr string) []T {
	if nStr == "" {
		return items
	}
	if n, err := strconv.Atoi(nStr); err == nil && n >= 0 && n < len(items) {
		return items[len(items)-n:]
	}
	return items
}

func (s *Set) traceTotal() uint64 {
	if s == nil {
		return 0
	}
	return s.Tracer.Total()
}
