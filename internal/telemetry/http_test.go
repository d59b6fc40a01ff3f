package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestHandlerEndpoints(t *testing.T) {
	set := New(nil)
	set.Counter("requests_total").Add(7)
	sp := set.Start("solve")
	sp.Attr("clients", 10)
	sp.End()
	srv := httptest.NewServer(Handler(set))
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "requests_total 7") {
		t.Errorf("/metrics: code=%d body=%q", code, body)
	}
	code, body := get("/debug/trace")
	if code != 200 {
		t.Fatalf("/debug/trace: code=%d", code)
	}
	var trace struct {
		Total uint64       `json:"total_spans"`
		Spans []SpanRecord `json:"spans"`
	}
	if err := json.Unmarshal([]byte(body), &trace); err != nil {
		t.Fatalf("/debug/trace not JSON: %v", err)
	}
	if trace.Total != 1 || len(trace.Spans) != 1 || trace.Spans[0].Name != "solve" {
		t.Errorf("trace = %+v", trace)
	}
	if code, body := get("/debug/vars"); code != 200 || !strings.HasPrefix(strings.TrimSpace(body), "{") {
		t.Errorf("/debug/vars: code=%d", code)
	}
	if code, _ := get("/debug/pprof/"); code != 200 {
		t.Errorf("/debug/pprof/: code=%d", code)
	}
	if code, _ := get("/debug/pprof/cmdline"); code != 200 {
		t.Errorf("/debug/pprof/cmdline: code=%d", code)
	}
}

func TestHandlerTraceLimit(t *testing.T) {
	set := New(nil)
	for i := 0; i < 5; i++ {
		sp := set.Start("op")
		sp.End()
	}
	srv := httptest.NewServer(Handler(set))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/trace?n=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var trace struct {
		Spans []SpanRecord `json:"spans"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&trace); err != nil {
		t.Fatal(err)
	}
	if len(trace.Spans) != 2 {
		t.Errorf("got %d spans, want 2", len(trace.Spans))
	}
}

func TestHandlerNilSet(t *testing.T) {
	srv := httptest.NewServer(Handler(nil))
	defer srv.Close()
	for _, path := range []string{"/metrics", "/debug/trace"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Errorf("%s: code=%d", path, resp.StatusCode)
		}
	}
}

func TestLoggerHelpers(t *testing.T) {
	var b strings.Builder
	l := NewTextLogger(&b, 0)
	l.Info("hello", "k", 1)
	if !strings.Contains(b.String(), "hello") {
		t.Errorf("log output = %q", b.String())
	}
	var s *Set
	s.Logger().Info("discarded")
}
