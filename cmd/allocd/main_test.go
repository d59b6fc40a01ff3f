package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	cloudalloc "repro"
)

// freePort reserves an ephemeral loopback port and returns its address.
func freePort(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// TestRunServesDebugEndpoints boots the daemon with -debug-addr, drives
// one RPC through it, and checks the observability surface end to end.
func TestRunServesDebugEndpoints(t *testing.T) {
	cfg := cloudalloc.DefaultWorkloadConfig()
	cfg.NumClients = 8
	cfg.Seed = 3
	scen, err := cloudalloc.GenerateScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "scenario.json")
	if err := scen.SaveFile(path); err != nil {
		t.Fatal(err)
	}

	listen, debug := freePort(t), freePort(t)
	errc := make(chan error, 1)
	go func() {
		errc <- run([]string{"-scenario", path, "-cluster", "0", "-listen", listen, "-debug-addr", debug})
	}()

	// Wait for the agent listener, then make a real RPC so the server-side
	// metrics have something to show.
	var agent cloudalloc.Agent
	deadline := time.Now().Add(10 * time.Second)
	for {
		agent, err = cloudalloc.DialAgent(listen, cloudalloc.DefaultAgentCallPolicy(), nil)
		if err == nil {
			break
		}
		select {
		case rerr := <-errc:
			t.Fatalf("run exited early: %v", rerr)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("agent never came up: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	defer agent.Close()
	if k, err := agent.ClusterID(context.Background()); err != nil || k != 0 {
		t.Fatalf("ClusterID = %v, %v", k, err)
	}
	if _, err := agent.Evaluate(context.Background(), 0); err != nil {
		t.Fatal(err)
	}

	get := func(path string) string {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", debug, path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	metrics := get("/metrics")
	for _, want := range []string{
		"# TYPE rpc_server_calls_total counter",
		`rpc_server_calls_total{op="evaluate"} 1`,
		"rpc_server_latency_seconds_bucket",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q:\n%s", want, metrics)
		}
	}
	if trace := get("/debug/trace"); !strings.Contains(trace, "rpc.evaluate") {
		t.Errorf("/debug/trace missing rpc.evaluate span: %s", trace)
	}
	if vars := get("/debug/vars"); !strings.Contains(vars, "rpc_server_calls_total") {
		t.Errorf("/debug/vars missing counters: %s", vars)
	}
}

// TestRunRequiresScenario keeps the flag contract honest.
func TestRunRequiresScenario(t *testing.T) {
	if err := run(nil); err == nil {
		t.Fatal("run without -scenario succeeded")
	}
}
