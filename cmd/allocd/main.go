// Command allocd serves one cluster agent over TCP — the cluster-side
// half of the paper's distributed decision making. Start one allocd per
// cluster, then point allocctl (the central manager) at them.
//
// Usage:
//
//	allocd -scenario scenario.json -cluster 0 -listen 127.0.0.1:7070
//
// With -debug-addr the daemon also serves its observability surface:
//
//	allocd -scenario scenario.json -cluster 0 -debug-addr 127.0.0.1:9090
//	curl 127.0.0.1:9090/metrics      # Prometheus text exposition
//	curl 127.0.0.1:9090/debug/trace  # recent solver/RPC spans as JSON
//	curl 127.0.0.1:9090/debug/vars   # expvar JSON
//	go tool pprof 127.0.0.1:9090/debug/pprof/profile
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"

	cloudalloc "repro"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "allocd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("allocd", flag.ContinueOnError)
	var (
		path      = fs.String("scenario", "", "scenario JSON path (required)")
		clustID   = fs.Int("cluster", 0, "cluster index this agent manages")
		listen    = fs.String("listen", "127.0.0.1:7070", "listen address")
		debugAddr = fs.String("debug-addr", "", "serve /metrics, /debug/vars, /debug/trace, /debug/flight and /debug/pprof on this address; also enables telemetry")
		verbose   = fs.Bool("v", false, "structured debug logging to stderr")

		flightSample = fs.Int("flight-sample", 1, "flight recorder: record events for 1-in-N clients (deterministic hash of the client ID)")
		flightCap    = fs.Int("flight-cap", 0, "flight recorder ring capacity (0 = default)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *path == "" {
		return fmt.Errorf("-scenario is required")
	}
	scen, err := cloudalloc.LoadScenario(*path)
	if err != nil {
		return err
	}

	// Telemetry is opt-in: without -debug-addr the set stays nil and every
	// instrumentation site in the agent collapses to a nil check.
	var tel *cloudalloc.Telemetry
	if *debugAddr != "" {
		var logLevel = 0 // slog info
		if *verbose {
			logLevel = -4 // slog debug
		}
		tel = cloudalloc.NewTelemetry(cloudalloc.NewTextLogger(os.Stderr, logLevel))
		cloudalloc.ConfigureFlight(tel, *flightCap, *flightSample)
		dl, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			return fmt.Errorf("debug listener: %w", err)
		}
		go func() {
			if err := http.Serve(dl, cloudalloc.DebugHandler(tel)); err != nil {
				tel.Logger().Error("debug server stopped", "err", err)
			}
		}()
		fmt.Printf("allocd: debug endpoints on http://%s/metrics\n", dl.Addr())
	}

	agent, err := cloudalloc.NewLocalAgent(scen, cloudalloc.ClusterID(*clustID),
		cloudalloc.WithTelemetry(tel))
	if err != nil {
		return err
	}
	l, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	srv := cloudalloc.ServeAgent(l, agent, tel)
	tel.Logger().Info("serving", "cluster", *clustID, "scenario", *path, "addr", srv.Addr().String())
	fmt.Printf("allocd: serving cluster %d of %s on %s\n", *clustID, *path, srv.Addr())
	return srv.Serve()
}
