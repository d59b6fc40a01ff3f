// Command allocctl is the central resource manager of the paper's
// distributed solver: it connects to one allocd agent per cluster and
// coordinates the initial greedy solution and the improvement rounds.
//
// Usage:
//
//	allocctl -scenario scenario.json -agents 127.0.0.1:7070,127.0.0.1:7071,...
//
// The agent list must be ordered by cluster index and cover every
// cluster of the scenario.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"

	cloudalloc "repro"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "allocctl:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("allocctl", flag.ContinueOnError)
	var (
		path    = fs.String("scenario", "", "scenario JSON path (required)")
		addrs   = fs.String("agents", "", "comma-separated agent addresses, one per cluster, in cluster order")
		seed    = fs.Int64("seed", 1, "manager seed")
		metrics = fs.Bool("metrics", false, "after the solve, dump manager and client-side RPC metrics (Prometheus text) to stderr")

		rpcTimeout  = fs.Duration("rpc-timeout", cloudalloc.DefaultAgentCallPolicy().Timeout, "per-attempt RPC deadline (0 disables)")
		rpcAttempts = fs.Int("rpc-attempts", cloudalloc.DefaultAgentCallPolicy().MaxAttempts, "max attempts per RPC (transport failures retry on a fresh connection)")
		hedge       = fs.Duration("hedge", 0, "hedge read-only RPCs on a second connection after this delay (0 disables)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *path == "" || *addrs == "" {
		return fmt.Errorf("-scenario and -agents are required")
	}
	scen, err := cloudalloc.LoadScenario(*path)
	if err != nil {
		return err
	}
	var tel *cloudalloc.Telemetry
	if *metrics {
		tel = cloudalloc.NewTelemetry(nil)
	}
	pol := cloudalloc.DefaultAgentCallPolicy()
	pol.Timeout = *rpcTimeout
	pol.MaxAttempts = *rpcAttempts
	pol.HedgeDelay = *hedge
	pol.Seed = *seed
	var agents []cloudalloc.Agent
	for _, addr := range strings.Split(*addrs, ",") {
		ag, err := cloudalloc.DialAgent(strings.TrimSpace(addr), pol, tel)
		if err != nil {
			return err
		}
		agents = append(agents, ag)
	}
	cfg := cloudalloc.DefaultManagerConfig()
	cfg.Seed = *seed
	cfg.Telemetry = tel
	mgr, err := cloudalloc.NewManager(scen, agents, cfg)
	if err != nil {
		return err
	}
	defer mgr.Close()

	a, stats, err := mgr.Solve()
	if err != nil {
		return err
	}
	b := a.ProfitBreakdown()
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "initial profit\t%.2f\n", stats.InitialProfit)
	fmt.Fprintf(w, "final profit\t%.2f\n", stats.FinalProfit)
	fmt.Fprintf(w, "improve rounds Δ\t%+.2f\n", stats.Attribution.Improve)
	fmt.Fprintf(w, "central reassign Δ\t%+.2f\n", stats.Attribution.CentralReassign)
	fmt.Fprintf(w, "improve rounds\t%d\n", stats.ImproveRounds)
	fmt.Fprintf(w, "activations / deactivations\t%d / %d\n", stats.Activations, stats.Deactivations)
	fmt.Fprintf(w, "clients assigned\t%d of %d\n", b.Assigned, scen.NumClients())
	fmt.Fprintf(w, "active servers\t%d\n", b.ActiveServers)
	fmt.Fprintf(w, "initial pass\t%s\n", stats.InitElapsed)
	for i, d := range stats.RoundDurations {
		fmt.Fprintf(w, "round %d\t%s\n", i+1, d)
	}
	fmt.Fprintf(w, "elapsed\t%s\n", stats.Elapsed)
	w.Flush()
	if tel != nil {
		tel.Metrics.WritePrometheus(os.Stderr)
	}
	return nil
}
