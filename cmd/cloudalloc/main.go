// Command cloudalloc generates scenarios and runs the profit-maximizing
// resource allocators on them.
//
// Usage:
//
//	cloudalloc gen -out scenario.json [-clients 50] [-seed 1]
//	cloudalloc solve -scenario scenario.json [-method proposed|ps|montecarlo|exhaustive] [-simulate]
//	cloudalloc inspect -scenario scenario.json
//	cloudalloc trace -scenario scenario.json -out trace.csv [-epochs 24]
//	cloudalloc controller -scenario scenario.json -trace trace.csv [-policy threshold:0.2] [-predictor ewma:0.5]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	cloudalloc "repro"
	"repro/internal/model"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "cloudalloc:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: cloudalloc <gen|solve|inspect|trace|controller|replay> [flags]")
	}
	switch args[0] {
	case "gen":
		return runGen(args[1:])
	case "solve":
		return runSolve(args[1:])
	case "inspect":
		return runInspect(args[1:])
	case "trace":
		return runTrace(args[1:])
	case "controller":
		return runController(args[1:])
	case "replay":
		return runReplay(args[1:])
	default:
		return fmt.Errorf("unknown command %q (want gen, solve, inspect, trace, controller or replay)", args[0])
	}
}

func runGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	var (
		out      = fs.String("out", "scenario.json", "output path")
		clients  = fs.Int("clients", 50, "number of clients")
		seed     = fs.Int64("seed", 1, "generator seed")
		clusters = fs.Int("clusters", 5, "number of clusters")
		servers  = fs.Int("servers", 0, "exact servers per cluster (0 keeps the default random range)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := cloudalloc.DefaultWorkloadConfig()
	cfg.NumClients = *clients
	cfg.Seed = *seed
	cfg.NumClusters = *clusters
	if *servers > 0 {
		cfg.MinServersPerCluster = *servers
		cfg.MaxServersPerCluster = *servers
	}
	scen, err := cloudalloc.GenerateScenario(cfg)
	if err != nil {
		return err
	}
	if err := scen.SaveFile(*out); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d clients, %d clusters, %d servers\n",
		*out, scen.NumClients(), scen.Cloud.NumClusters(), scen.Cloud.NumServers())
	return nil
}

func runSolve(args []string) error {
	fs := flag.NewFlagSet("solve", flag.ContinueOnError)
	var (
		path         = fs.String("scenario", "", "scenario JSON path (required)")
		method       = fs.String("method", "proposed", "proposed, ps, montecarlo or exhaustive")
		seed         = fs.Int64("seed", 1, "solver seed")
		parallel     = fs.Bool("parallel", false, "parallel per-cluster evaluation")
		workers      = fs.Int("workers", 0, "fan-out workers for multi-start, Monte-Carlo draws and the PS sweep (0 = GOMAXPROCS, 1 = sequential; results are identical either way)")
		draws        = fs.Int("draws", 200, "Monte-Carlo draws")
		topk         = fs.Int("topk", 0, "proposed: evaluate only the top-k index-ranked clusters per client (0 = exhaustive scan)")
		shards       = fs.Int("shards", 0, "proposed: partition clusters across this many parallel shards (0/1 = unsharded)")
		simulate     = fs.Bool("simulate", false, "validate the result with the discrete-event simulator")
		save         = fs.String("save", "", "write the resulting allocation to this JSON file")
		metrics      = fs.Bool("metrics", false, "collect solver/simulator telemetry and dump it (Prometheus text) to stderr")
		traceOut     = fs.String("trace-out", "", "write the solve's span tree as Chrome trace-event JSON to this file (Perfetto-loadable; implies telemetry)")
		flightOut    = fs.String("flight-out", "", "write the flight recorder's solver decisions as JSON to this file (implies telemetry)")
		flightSample = fs.Int("flight-sample", 1, "record flight events for 1-in-N clients (deterministic hash of the client ID)")
		flightCap    = fs.Int("flight-cap", 0, "flight recorder ring capacity (0 = default)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *path == "" {
		return fmt.Errorf("solve: -scenario is required")
	}
	scen, err := cloudalloc.LoadScenario(*path)
	if err != nil {
		return err
	}
	var tel *cloudalloc.Telemetry
	if *metrics || *traceOut != "" || *flightOut != "" {
		tel = cloudalloc.NewTelemetry(nil)
		cloudalloc.ConfigureFlight(tel, *flightCap, *flightSample)
	}

	var a *cloudalloc.Allocation
	switch *method {
	case "proposed":
		al, err := cloudalloc.NewAllocator(scen, cloudalloc.WithSeed(*seed),
			cloudalloc.WithParallel(*parallel), cloudalloc.WithWorkers(*workers),
			cloudalloc.WithCandidateClusters(*topk), cloudalloc.WithShards(*shards),
			cloudalloc.WithTelemetry(tel))
		if err != nil {
			return err
		}
		var stats cloudalloc.SolveStats
		a, stats, err = al.Solve()
		if err != nil {
			return err
		}
		fmt.Printf("proposed: initial %.2f → final %.2f in %d local-search iters (%s)\n",
			stats.InitialProfit, stats.FinalProfit, stats.LocalSearchIters, stats.Elapsed)
		printAttribution(stats)
	case "ps":
		psCfg := cloudalloc.DefaultPSConfig()
		psCfg.Workers = *workers
		a, err = cloudalloc.SolveModifiedPS(scen, psCfg)
		if err != nil {
			return err
		}
	case "montecarlo":
		cfg := cloudalloc.DefaultMCConfig()
		cfg.Draws = *draws
		cfg.Seed = *seed
		cfg.Workers = *workers
		env, err := cloudalloc.RunMonteCarlo(scen, cfg)
		if err != nil {
			return err
		}
		fmt.Printf("monte carlo over %d draws: best %.2f worst %.2f (initial: best %.2f worst %.2f)\n",
			env.Draws, env.BestOptimized, env.WorstOptimized, env.BestInitial, env.WorstInitial)
		a = env.Best
	case "exhaustive":
		a, err = cloudalloc.SolveExhaustive(scen)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown method %q", *method)
	}

	printBreakdown(a)
	if *save != "" {
		if err := writeFile(*save, a.WriteJSON); err != nil {
			return err
		}
		fmt.Printf("allocation written to %s\n", *save)
	}
	if *simulate {
		cfg := cloudalloc.DefaultSimConfig()
		cfg.Telemetry = tel
		res, err := cloudalloc.Simulate(a, cfg)
		if err != nil {
			return err
		}
		fmt.Printf("simulation: %d requests completed, realized profit %.2f (analytic %.2f)\n",
			res.Completed, res.Profit, res.AnalyticValue)
	}
	if *traceOut != "" {
		if err := writeFile(*traceOut, func(w io.Writer) error {
			return cloudalloc.WriteChromeTrace(w, tel.Tracer.Snapshot())
		}); err != nil {
			return err
		}
		fmt.Printf("trace written to %s (load in Perfetto or chrome://tracing)\n", *traceOut)
	}
	if *flightOut != "" {
		events := tel.Flight.Snapshot()
		if err := writeFile(*flightOut, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(events)
		}); err != nil {
			return err
		}
		fmt.Printf("flight recorder: %d retained events written to %s\n", len(events), *flightOut)
	}
	if *metrics && tel != nil {
		tel.Metrics.WritePrometheus(os.Stderr)
	}
	return nil
}

// writeFile creates path and fills it with write. It returns the first
// error, Close's included: a failed Close can lose what was written.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printAttribution reports where the profit came from, phase by phase:
// the greedy initial solution, then each local-search phase's delta and
// time, and what the candidate index and the reassignment passes counted.
func printAttribution(stats cloudalloc.SolveStats) {
	at, tm := stats.Attribution, stats.Timings
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "phase\tprofit Δ\ttime\n")
	fmt.Fprintf(w, "greedy initial\t%+.2f\t%s\n", at.Initial, tm.Greedy)
	fmt.Fprintf(w, "share adjust\t%+.2f\t%s\n", at.ShareAdjust, tm.ShareAdjust)
	fmt.Fprintf(w, "dispersion adjust\t%+.2f\t%s\n", at.DispersionAdjust, tm.DispersionAdjust)
	fmt.Fprintf(w, "server turn-on\t%+.2f\t%s\n", at.TurnOn, tm.TurnOn)
	fmt.Fprintf(w, "server turn-off\t%+.2f\t%s\n", at.TurnOff, tm.TurnOff)
	fmt.Fprintf(w, "reassignment\t%+.2f\t%s\n", at.Reassign, tm.Reassign)
	if at.Reconcile != 0 || tm.Reconcile != 0 {
		fmt.Fprintf(w, "reconciliation\t%+.2f\t%s\n", at.Reconcile, tm.Reconcile)
	}
	fmt.Fprintf(w, "final\t%.2f\t(residual %+.2g)\n", at.Final, at.Residual())
	w.Flush()
	fmt.Printf("clusters evaluated %d, pruned %d; clients scored %d, skipped %d\n",
		stats.IndexEvaluated, stats.IndexPruned, stats.ReassignScored, stats.ReassignSkipped)
}

func printBreakdown(a *cloudalloc.Allocation) {
	b := a.ProfitBreakdown()
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "profit\t%.2f\n", b.Profit)
	fmt.Fprintf(w, "revenue\t%.2f\n", b.Revenue)
	fmt.Fprintf(w, "energy cost\t%.2f\n", b.EnergyCost)
	fmt.Fprintf(w, "clients assigned\t%d (served %d)\n", b.Assigned, b.Served)
	fmt.Fprintf(w, "active servers\t%d\n", b.ActiveServers)
	w.Flush()
}

func runInspect(args []string) error {
	fs := flag.NewFlagSet("inspect", flag.ContinueOnError)
	path := fs.String("scenario", "", "scenario JSON path (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *path == "" {
		return fmt.Errorf("inspect: -scenario is required")
	}
	scen, err := cloudalloc.LoadScenario(*path)
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "clients\t%d\n", scen.NumClients())
	fmt.Fprintf(w, "clusters\t%d\n", scen.Cloud.NumClusters())
	fmt.Fprintf(w, "servers\t%d\n", scen.Cloud.NumServers())
	fmt.Fprintf(w, "server classes\t%d\n", len(scen.Cloud.ServerClasses))
	fmt.Fprintf(w, "utility classes\t%d\n", len(scen.Cloud.UtilityClasses))
	var load, capacity float64
	for i := range scen.Clients {
		load += scen.Clients[i].PredictedRate * scen.Clients[i].ProcTime
	}
	for j := range scen.Cloud.Servers {
		capacity += scen.Cloud.ServerClass(model.ServerID(j)).ProcCap
	}
	fmt.Fprintf(w, "processing load / capacity\t%.1f / %.1f (%.0f%%)\n",
		load, capacity, 100*load/capacity)
	w.Flush()
	return nil
}

// runReplay loads a saved allocation and simulates it.
func runReplay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	var (
		path      = fs.String("scenario", "", "scenario JSON path (required)")
		allocPath = fs.String("alloc", "", "allocation JSON path (required)")
		horizon   = fs.Float64("horizon", 5000, "simulated time span")
		seed      = fs.Int64("seed", 1, "simulation seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *path == "" || *allocPath == "" {
		return fmt.Errorf("replay: -scenario and -alloc are required")
	}
	scen, err := cloudalloc.LoadScenario(*path)
	if err != nil {
		return err
	}
	f, err := os.Open(*allocPath)
	if err != nil {
		return err
	}
	defer f.Close()
	a, err := cloudalloc.LoadAllocation(scen, f)
	if err != nil {
		return err
	}
	printBreakdown(a)
	cfg := cloudalloc.DefaultSimConfig()
	cfg.Horizon = *horizon
	cfg.Seed = *seed
	res, err := cloudalloc.Simulate(a, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("simulation: %d requests, realized profit %.2f (analytic %.2f)\n",
		res.Completed, res.Profit, res.AnalyticValue)
	return nil
}
