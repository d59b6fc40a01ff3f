package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"

	cloudalloc "repro"
)

// runTrace generates a per-epoch rate trace CSV for a scenario.
func runTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	var (
		path    = fs.String("scenario", "", "scenario JSON path (required)")
		out     = fs.String("out", "trace.csv", "output CSV path")
		epochs  = fs.Int("epochs", 24, "number of epochs")
		diurnal = fs.Float64("diurnal", 0.4, "diurnal amplitude (0 disables)")
		flashAt = fs.Int("flash-at", -1, "epoch a flash crowd starts (-1 disables)")
		boost   = fs.Float64("flash-boost", 2.5, "flash crowd rate multiplier")
		noise   = fs.Float64("noise", 0.05, "lognormal noise sigma")
		seed    = fs.Int64("seed", 1, "trace seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *path == "" {
		return fmt.Errorf("trace: -scenario is required")
	}
	scen, err := cloudalloc.LoadScenario(*path)
	if err != nil {
		return err
	}
	base := make([]float64, scen.NumClients())
	for i := range base {
		base[i] = scen.Clients[i].ArrivalRate
	}
	var patterns []cloudalloc.Pattern
	if *diurnal > 0 {
		patterns = append(patterns, cloudalloc.Diurnal{Period: *epochs, Amplitude: *diurnal, Phase: 0.1})
	}
	if *flashAt >= 0 {
		patterns = append(patterns, cloudalloc.FlashCrowd{At: *flashAt, Duration: 2, Boost: *boost, Every: 4})
	}
	tr, err := cloudalloc.GenerateTrace(base, *epochs, patterns, *noise, *seed)
	if err != nil {
		return err
	}
	if err := writeFile(*out, tr.WriteCSV); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d epochs × %d clients\n", *out, *epochs, scen.NumClients())
	return nil
}

// runController replays a trace against a decision policy.
func runController(args []string) error {
	fs := flag.NewFlagSet("controller", flag.ContinueOnError)
	var (
		path      = fs.String("scenario", "", "scenario JSON path (required)")
		tracePath = fs.String("trace", "", "trace CSV path (required)")
		policyArg = fs.String("policy", "threshold:0.2", "always, never, threshold:<rel>, periodic:<n>")
		predArg   = fs.String("predictor", "", "'' (oracle), last, ewma:<alpha>, holt:<alpha>,<beta>, mean:<window>")
		metrics   = fs.Bool("metrics", false, "collect controller/solver telemetry and dump it (Prometheus text) to stderr")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *path == "" || *tracePath == "" {
		return fmt.Errorf("controller: -scenario and -trace are required")
	}
	scen, err := cloudalloc.LoadScenario(*path)
	if err != nil {
		return err
	}
	f, err := os.Open(*tracePath)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := cloudalloc.ReadTraceCSV(f)
	if err != nil {
		return err
	}

	cfg := cloudalloc.DefaultControllerConfig()
	cfg.Policy, err = parsePolicy(*policyArg)
	if err != nil {
		return err
	}
	cfg.Predictor, err = parsePredictor(*predArg)
	if err != nil {
		return err
	}
	var tel *cloudalloc.Telemetry
	if *metrics {
		tel = cloudalloc.NewTelemetry(nil)
		cfg.Telemetry = tel
	}

	sum, err := cloudalloc.RunController(scen, tr, cfg)
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "epoch\tdrift\tre-decided\trealized profit\tsaturated\tsolve time")
	for _, st := range sum.Steps {
		fmt.Fprintf(w, "%d\t%.2f\t%v\t%.2f\t%d\t%s\n",
			st.Epoch, st.Drift, st.Resolved, st.RealizedProfit, st.SaturatedClients, st.SolveTime.Round(1e6))
	}
	fmt.Fprintf(w, "total\t\t%d decisions\t%.2f\t\t%s\n",
		sum.Decisions, sum.TotalProfit, sum.TotalSolveTime.Round(1e6))
	w.Flush()
	if tel != nil {
		tel.Metrics.WritePrometheus(os.Stderr)
	}
	return nil
}

// parsePolicy understands always, never, threshold:<rel>, periodic:<n>.
func parsePolicy(s string) (cloudalloc.Policy, error) {
	name, arg, _ := strings.Cut(s, ":")
	switch name {
	case "always":
		return cloudalloc.AlwaysPolicy{}, nil
	case "never":
		return cloudalloc.NeverPolicy{}, nil
	case "threshold":
		rel, err := strconv.ParseFloat(arg, 64)
		if err != nil || !(rel > 0) {
			return nil, fmt.Errorf("controller: bad threshold %q", arg)
		}
		return cloudalloc.ThresholdPolicy{RelChange: rel}, nil
	case "periodic":
		n, err := strconv.Atoi(arg)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("controller: bad period %q", arg)
		}
		return &cloudalloc.PeriodicPolicy{Every: n}, nil
	default:
		return nil, fmt.Errorf("controller: unknown policy %q", s)
	}
}

// parsePredictor understands ”, last, ewma:<alpha>, holt:<a>,<b>,
// mean:<window>.
func parsePredictor(s string) (cloudalloc.Predictor, error) {
	if s == "" {
		return nil, nil
	}
	name, arg, _ := strings.Cut(s, ":")
	switch name {
	case "last":
		return cloudalloc.NewLastValuePredictor(), nil
	case "ewma":
		alpha, err := strconv.ParseFloat(arg, 64)
		if err != nil {
			return nil, fmt.Errorf("controller: bad ewma alpha %q", arg)
		}
		return cloudalloc.NewEWMAPredictor(alpha)
	case "holt":
		a, b, ok := strings.Cut(arg, ",")
		if !ok {
			return nil, fmt.Errorf("controller: holt needs alpha,beta")
		}
		alpha, err1 := strconv.ParseFloat(a, 64)
		beta, err2 := strconv.ParseFloat(b, 64)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("controller: bad holt gains %q", arg)
		}
		return cloudalloc.NewHoltPredictor(alpha, beta)
	case "mean":
		w, err := strconv.Atoi(arg)
		if err != nil {
			return nil, fmt.Errorf("controller: bad window %q", arg)
		}
		return cloudalloc.NewSlidingMeanPredictor(w)
	default:
		return nil, fmt.Errorf("controller: unknown predictor %q", s)
	}
}
