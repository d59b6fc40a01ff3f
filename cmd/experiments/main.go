// Command experiments regenerates every table and figure of the paper's
// evaluation, one experiment.Artefacts entry each (EXPERIMENTS.md Index).
//
// Usage:
//
//	experiments -run fig4|fig5|complexity|sim|ablation|epochs|predictors|scale|all [-quick] [-seed 1]
//
// Without -quick each artefact runs at the size EXPERIMENTS.md records
// (for the sweep: 20 scenarios per client count, 5 at 200 clients, 600
// Monte-Carlo draws) and -run all takes several minutes; -quick runs
// reduced sizes in about a minute.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiment"
	"repro/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		which    = fs.String("run", "all", "fig4, fig5, complexity, sim, ablation, epochs, predictors, scale or all")
		scaleOut = fs.String("scale-out", "BENCH_scale.json", "output path for the scale benchmark record (empty = don't write)")
		scaleMax = fs.Int("scale-max", 0, "cap the scale ladder's client counts (0 = full 1k..1M ladder)")
		quick    = fs.Bool("quick", false, "reduced sizes")
		seed     = fs.Int64("seed", 1, "base seed")
		metrics  = fs.Bool("metrics", false, "collect solver and controller telemetry across the run and dump it (Prometheus text) to stderr")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var artefacts []experiment.Artefact
	switch *which {
	case "scale":
		return runScale(*quick, *seed, *scaleOut, *scaleMax)
	case "all":
		artefacts = experiment.Artefacts
	default:
		for _, a := range experiment.Artefacts {
			if a.Name == *which {
				artefacts = append(artefacts, a)
			}
		}
		if len(artefacts) == 0 {
			return fmt.Errorf("unknown experiment %q", *which)
		}
	}
	var tel *telemetry.Set
	if *metrics {
		tel = telemetry.New(nil)
		defer tel.Metrics.WritePrometheus(os.Stderr)
	}
	r := experiment.NewRunner(os.Stdout, *quick, *seed, tel)
	for _, a := range artefacts {
		if err := r.Run(a); err != nil {
			return err
		}
	}
	return nil
}

// runScale is deliberately not part of -run all: the full ladder ends at
// a 1M-client instance and takes minutes even in scale mode.
func runScale(quick bool, seed int64, out string, maxClients int) error {
	cfg := experiment.DefaultScaleExpConfig()
	cfg.BaseSeed = seed
	if quick {
		cfg.ClientCounts = []int{1_000, 10_000}
	}
	if maxClients > 0 {
		var counts []int
		for _, n := range cfg.ClientCounts {
			if n <= maxClients {
				counts = append(counts, n)
			}
		}
		cfg.ClientCounts = counts
	}
	rep, err := experiment.RunScale(cfg, os.Stderr)
	if err != nil {
		return err
	}
	fmt.Println(experiment.ScaleTable(rep))
	if out == "" {
		return nil
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := experiment.WriteScaleJSON(f, rep); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	return f.Close()
}
