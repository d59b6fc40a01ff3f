// Command benchmark is the repository's one repeatable benchmark: five
// workloads, six end-to-end metrics from an untraced run, and per-layer
// metrics from a separate traced run. See README.md in this directory.
//
//	bash benchmark/run.sh --workload batch_paper --seed 1 --seconds 6 --trace 0
//	bash benchmark/run.sh --workload all --out results/a
//	bash benchmark/run.sh -compare results/a results/b
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/experiment"
)

// setupReps is how often an untraced run sets its workload up; setup_s
// is the median, and the last set-up is the one that is run.
const setupReps = 3

func main() {
	if err := realMain(os.Args[1:], os.Stdout, fullSizes); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// realMain is main with its inputs as arguments; sizesFor maps --seconds
// to the workload sizes (the tests pass smoke sizes).
func realMain(args []string, stdout io.Writer, sizesFor func(secs int) sizes) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "seed of the generated inputs (2 is the hold-out)")
	secs := fs.Int("seconds", refSeconds, "length the timed regions are sized for on the reference host")
	trace := fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	traceOut := fs.String("trace-out", "", "with --trace 1: write the spans here as Chrome trace-event JSON")
	outDir := fs.String("out", "", "directory to write one result file per workload into")
	compare := fs.Bool("compare", false, "compare two directories of result files: -compare A B")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("-compare takes two directories of result files")
		}
		return compareDirs(stdout, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *secs < 1 || *secs > 60 {
		return fmt.Errorf("--seconds %d outside 1..60", *secs)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace %d: want 0 or 1", *trace)
	}

	var todo []workloadSpec
	for _, w := range workloads {
		if *name == "all" || *name == w.Name {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 {
		return fmt.Errorf("unknown workload %q", *name)
	}

	var failed []string
	for _, w := range todo {
		res, err := runWorkload(w, *seed, sizesFor(*secs), *trace == 1)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		res.Context = hostContext(*seed, *secs)
		res.print(stdout)
		if res.tracer != nil && *traceOut != "" {
			if err := writeTrace(res.tracer, tracePath(*traceOut, w.Name, len(todo) > 1)); err != nil {
				return err
			}
		}
		if *outDir != "" {
			if err := res.writeFile(*outDir); err != nil {
				return err
			}
		}
		// The driver's line: always last for the workload.
		line, err := json.Marshal(res.contractLine())
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, string(line))
		if !res.Correct {
			failed = append(failed, w.Name)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("correctness checks failed on %s", strings.Join(failed, ", "))
	}
	return nil
}

// tracePath puts the workload's name into the file name when one command
// traces several workloads.
func tracePath(path, workload string, many bool) string {
	if !many {
		return path
	}
	ext := filepath.Ext(path)
	return strings.TrimSuffix(path, ext) + "." + workload + ext
}

func writeTrace(tr *tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.writeChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// metricValue is a measured value with its unit, as the driver reads it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// hostInfo is the context every result file carries: the repository's
// BenchMeta (Go version, GOMAXPROCS, NumCPU) plus what identifies the run.
type hostInfo struct {
	experiment.BenchMeta
	Commit  string `json:"commit"`
	Seed    int64  `json:"seed"`
	Seconds int    `json:"seconds"`
	Time    string `json:"time"`
}

func hostContext(seed int64, secs int) hostInfo {
	return hostInfo{
		BenchMeta: experiment.NewBenchMeta(),
		Commit:    gitCommit(),
		Seed:      seed,
		Seconds:   secs,
		Time:      time.Now().UTC().Format(time.RFC3339Nano),
	}
}

// gitCommit reads the checked-out commit from the nearest .git directory
// without starting a process; a checkout that is not a repository (the
// driver's) reports "unknown".
func gitCommit() string {
	dir, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	for {
		if head, err := os.ReadFile(filepath.Join(dir, ".git", "HEAD")); err == nil {
			ref := strings.TrimSpace(string(head))
			if !strings.HasPrefix(ref, "ref: ") {
				return ref
			}
			if sha, err := os.ReadFile(filepath.Join(dir, ".git", strings.TrimPrefix(ref, "ref: "))); err == nil {
				return strings.TrimSpace(string(sha))
			}
			return "unknown" // packed ref: not worth a parser
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "unknown"
		}
		dir = parent
	}
}

// result is one workload's run: what is printed, and what a result file
// holds.
type result struct {
	Workload  string                 `json:"workload"`
	Traced    bool                   `json:"traced"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failures  []string               `json:"failures,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Fingerprint folds every output that must repeat exactly at a seed.
	Fingerprint string `json:"fingerprint"`
	// Info is printed and stored but never gated: raw profit, sample
	// counts, what the floors were checked against.
	Info    map[string]float64 `json:"info"`
	Size    sizes              `json:"size"`
	Context hostInfo           `json:"context"`
	// Spans is the traced run's self-time table.
	Spans []layerTime `json:"spans,omitempty"`

	tracer *tracer
}

func (r *result) contractLine() map[string]any {
	return map[string]any{
		"correct":   r.Correct,
		"attempted": r.Attempted,
		"failed":    r.Failed,
		"metrics":   r.Metrics,
	}
}

func (r *result) writeFile(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	kind := "e2e"
	if r.Traced {
		kind = "layers"
	}
	name := fmt.Sprintf("%s.%s.seed%d.%d.json", r.Workload, kind, r.Context.Seed, time.Now().UnixNano())
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}

func (r *result) print(w io.Writer) {
	kind, specs := "untraced, end-to-end", endToEnd
	if r.Traced {
		kind, specs = "traced, per-layer", perLayer
	}
	fmt.Fprintf(w, "== %s (%s) seed %d, %s, GOMAXPROCS %d of %d CPUs, commit %s\n",
		r.Workload, kind, r.Context.Seed, r.Context.GoVersion, r.Context.GoMaxProcs, r.Context.NumCPU, r.Context.Commit)
	for _, m := range specs {
		v := r.Metrics[m.Name]
		fmt.Fprintf(w, "%-32s %16.6g %-9s", m.Name, v.Value, v.Unit)
		if !r.Traced {
			fmt.Fprintf(w, " (%s is better, bound %g%%)", m.Better, m.Bound*100)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-32s %16d\n%-32s %16d\n%-32s %16s\n", "attempted", r.Attempted, "failed", r.Failed, "fingerprint", r.Fingerprint)
	for _, k := range sortedKeys(r.Info) {
		fmt.Fprintf(w, "%-32s %16.10g (info)\n", k, r.Info[k])
	}
	for _, why := range r.Failures {
		fmt.Fprintf(w, "FAILED: %s\n", why)
	}
	if len(r.Spans) > 0 {
		fmt.Fprintf(w, "%-32s %10s %14s %14s\n", "span", "calls", "total_s", "self_s")
		for _, lt := range r.Spans {
			fmt.Fprintf(w, "%-32s %10d %14.6f %14.6f\n", lt.Name, lt.Calls, lt.Total.Seconds(), lt.Self.Seconds())
		}
	}
}

// runWorkload sets the workload up, runs its timed region untraced, and
// reports either the end-to-end metrics of that region or, for a traced
// result, the per-layer metrics of a second, traced region.
func runWorkload(w workloadSpec, seed int64, sz sizes, traced bool) (*result, error) {
	e := newEnv(seed, sz)
	e.traced = traced
	reps := setupReps
	if traced {
		reps = 1 // the untraced region is only trace.overhead_frac's base
	}
	o, setups, err := setupAndRun(e, w, reps)
	if err != nil {
		return nil, err
	}
	res := &result{Workload: w.Name, Traced: traced, Size: sz, Metrics: make(map[string]metricValue), Info: make(map[string]float64)}
	if traced {
		err = res.fillPerLayer(e, w, o)
	} else {
		err = res.fillEndToEnd(o, median(setups))
	}
	if err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// adopt copies the outcome's counts and ungated figures into the result.
func (r *result) adopt(o *outcome) {
	r.Attempted, r.Failed, r.Failures = o.attempted, o.failed, o.failures
	r.Info["profit"] = o.profit
	r.Info["stall_samples"] = float64(len(o.stalls))
	r.Fingerprint = fmt.Sprintf("%016x", o.fingerprint)
}

// fillEndToEnd reports the untraced region, unless it was too short to
// be repeatable.
func (r *result) fillEndToEnd(o *outcome, setupS float64) error {
	r.adopt(o)
	if r.Size.Full && o.failed == 0 {
		if o.reg.RunS < minRunS {
			return fmt.Errorf("timed region lasted %.3f s, under the %.1f s floor: too short to repeat, not reported", o.reg.RunS, minRunS)
		}
		if setupS < minSetupS {
			return fmt.Errorf("set-up took %.3f s, under the %.1f s floor: too short to repeat, not reported", setupS, minSetupS)
		}
	}
	vals := map[string]float64{
		"setup_s":     setupS,
		"run_s":       o.reg.RunS,
		"stall_p50_s": median(o.stalls),
		"alloc_mb":    o.reg.AllocMB,
		"profit_frac": o.profit / o.ceiling,
		"placed_frac": float64(o.placed) / float64(o.present),
	}
	for _, m := range endToEnd {
		r.Metrics[m.Name] = metricValue{vals[m.Name], m.Unit}
	}
	return nil
}

// fillPerLayer sets the workload up again, runs its region with the
// tracer on and probes the layers. base is the untraced region that ran
// before: the traced one must reproduce its outputs bit for bit.
func (r *result) fillPerLayer(e *env, w workloadSpec, base *outcome) error {
	clear(e.layer)
	in, err := w.setup(e)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	defer in.close()
	r.tracer = newTracer()
	e.tr = r.tracer
	o, err := in.run(e)
	e.tr = nil
	if err != nil {
		return err
	}
	r.adopt(o)
	if o.fingerprint != base.fingerprint {
		r.Failed++
		r.Failures = append(r.Failures, "the traced run's outputs differ from the untraced run's: the workload is not deterministic")
	}
	var roots time.Duration
	r.Spans, roots = r.tracer.selfTimes()
	r.Info["run_s_traced"] = o.reg.RunS
	r.Info["run_s_untraced"] = base.reg.RunS
	r.Info["root_spans_s"] = roots.Seconds()

	vals := e.layer
	for k, v := range o.layer {
		vals[k] = v
	}
	vals["trace.overhead_frac"] = o.reg.RunS/base.reg.RunS - 1
	vals["runtime.cpu_s"] = o.reg.CPUS
	vals["runtime.cpu_over_wall"] = o.reg.CPUS / o.reg.SpanS
	vals["runtime.gc_cycles"] = o.reg.GCCycles
	vals["runtime.gc_pause_ms"] = o.reg.GCPauseMS
	vals["runtime.mallocs_k"] = o.reg.MallocsK
	vals["runtime.peak_heap_mb"] = o.reg.PeakHeapMB
	if r.Failed == 0 {
		if err := probeLayers(o, vals); err != nil {
			return fmt.Errorf("layer probes: %w", err)
		}
		if p, ok := in.(prober); ok {
			if err := p.probe(e, o, vals); err != nil {
				return fmt.Errorf("layer probes: %w", err)
			}
		}
	}
	// A layer the workload does not touch reads 0.
	for _, m := range perLayer {
		r.Metrics[m.Name] = metricValue{vals[m.Name], m.Unit}
	}
	return nil
}

// setupAndRun sets the workload up reps times, keeping each set-up's wall
// time, and runs the last instance's timed region untraced.
func setupAndRun(e *env, w workloadSpec, reps int) (*outcome, []float64, error) {
	var in instance
	setups := make([]float64, 0, reps)
	for rep := 0; rep < reps; rep++ {
		if in != nil {
			in.close()
		}
		clear(e.layer)
		t0 := time.Now()
		var err error
		if in, err = w.setup(e); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer in.close()
	o, err := in.run(e)
	return o, setups, err
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
