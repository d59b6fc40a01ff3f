package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// quickProbes shrinks the per-call probes' blocks for the tests, which
// check that every probe runs and reports, not what it measures.
func quickProbes(t *testing.T) {
	t.Helper()
	old := blockTime
	blockTime = 200 * time.Microsecond
	t.Cleanup(func() { blockTime = old })
}

// TestSmokeDeterministic runs every workload twice at about 1/50 size
// with the same seed: every check must pass, and everything that is not
// a time must repeat exactly — profit, placement, counts, the online
// decision stream and the agent call counts (all folded into the
// fingerprint, and compared here by name as well).
func TestSmokeDeterministic(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			var outs [2]*outcome
			for i := range outs {
				o, setups, err := setupAndRun(newEnv(1, smokeSizes()), w, 1)
				if err != nil {
					t.Fatal(err)
				}
				if o.failed != 0 {
					t.Fatalf("run %d: %d of %d operations failed: %v", i, o.failed, o.attempted, o.failures)
				}
				if len(setups) != 1 || setups[0] <= 0 || o.reg.RunS <= 0 || len(o.stalls) == 0 {
					t.Fatalf("run %d: missing timings: setups %v, run_s %v, %d stalls", i, setups, o.reg.RunS, len(o.stalls))
				}
				if o.ceiling <= 0 || o.present <= 0 || o.placed <= 0 || o.profit <= 0 {
					t.Fatalf("run %d: degenerate outcome: profit %v of ceiling %v, placed %d of %d", i, o.profit, o.ceiling, o.placed, o.present)
				}
				outs[i] = o
			}
			a, b := outs[0], outs[1]
			if a.profit != b.profit || a.placed != b.placed || a.present != b.present || a.attempted != b.attempted {
				t.Errorf("same seed, different outcome: profit %v/%v placed %d/%d present %d/%d attempted %d/%d",
					a.profit, b.profit, a.placed, b.placed, a.present, b.present, a.attempted, b.attempted)
			}
			if a.fingerprint != b.fingerprint {
				t.Errorf("same seed, different fingerprint: %x vs %x", a.fingerprint, b.fingerprint)
			}
			for name, v := range a.layer {
				if strings.HasPrefix(name, "cluster.calls_") || name == "online.commit_count" || name == "online.reject_count" {
					if b.layer[name] != v {
						t.Errorf("%s: %v then %v", name, v, b.layer[name])
					}
				}
			}
			if w.Name == "dist_tcp" && a.layer["cluster.calls_evaluate"] == 0 {
				t.Error("the agent decorator counted no Evaluate call")
			}
		})
	}
}

// TestSeedChangesInputs guards the other half of the seed contract: a
// different seed must give a different instance.
func TestSeedChangesInputs(t *testing.T) {
	w := workloads[0]
	o1, _, err := setupAndRun(newEnv(1, smokeSizes()), w, 1)
	if err != nil {
		t.Fatal(err)
	}
	o2, _, err := setupAndRun(newEnv(2, smokeSizes()), w, 1)
	if err != nil {
		t.Fatal(err)
	}
	if o1.fingerprint == o2.fingerprint {
		t.Error("seeds 1 and 2 produced the same outputs")
	}
}

// TestSmokeTraced makes the traced run of every workload: it must print
// every per-layer metric, its root spans must account for the traced
// region within 5%, and the spans must serialize to loadable trace JSON.
func TestSmokeTraced(t *testing.T) {
	quickProbes(t)
	// What each workload must have measured itself, beyond the probes
	// every workload shares.
	own := map[string][]string{
		"batch_paper":   {"core.sweep_s", "core.ls_iters"},
		"batch_sharded": {"core.reconcile_s", "core.w1_s", "core.speedup_wmax"},
		"online_commit": {"online.commit_count", "online.stall_p90_s", "online.decide_ns_p50", "online.retention"},
		"online_decide": {"online.flush_s", "online.decide_batch_ns", "online.churn_next_ns"},
		"dist_tcp":      {"cluster.calls_evaluate", "cluster.solve_local_s", "agentrpc.evaluate_rtt_ns", "agentrpc.wire_mb", "agentrpc.dial_ns"},
	}
	shared := []string{"workload.generate_s", "opt.waterfill_ns", "alloc.clone_ns", "alloc.topk_ns", "core.greedy_s", "core.assign_distribute_ns", "core.warm_solve_s", "parallel.for_overhead_ns", "runtime.cpu_s", "runtime.peak_heap_mb"}
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			res, err := runWorkload(w, 1, smokeSizes(), true)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatalf("traced run incorrect: %v", res.Failures)
			}
			if len(res.Metrics) != len(perLayer) {
				t.Errorf("%d metrics printed, %d per-layer metrics specified", len(res.Metrics), len(perLayer))
			}
			for _, m := range perLayer {
				v, ok := res.Metrics[m.Name]
				if !ok || v.Unit != m.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s: printed %+v (present %v), want a finite value in %s", m.Name, v, ok, m.Unit)
				}
			}
			for _, name := range append(shared, own[w.Name]...) {
				if res.Metrics[name].Value <= 0 {
					t.Errorf("%s = %v, want > 0 on %s", name, res.Metrics[name].Value, w.Name)
				}
			}
			if _, ok := res.Metrics["run_s"]; ok {
				t.Error("a traced result carries an end-to-end metric")
			}
			roots, runS := res.Info["root_spans_s"], res.Info["run_s_traced"]
			if math.Abs(roots-runS) > 0.05*runS {
				t.Errorf("root spans cover %.6f s of a %.6f s traced region", roots, runS)
			}
			if len(res.Spans) == 0 {
				t.Error("no span table")
			}

			var buf bytes.Buffer
			if err := res.tracer.writeChrome(&buf); err != nil {
				t.Fatal(err)
			}
			var doc struct {
				TraceEvents []struct {
					Name string  `json:"name"`
					Ph   string  `json:"ph"`
					Dur  float64 `json:"dur"`
				} `json:"traceEvents"`
			}
			if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
				t.Fatalf("trace is not JSON: %v", err)
			}
			if len(doc.TraceEvents) == 0 || len(doc.TraceEvents) != len(res.tracer.spans) {
				t.Errorf("%d trace events for %d spans", len(doc.TraceEvents), len(res.tracer.spans))
			}
			for _, ev := range doc.TraceEvents {
				if ev.Ph != "X" || ev.Name == "" || ev.Dur < 0 {
					t.Fatalf("malformed trace event %+v", ev)
				}
			}
		})
	}
}

// TestCommandOutput drives the command the way the driver does and
// checks the contract of its last line, in both modes, and the result
// files' context.
func TestCommandOutput(t *testing.T) {
	quickProbes(t)
	dir := t.TempDir()
	for _, tc := range []struct {
		trace string
		specs []metricSpec
	}{{"0", endToEnd}, {"1", perLayer}} {
		var out bytes.Buffer
		args := []string{"--workload", "online_commit", "--seed", "3", "--seconds", "6", "--trace", tc.trace,
			"--out", dir, "--trace-out", filepath.Join(dir, "trace.json")}
		if err := realMain(args, &out, func(int) sizes { return smokeSizes() }); err != nil {
			t.Fatalf("--trace %s: %v\n%s", tc.trace, err, out.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var last struct {
			Correct   *bool                  `json:"correct"`
			Attempted *int                   `json:"attempted"`
			Failed    *int                   `json:"failed"`
			Metrics   map[string]metricValue `json:"metrics"`
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&last); err != nil {
			t.Fatalf("--trace %s: last line is not the contract's object: %v\n%s", tc.trace, err, lines[len(lines)-1])
		}
		if last.Correct == nil || !*last.Correct || last.Attempted == nil || *last.Attempted < 1 || last.Failed == nil || *last.Failed != 0 {
			t.Errorf("--trace %s: correct/attempted/failed wrong in %s", tc.trace, lines[len(lines)-1])
		}
		if len(last.Metrics) != len(tc.specs) {
			t.Errorf("--trace %s: %d metrics on the last line, want %d", tc.trace, len(last.Metrics), len(tc.specs))
		}
		for _, m := range tc.specs {
			if v, ok := last.Metrics[m.Name]; !ok || v.Unit != m.Unit {
				t.Errorf("--trace %s: metric %s: got %+v (present %v), want unit %s", tc.trace, m.Name, v, ok, m.Unit)
			}
			if !strings.Contains(out.String(), m.Name) {
				t.Errorf("--trace %s: %s is not printed by name", tc.trace, m.Name)
			}
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "trace.json")); err != nil {
		t.Errorf("no Chrome trace written: %v", err)
	}

	files, err := filepath.Glob(filepath.Join(dir, "online_commit.*.json"))
	if err != nil || len(files) != 2 {
		t.Fatalf("want an e2e and a layers result file, got %v (%v)", files, err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		c := r.Context
		if c.Commit == "" || c.GoVersion == "" || c.GoMaxProcs < 1 || c.NumCPU < 1 || c.Seed != 3 || c.Seconds != 6 {
			t.Errorf("%s: incomplete context %+v", f, c)
		}
		if r.Size.CommitEvents != smokeSizes().CommitEvents || r.Info["stall_samples"] < 1 {
			t.Errorf("%s: sizes %+v or stall sample count %v missing", f, r.Size, r.Info["stall_samples"])
		}
	}
}

// TestRefusesShortRegion: at full size a region under the floor is too
// short to repeat and must not be reported.
func TestRefusesShortRegion(t *testing.T) {
	sz := smokeSizes()
	sz.Full = true
	_, err := runWorkload(workloads[0], 1, sz, false)
	if err == nil || !strings.Contains(err.Error(), "floor") {
		t.Fatalf("a %d-instance region at full size was reported: err = %v", sz.PaperInstances, err)
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--trace", "2"},
		{"--seconds", "0"},
		{"-compare", "only-one"},
		{"stray"},
	} {
		if err := realMain(args, &bytes.Buffer{}, fullSizes); err == nil {
			t.Errorf("%v: accepted", args)
		}
	}
}

func TestFullSizesScale(t *testing.T) {
	ref, half := fullSizes(refSeconds), fullSizes(refSeconds/2)
	if !ref.Full || half.Full {
		t.Errorf("Full: %v at %d s, %v at %d s", ref.Full, refSeconds, half.Full, refSeconds/2)
	}
	if half.PaperInstances*2 != ref.PaperInstances || half.DecideEvents*2 != ref.DecideEvents || half.PaperClients != ref.PaperClients {
		t.Errorf("half the seconds: %+v against %+v", half, ref)
	}
}

func TestSelfTimeIsSpanMinusUnionOfChildren(t *testing.T) {
	ms := time.Millisecond
	tr := &tracer{spans: []span{
		{Name: "root", Start: 0, End: 100 * ms, Parent: -1, Op: 1},
		{Name: "rpc", Start: 10 * ms, End: 50 * ms, Parent: 0, Op: 1},
		{Name: "rpc", Start: 30 * ms, End: 70 * ms, Parent: 0, Op: 1}, // overlaps the first
		{Name: "rpc", Start: 80 * ms, End: 90 * ms, Parent: 0, Op: 1},
		{Name: "root", Start: 100 * ms, End: 120 * ms, Parent: -1, Op: 2},
	}}
	layers, roots := tr.selfTimes()
	if roots != 120*ms {
		t.Errorf("roots = %v, want 120ms", roots)
	}
	got := map[string]layerTime{}
	for _, lt := range layers {
		got[lt.Name] = lt
	}
	if r := got["root"]; r.Calls != 2 || r.Total != 120*ms || r.Self != 50*ms {
		t.Errorf("root: %+v, want 2 calls, 120ms total, 50ms self (children cover 10–70 and 80–90)", r)
	}
	if r := got["rpc"]; r.Calls != 3 || r.Total != 90*ms || r.Self != 90*ms {
		t.Errorf("rpc: %+v, want 3 calls, 90ms total and self", r)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1.0, 2.0, 4.0, 7.0, 11.0], n=4) == [1.5, 4.0, 9.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 7, 11})
	if q1 != 1.5 || q2 != 4 || q3 != 9 {
		t.Errorf("quartiles of 1,2,4,7,11 = %v %v %v", q1, q2, q3)
	}
}

// TestCompare: two sets of runs of the same code agree; a set whose run_s
// moved by more than its bound, or whose attempted count changed, does not.
func TestCompare(t *testing.T) {
	write := func(dir string, runS []float64, attempted int) {
		t.Helper()
		for i, v := range runS {
			for _, w := range workloads {
				r := result{Workload: w.Name, Correct: true, Attempted: attempted, Metrics: map[string]metricValue{}}
				for _, m := range endToEnd {
					r.Metrics[m.Name] = metricValue{1, m.Unit}
				}
				r.Metrics["run_s"] = metricValue{v, "s"}
				r.Context.Seed = int64(i)
				if err := r.writeFile(dir); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	base := []float64{5.0, 5.2, 5.1, 4.9, 5.3, 5.0, 5.1, 4.8, 5.2, 5.0}
	a, b, slow, other := t.TempDir(), t.TempDir(), t.TempDir(), t.TempDir()
	write(a, base, 60)
	write(b, base[1:], 60)
	var bound float64
	for _, m := range endToEnd {
		if m.Name == "run_s" {
			bound = m.Bound
		}
	}
	slower := make([]float64, len(base))
	for i, v := range base {
		slower[i] = v * (1 + 1.5*bound)
	}
	write(slow, slower, 60)
	write(other, base, 61)

	var out bytes.Buffer
	if err := compareDirs(&out, a, b); err != nil {
		t.Errorf("same code: %v\n%s", err, out.String())
	}
	for _, m := range endToEnd {
		if !strings.Contains(out.String(), m.Name) {
			t.Errorf("compare does not print %s", m.Name)
		}
	}
	out.Reset()
	if err := compareDirs(&out, a, slow); err == nil || !strings.Contains(out.String(), "run_s") {
		t.Errorf("run_s %.0f%% slower passed: %v\n%s", 150*bound, err, out.String())
	}
	if err := compareDirs(&bytes.Buffer{}, a, other); err == nil {
		t.Error("a changed attempted count passed")
	}
	if err := compareDirs(&bytes.Buffer{}, a, t.TempDir()); err == nil {
		t.Error("an empty directory passed")
	}
}

// brokenInstance is a workload whose one operation fails its check.
type brokenInstance struct{}

func (brokenInstance) close() {}

func (brokenInstance) run(e *env) (*outcome, error) {
	r := beginRegion(false)
	r.time(func() { time.Sleep(time.Millisecond) })
	o := &outcome{reg: r.end(), attempted: 1, stalls: []float64{0.001}, profit: 1, ceiling: 2, placed: 1, present: 1}
	o.failOp("ledger profit 1 != recomputed 2")
	return o, nil
}

// TestFailedCheckIsReported: a failed correctness check must reach the
// result as correct=false with its count and reason.
func TestFailedCheckIsReported(t *testing.T) {
	w := workloadSpec{Name: "broken", setup: func(*env) (instance, error) { return brokenInstance{}, nil }}
	res, err := runWorkload(w, 1, smokeSizes(), false)
	if err != nil {
		t.Fatal(err)
	}
	line := res.contractLine()
	if res.Correct || line["correct"] != false || line["failed"] != 1 || line["attempted"] != 1 || len(res.Failures) != 1 {
		t.Errorf("failed check not reported: %+v", line)
	}
}
