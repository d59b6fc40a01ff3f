package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// quartiles returns the first, second and third quartile by the method of
// Python's statistics.quantiles(xs, n=4) — the one the driver applies —
// so a spread printed here is the spread the driver will compute.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		j = min(max(j, 1), n-1)
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// sideStats is one directory's runs of one workload's metric.
type sideStats struct {
	n          int
	q1, q2, q3 float64
}

func (s sideStats) spread() float64 {
	if s.q2 == 0 {
		return 0
	}
	return (s.q3 - s.q1) / math.Abs(s.q2)
}

// loadRuns reads every untraced result file of a directory and returns,
// per workload, each end-to-end metric's values over the runs, plus the
// attempted and failed counts as pseudo-metrics.
func loadRuns(dir string) (map[string]map[string][]float64, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	runs := make(map[string]map[string][]float64)
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if r.Traced {
			continue
		}
		m := runs[r.Workload]
		if m == nil {
			m = make(map[string][]float64)
			runs[r.Workload] = m
		}
		for name, v := range r.Metrics {
			m[name] = append(m[name], v.Value)
		}
		m["attempted"] = append(m["attempted"], float64(r.Attempted))
		m["failed"] = append(m["failed"], float64(r.Failed))
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no untraced result files", dir)
	}
	return runs, nil
}

// compareDirs prints, per workload and end-to-end metric, each side's
// median, quartiles and spread, and whether the two medians agree within
// the metric's bound. It fails when any pair disagrees, when the
// attempted counts differ, or when any run had failures.
func compareDirs(w io.Writer, dirA, dirB string) error {
	a, err := loadRuns(dirA)
	if err != nil {
		return err
	}
	b, err := loadRuns(dirB)
	if err != nil {
		return err
	}
	stats := func(xs []float64) sideStats {
		q1, q2, q3 := quartiles(xs)
		return sideStats{len(xs), q1, q2, q3}
	}
	var bad []string
	fmt.Fprintf(w, "%-14s %-12s %3s %12s %12s %12s %7s | %3s %12s %12s %12s %7s | %8s %6s\n",
		"workload", "metric", "nA", "q1", "median", "q3", "spread", "nB", "q1", "median", "q3", "spread", "delta", "bound")
	for _, wl := range workloads {
		ma, mb := a[wl.Name], b[wl.Name]
		if ma == nil || mb == nil {
			if ma != nil || mb != nil {
				bad = append(bad, wl.Name+": present on one side only")
			}
			continue
		}
		for _, m := range endToEnd {
			if len(ma[m.Name]) == 0 || len(mb[m.Name]) == 0 {
				bad = append(bad, fmt.Sprintf("%s %s: missing on one side", wl.Name, m.Name))
				continue
			}
			sa, sb := stats(ma[m.Name]), stats(mb[m.Name])
			delta := (sb.q2 - sa.q2) / math.Abs(sa.q2)
			verdict := "ok"
			if math.Abs(delta) > m.Bound {
				verdict = "DISAGREE"
				bad = append(bad, fmt.Sprintf("%s %s: medians %.6g and %.6g differ by %.1f%%, bound %.1f%%",
					wl.Name, m.Name, sa.q2, sb.q2, 100*math.Abs(delta), 100*m.Bound))
			}
			fmt.Fprintf(w, "%-14s %-12s %3d %12.6g %12.6g %12.6g %6.1f%% | %3d %12.6g %12.6g %12.6g %6.1f%% | %+7.1f%% %5.1f%% %s\n",
				wl.Name, m.Name, sa.n, sa.q1, sa.q2, sa.q3, 100*sa.spread(), sb.n, sb.q1, sb.q2, sb.q3, 100*sb.spread(),
				100*delta, 100*m.Bound, verdict)
		}
		both := func(name string) []float64 { return append(append([]float64(nil), ma[name]...), mb[name]...) }
		if !sameValues(both("attempted")) {
			bad = append(bad, wl.Name+": attempted counts differ between runs")
		}
		for _, f := range both("failed") {
			if f != 0 {
				bad = append(bad, wl.Name+": a run had failed operations")
				break
			}
		}
	}
	if len(bad) > 0 {
		for _, msg := range bad {
			fmt.Fprintln(w, "DISAGREE:", msg)
		}
		return errors.New("the two sets of runs do not agree")
	}
	fmt.Fprintln(w, "the two sets of runs agree within every bound")
	return nil
}

func sameValues(xs []float64) bool {
	for _, x := range xs {
		if x != xs[0] {
			return false
		}
	}
	return true
}
