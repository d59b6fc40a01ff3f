package experiment

import (
	"bytes"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// smallSweep is a sweep small enough for unit tests.
var smallSweep = sizes{counts: []int{10, 20}, scenarios: 3, scenariosAtMax: 2, draws: 10, passes: 2}

// testRunner renders at seed 1 without telemetry, discarding its output.
func testRunner() *Runner { return NewRunner(io.Discard, false, 1, nil) }

// artefact returns the Artefacts entry named name.
func artefact(t *testing.T, name string) Artefact {
	t.Helper()
	for _, a := range Artefacts {
		if a.Name == name {
			return a
		}
	}
	t.Fatalf("no artefact %q", name)
	return Artefact{}
}

// TestRunnerSweepsOnce: FIG4 and FIG5 share their sweep sizes, so one
// runner printing both runs the sweep once.
func TestRunnerSweepsOnce(t *testing.T) {
	fig4, fig5 := artefact(t, "fig4"), artefact(t, "fig5")
	if !reflect.DeepEqual(fig4.quick, fig5.quick) || !reflect.DeepEqual(fig4.full, fig5.full) {
		t.Fatal("FIG4 and FIG5 sizes differ, but they print one sweep")
	}
	fig4.quick, fig5.quick = smallSweep, smallSweep
	var out bytes.Buffer
	r := NewRunner(&out, true, 1, nil)
	for _, a := range []Artefact{fig4, fig5} {
		if err := r.Run(a); err != nil {
			t.Fatal(err)
		}
	}
	if n := strings.Count(out.String(), "running sweep"); n != 1 {
		t.Fatalf("sweep ran %d times:\n%s", n, out.String())
	}
	for _, want := range []string{"Figure 4:", "Figure 5:", "mcBest", "* = Monte-Carlo best"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output lacks %q:\n%s", want, out.String())
		}
	}
}

func TestRunSweepShapes(t *testing.T) {
	points, err := runSweep(smallSweep, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	if len(points[0].Stats) != 3 {
		t.Fatalf("count 10 has %d scenarios", len(points[0].Stats))
	}
	if len(points[1].Stats) != 2 {
		t.Fatalf("max count should use scenariosAtMax: %d", len(points[1].Stats))
	}
	for _, pt := range points {
		for _, st := range pt.Stats {
			if st.Best <= 0 {
				t.Fatalf("best profit %v", st.Best)
			}
			if st.Proposed > st.Best+1e-9 || st.PS > st.Best+1e-9 || st.MCBestOpt > st.Best+1e-9 {
				t.Fatalf("best is not max: %+v", st)
			}
			if st.MCWorstInit > st.MCBestInit+1e-9 {
				t.Fatalf("MC envelope inverted: %+v", st)
			}
		}
	}
}

func TestFigureTablesQualitativeShape(t *testing.T) {
	points, err := runSweep(smallSweep, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	f4 := fig4Rows(points)
	for _, r := range f4 {
		// The paper's headline claims: proposed within ~9% of best found,
		// clearly above the modified PS baseline.
		if r.Proposed < 0.85 {
			t.Errorf("clients=%d: proposed normalized %v below paper's band", r.Clients, r.Proposed)
		}
		if r.Proposed <= r.ModifiedPS {
			t.Errorf("clients=%d: proposed (%v) should beat PS (%v)", r.Clients, r.Proposed, r.ModifiedPS)
		}
		if r.MCBest > 1+1e-9 {
			t.Errorf("mcBest normalized %v > 1", r.MCBest)
		}
	}
	f5 := fig5Rows(points)
	for _, r := range f5 {
		if r.WorstInitialAfter < r.WorstInitialBefore-1e-9 {
			t.Errorf("clients=%d: local search made worst random worse: %+v", r.Clients, r)
		}
		if r.WorstProposed <= 0 || r.WorstProposed > 1+1e-9 {
			t.Errorf("clients=%d: worst proposed %v outside (0,1]", r.Clients, r.WorstProposed)
		}
	}
	for _, table := range []string{fig4Table(points), fig5Table(points)} {
		if !strings.Contains(table, "clients") {
			t.Fatalf("table missing header: %q", table)
		}
	}
}

func TestRunComplexity(t *testing.T) {
	sz := sizes{counts: []int{10, 25}, scenarios: 1}
	rows, err := runComplexity(sz, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Sequential <= 0 || r.Parallel <= 0 {
			t.Fatalf("non-positive timing: %+v", r)
		}
		if r.Servers <= 0 {
			t.Fatalf("servers = %d", r.Servers)
		}
	}
	if table, err := renderComplexity(testRunner(), sz); err != nil || !strings.Contains(table, "speedup") {
		t.Fatalf("table missing speedup column (%v):\n%s", err, table)
	}
}

func TestRunValidation(t *testing.T) {
	sz := sizes{clients: 15, horizon: 3000}
	v, err := runValidation(sz, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.MeasuredClients == 0 {
		t.Fatal("no clients measured")
	}
	if v.MeanAbsRelRespErr > 0.3 {
		t.Fatalf("analytic model far from simulation: mean rel err %v", v.MeanAbsRelRespErr)
	}
	if v.CompletedRequests == 0 {
		t.Fatal("no requests completed")
	}
	if table, err := renderValidation(testRunner(), sz); err != nil || !strings.Contains(table, "profit") {
		t.Fatalf("table missing profit row (%v):\n%s", err, table)
	}
}

func TestRunAblation(t *testing.T) {
	sz := sizes{clients: 20, scenarios: 2}
	rows, phases, err := runAblation(sz, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(ablationVariants()) {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Variant != "full" || rows[0].Relative != 1 {
		t.Fatalf("first row must be the full solver: %+v", rows[0])
	}
	for _, r := range rows {
		if r.MeanProfit <= 0 {
			t.Fatalf("variant %s has profit %v", r.Variant, r.MeanProfit)
		}
	}
	// Disabling the entire local search must not beat the full solver,
	// and the gap is what the phases are credited with (up to float
	// regrouping; the full solver here is unsharded, so Reconcile is 0).
	var credited float64
	for _, p := range phases {
		credited += p.MeanProfit
	}
	for _, r := range rows {
		if r.Variant != "no-local-search" {
			continue
		}
		if r.Relative > 1+1e-9 {
			t.Fatalf("no-local-search beats full: %+v", r)
		}
		if gap := rows[0].MeanProfit - r.MeanProfit; math.Abs(gap-credited) > 1e-6*(1+math.Abs(gap)) {
			t.Fatalf("phases credited %v, local search gained %v", credited, gap)
		}
	}
	if len(phases) != len(ablationPhases) {
		t.Fatalf("phases = %d", len(phases))
	}
	table, err := renderAblation(testRunner(), sz)
	if err != nil || !strings.Contains(table, "variant") || !strings.Contains(table, "phase") {
		t.Fatalf("table missing header (%v):\n%s", err, table)
	}
}

func TestRunEpochsExperiment(t *testing.T) {
	sz := sizes{clients: 15, epochs: 6}
	rows, err := runEpochs(sz, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := make(map[string]epochsRow, len(rows))
	for _, r := range rows {
		byName[r.Policy] = r
	}
	always, never := byName["always"], byName["never"]
	if always.Decisions != 6 || never.Decisions != 1 {
		t.Fatalf("decision counts wrong: always=%d never=%d", always.Decisions, never.Decisions)
	}
	if always.TotalProfit < never.TotalProfit-1e-6 {
		t.Fatalf("always (%v) earned less than never (%v)", always.TotalProfit, never.TotalProfit)
	}
	if always.SolveTime <= never.SolveTime {
		t.Fatalf("always should spend more solve time: %v vs %v", always.SolveTime, never.SolveTime)
	}
	if table, err := renderEpochs(testRunner(), sz); err != nil || !strings.Contains(table, "decisions") {
		t.Fatalf("table missing header (%v):\n%s", err, table)
	}
}

// TestEpochsTelemetryReachesController: the experiment's one telemetry
// set must feed the controller's own epoch metrics, not only the
// solver's. At EPOCH's quick sizes (30 clients, 12 epochs, seed 1) the
// five policies re-decide 12 + 12 + 9 + 3 + 1 = 37 times and keep the
// standing allocation in the other 23 of their 60 epochs.
func TestEpochsTelemetryReachesController(t *testing.T) {
	tel := telemetry.New(nil)
	rows, err := runEpochs(artefact(t, "epochs").quick, 1, tel)
	if err != nil {
		t.Fatal(err)
	}
	var decisions int
	for _, r := range rows {
		decisions += r.Decisions
	}
	if decisions != 37 {
		t.Fatalf("policies made %d decisions, want 37", decisions)
	}
	if got := tel.Counter("epoch_resolves_total").Value(); got != 37 {
		t.Errorf("epoch_resolves_total = %d, want 37", got)
	}
	if got := tel.Counter("epoch_skips_total").Value(); got != 23 {
		t.Errorf("epoch_skips_total = %d, want 23", got)
	}
}

func TestRunPredictors(t *testing.T) {
	sz := sizes{clients: 12, epochs: 6}
	rows, err := runPredictors(sz, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Predictor != "oracle (actual rates)" {
		t.Fatalf("first row must be the oracle: %+v", rows[0])
	}
	if rows[0].MAPE != 0 || rows[0].RMSE != 0 {
		t.Fatalf("oracle has no forecast error by definition: %+v", rows[0])
	}
	for _, r := range rows[1:] {
		if r.MAPE <= 0 || r.RMSE <= 0 {
			t.Fatalf("forecaster %s reports no error on a noisy trace: %+v", r.Predictor, r)
		}
		if r.RealizedProfit > rows[0].RealizedProfit+1e-6 {
			t.Fatalf("forecaster %s beat the oracle: %v > %v",
				r.Predictor, r.RealizedProfit, rows[0].RealizedProfit)
		}
	}
	if table, err := renderPredictors(testRunner(), sz); err != nil || !strings.Contains(table, "MAPE") {
		t.Fatalf("table missing header (%v):\n%s", err, table)
	}
}

func TestAsciiChart(t *testing.T) {
	xs := []int{10, 20, 50}
	out := asciiChart("demo", xs, []series{
		{Name: "up", Marker: 'u', Values: []float64{0.1, 0.5, 0.9}},
		{Name: "down", Marker: 'd', Values: []float64{0.9, 0.5, 0.1}},
	}, 8)
	if !strings.Contains(out, "demo") || !strings.Contains(out, "u = up") {
		t.Fatalf("chart missing pieces:\n%s", out)
	}
	if !strings.Contains(out, "u") || !strings.Contains(out, "d") {
		t.Fatal("markers missing")
	}
	// Degenerate inputs render nothing rather than panicking.
	if asciiChart("x", nil, nil, 8) != "" {
		t.Fatal("empty chart should be empty")
	}
	if asciiChart("x", xs, []series{{Name: "n", Marker: 'n', Values: []float64{math.NaN()}}}, 8) != "" {
		t.Fatal("all-NaN chart should be empty")
	}
	// Constant series must not divide by zero.
	flat := asciiChart("flat", xs, []series{{Name: "f", Marker: 'f', Values: []float64{1, 1, 1}}}, 8)
	if flat == "" {
		t.Fatal("flat series should still render")
	}
}

func TestFigureCharts(t *testing.T) {
	points, err := runSweep(smallSweep, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c := fig4Chart(points); !strings.Contains(c, "proposed") {
		t.Fatalf("fig4 chart malformed:\n%s", c)
	}
	if c := fig5Chart(points); !strings.Contains(c, "worst proposed") {
		t.Fatalf("fig5 chart malformed:\n%s", c)
	}
}
