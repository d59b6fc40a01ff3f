package experiment

import (
	"math"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// fastSweep returns a sweep config small enough for unit tests.
func fastSweep() SweepConfig {
	cfg := DefaultSweepConfig()
	cfg.ClientCounts = []int{10, 20}
	cfg.ScenariosPerCount = 3
	cfg.ScenariosAtMaxCount = 2
	cfg.MCDraws = 10
	cfg.MCPasses = 2
	return cfg
}

func TestRunSweepShapes(t *testing.T) {
	points, err := RunSweep(fastSweep())
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
		t.Fatalf("max count should use ScenariosAtMaxCount: %d", len(points[1].Stats))
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

func TestRunSweepValidation(t *testing.T) {
	cfg := fastSweep()
	cfg.ClientCounts = nil
	if _, err := RunSweep(cfg); err == nil {
		t.Fatal("empty counts accepted")
	}
	cfg = fastSweep()
	cfg.MCDraws = 0
	if _, err := RunSweep(cfg); err == nil {
		t.Fatal("zero draws accepted")
	}
}

func TestFigureTablesQualitativeShape(t *testing.T) {
	points, err := RunSweep(fastSweep())
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
		if r.BestFound > 1+1e-9 {
			t.Errorf("bestFound normalized %v > 1", r.BestFound)
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
	for _, table := range []string{Fig4Table(points), Fig5Table(points)} {
		if !strings.Contains(table, "clients") {
			t.Fatalf("table missing header: %q", table)
		}
	}
}

func TestRunComplexity(t *testing.T) {
	cfg := DefaultComplexityConfig()
	cfg.ClientCounts = []int{10, 25}
	cfg.Repeats = 1
	rows, err := RunComplexity(cfg)
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
	if !strings.Contains(ComplexityTable(rows), "speedup") {
		t.Fatal("table missing speedup column")
	}
	cfg.Repeats = 0
	if _, err := RunComplexity(cfg); err == nil {
		t.Fatal("zero repeats accepted")
	}
}

func TestRunValidation(t *testing.T) {
	cfg := DefaultValidationConfig()
	cfg.Clients = 15
	cfg.Horizon = 3000
	v, err := RunValidation(cfg)
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
	if !strings.Contains(ValidationTable(v), "profit") {
		t.Fatal("table missing profit row")
	}
}

func TestRunAblation(t *testing.T) {
	cfg := DefaultAblationConfig()
	cfg.Clients = 20
	cfg.Scenarios = 2
	rows, phases, err := RunAblation(cfg)
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
	table := AblationTable(rows, phases)
	if !strings.Contains(table, "variant") || !strings.Contains(table, "phase") {
		t.Fatal("table missing header")
	}
	cfg.Scenarios = 0
	if _, _, err := RunAblation(cfg); err == nil {
		t.Fatal("zero scenarios accepted")
	}
}

func TestRunEpochsExperiment(t *testing.T) {
	cfg := DefaultEpochsConfig()
	cfg.Clients = 15
	cfg.Epochs = 6
	rows, err := RunEpochsExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := make(map[string]EpochsRow, len(rows))
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
	if !strings.Contains(EpochsTable(rows), "decisions") {
		t.Fatal("table missing header")
	}
	cfg.Epochs = 0
	if _, err := RunEpochsExperiment(cfg); err == nil {
		t.Fatal("zero epochs accepted")
	}
}

// TestEpochsTelemetryReachesController: the experiment's one telemetry
// set must feed the controller's own epoch metrics, not only the
// solver's. At the quick settings (30 clients, 12 epochs, seed 1) the
// five policies re-decide 12 + 12 + 9 + 3 + 1 = 37 times and keep the
// standing allocation in the other 23 of their 60 epochs.
func TestEpochsTelemetryReachesController(t *testing.T) {
	tel := telemetry.New(nil)
	cfg := DefaultEpochsConfig()
	cfg.Clients = 30
	cfg.Epochs = 12
	cfg.Telemetry = tel
	rows, err := RunEpochsExperiment(cfg)
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
	cfg := DefaultPredictorConfig()
	cfg.Clients = 12
	cfg.Epochs = 6
	rows, err := RunPredictors(cfg)
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
	if !strings.Contains(PredictorTable(rows), "MAPE") {
		t.Fatal("table missing header")
	}
	cfg.Epochs = 1
	if _, err := RunPredictors(cfg); err == nil {
		t.Fatal("single epoch accepted")
	}
}

func TestAsciiChart(t *testing.T) {
	xs := []int{10, 20, 50}
	out := asciiChart("demo", xs, []Series{
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
	if asciiChart("x", xs, []Series{{Name: "n", Marker: 'n', Values: []float64{math.NaN()}}}, 8) != "" {
		t.Fatal("all-NaN chart should be empty")
	}
	// Constant series must not divide by zero.
	flat := asciiChart("flat", xs, []Series{{Name: "f", Marker: 'f', Values: []float64{1, 1, 1}}}, 8)
	if flat == "" {
		t.Fatal("flat series should still render")
	}
}

func TestFigureCharts(t *testing.T) {
	points, err := RunSweep(fastSweep())
	if err != nil {
		t.Fatal(err)
	}
	if c := Fig4Chart(points); !strings.Contains(c, "proposed") {
		t.Fatalf("fig4 chart malformed:\n%s", c)
	}
	if c := Fig5Chart(points); !strings.Contains(c, "worst proposed") {
		t.Fatalf("fig5 chart malformed:\n%s", c)
	}
}
