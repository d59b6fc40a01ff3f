package epoch

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/model"
	"repro/internal/predict"
	"repro/internal/workload"
)

func genScenario(t *testing.T, n int, seed int64) *model.Scenario {
	t.Helper()
	cfg := workload.DefaultConfig()
	cfg.NumClients = n
	cfg.Seed = seed
	scen, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return scen
}

func baseRates(scenClients int) []float64 {
	rates := make([]float64, scenClients)
	for i := range rates {
		rates[i] = 1 + float64(i%4)*0.5
	}
	return rates
}

func TestGenerateTraceShapes(t *testing.T) {
	base := baseRates(10)
	tr, err := GenerateTrace(base, 12, []Pattern{Diurnal{Period: 12, Amplitude: 0.5}}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(10); err != nil {
		t.Fatal(err)
	}
	if len(tr) != 12 {
		t.Fatalf("epochs = %d", len(tr))
	}
	// A diurnal pattern with no noise peaks around Period/4.
	if tr[3][0] <= tr[0][0] {
		t.Fatalf("diurnal peak missing: epoch0 %v epoch3 %v", tr[0][0], tr[3][0])
	}
	// Same seed reproduces; different seed with noise differs.
	tr2, err := GenerateTrace(base, 12, []Pattern{Diurnal{Period: 12, Amplitude: 0.5}}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for e := range tr {
		for i := range tr[e] {
			if tr[e][i] != tr2[e][i] {
				t.Fatal("same inputs, different trace")
			}
		}
	}
}

func TestGenerateTraceFlashCrowd(t *testing.T) {
	base := baseRates(4)
	tr, err := GenerateTrace(base, 10, []Pattern{FlashCrowd{At: 4, Duration: 2, Boost: 3}}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tr[4][0]-3*base[0]) > 1e-9 || math.Abs(tr[5][0]-3*base[0]) > 1e-9 {
		t.Fatalf("flash crowd missing: %v", tr[4])
	}
	if math.Abs(tr[3][0]-base[0]) > 1e-9 || math.Abs(tr[6][0]-base[0]) > 1e-9 {
		t.Fatalf("flash crowd leaked outside window: %v %v", tr[3][0], tr[6][0])
	}
	// Every=2 hits only even clients.
	tr2, err := GenerateTrace(base, 10, []Pattern{FlashCrowd{At: 0, Duration: 1, Boost: 2, Every: 2}}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tr2[0][0] != 2*base[0] || tr2[0][1] != base[1] {
		t.Fatalf("selective crowd wrong: %v", tr2[0])
	}
}

func TestGenerateTraceValidation(t *testing.T) {
	if _, err := GenerateTrace(nil, 5, nil, 0, 1); err == nil {
		t.Fatal("empty base accepted")
	}
	if _, err := GenerateTrace([]float64{1}, 0, nil, 0, 1); err == nil {
		t.Fatal("zero epochs accepted")
	}
	if _, err := GenerateTrace([]float64{1}, 5, nil, -1, 1); err == nil {
		t.Fatal("negative noise accepted")
	}
}

// TestGenerateTraceRejectsNonFiniteNoise: a NaN sigma used to pass the
// sign check and silently mean "no noise"; +Inf sigma would turn every
// rate into 0, +Inf or NaN.
func TestGenerateTraceRejectsNonFiniteNoise(t *testing.T) {
	for _, sigma := range []float64{math.NaN(), math.Inf(1)} {
		if _, err := GenerateTrace([]float64{1}, 5, nil, sigma, 1); err == nil {
			t.Errorf("noiseSigma %v accepted", sigma)
		}
	}
}

func TestTraceCSVRoundTrip(t *testing.T) {
	tr, err := GenerateTrace(baseRates(5), 6, nil, 0.1, 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(tr) {
		t.Fatalf("epochs %d != %d", len(got), len(tr))
	}
	for e := range tr {
		for i := range tr[e] {
			if math.Abs(got[e][i]-tr[e][i]) > 1e-12 {
				t.Fatalf("trace[%d][%d] %v != %v", e, i, got[e][i], tr[e][i])
			}
		}
	}
	if _, err := ReadCSV(bytes.NewBufferString("")); err == nil {
		t.Fatal("empty CSV accepted")
	}
	if _, err := ReadCSV(bytes.NewBufferString("a,b\n")); err == nil {
		t.Fatal("garbage CSV accepted")
	}
}

func TestThresholdPolicy(t *testing.T) {
	p := ThresholdPolicy{RelChange: 0.2}
	if p.ShouldResolve([]float64{1, 1}, []float64{1.1, 1}) {
		t.Fatal("10% drift should not trigger a 20% policy")
	}
	if !p.ShouldResolve([]float64{1, 1}, []float64{1, 1.5}) {
		t.Fatal("50% drift must trigger")
	}
	if !p.ShouldResolve([]float64{0, 1}, []float64{1, 1}) {
		t.Fatal("zero baseline must trigger")
	}
}

func TestPeriodicPolicy(t *testing.T) {
	p := &PeriodicPolicy{Every: 3}
	var fired int
	for e := 0; e < 9; e++ {
		if p.ShouldResolve(nil, nil) {
			fired++
		}
	}
	if fired != 3 {
		t.Fatalf("fired %d times in 9 epochs with Every=3", fired)
	}
}

func TestRunControllerPolicies(t *testing.T) {
	scen := genScenario(t, 20, 41)
	base := make([]float64, scen.NumClients())
	for i := range base {
		base[i] = scen.Clients[i].ArrivalRate
	}
	tr, err := GenerateTrace(base, 8, []Pattern{Diurnal{Period: 8, Amplitude: 0.4}}, 0.05, 3)
	if err != nil {
		t.Fatal(err)
	}

	always := DefaultControllerConfig()
	always.Policy = AlwaysPolicy{}
	sAlways, err := RunController(scen, tr, always)
	if err != nil {
		t.Fatal(err)
	}
	if sAlways.Decisions != 8 {
		t.Fatalf("always policy decided %d times", sAlways.Decisions)
	}
	// The run works on a private copy: the trace's rates never reach the
	// caller's scenario.
	for i := range base {
		if scen.Clients[i].ArrivalRate != base[i] {
			t.Fatalf("RunController mutated the caller's scenario: client %d rate %v, was %v",
				i, scen.Clients[i].ArrivalRate, base[i])
		}
	}
	never := DefaultControllerConfig()
	never.Policy = NeverPolicy{}
	sNever, err := RunController(scen, tr, never)
	if err != nil {
		t.Fatal(err)
	}
	if sNever.Decisions != 1 {
		t.Fatalf("never policy decided %d times (first epoch always decides)", sNever.Decisions)
	}

	thresh := DefaultControllerConfig()
	thresh.Policy = ThresholdPolicy{RelChange: 0.3}
	sThresh, err := RunController(scen, tr, thresh)
	if err != nil {
		t.Fatal(err)
	}
	if sThresh.Decisions <= 1 || sThresh.Decisions >= 8 {
		t.Fatalf("threshold policy decided %d times, want strictly between", sThresh.Decisions)
	}

	// More decisions must not produce less profit than never re-deciding,
	// and the threshold policy should sit between the extremes on solve
	// effort: fewer decisions than always, and solve time booked on
	// exactly the epochs that re-solved.
	if sAlways.TotalProfit < sNever.TotalProfit-1e-6 {
		t.Fatalf("re-deciding every epoch (%v) earned less than never (%v)",
			sAlways.TotalProfit, sNever.TotalProfit)
	}
	if sThresh.Decisions >= sAlways.Decisions {
		t.Fatalf("threshold decided %d times, always %d", sThresh.Decisions, sAlways.Decisions)
	}
	if len(sThresh.Steps) != 8 {
		t.Fatalf("steps = %d", len(sThresh.Steps))
	}
	for _, st := range sThresh.Steps {
		if (st.SolveTime > 0) != st.Resolved {
			t.Fatalf("epoch %d: resolved %v with solve time %v", st.Epoch, st.Resolved, st.SolveTime)
		}
	}
}

func TestRunControllerValidation(t *testing.T) {
	scen := genScenario(t, 5, 42)
	tr, err := GenerateTrace(baseRates(5), 3, nil, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultControllerConfig()
	cfg.Policy = nil
	if _, err := RunController(scen, tr, cfg); err == nil {
		t.Fatal("nil policy accepted")
	}
	badTr, err := GenerateTrace(baseRates(4), 3, nil, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunController(scen, badTr, DefaultControllerConfig()); err == nil {
		t.Fatal("shape-mismatched trace accepted")
	}
	// A forecast of the wrong length is an error, not a silent fall back
	// to the actual rates (which would score the predictor as an oracle).
	cfg = DefaultControllerConfig()
	cfg.Predictor = shortPredictor{}
	if _, err := RunController(scen, tr, cfg); err == nil {
		t.Fatal("wrong-length forecast accepted")
	}
}

// shortPredictor always forecasts one rate, whatever it observed.
type shortPredictor struct{}

func (shortPredictor) Observe([]float64) error { return nil }
func (shortPredictor) Predict() []float64      { return []float64{1} }

func TestRunControllerWithPredictor(t *testing.T) {
	scen := genScenario(t, 20, 43)
	base := make([]float64, scen.NumClients())
	for i := range base {
		base[i] = scen.Clients[i].ArrivalRate
	}
	// A strong diurnal swing: forecast quality matters.
	tr, err := GenerateTrace(base, 10, []Pattern{Diurnal{Period: 10, Amplitude: 0.5}}, 0.05, 4)
	if err != nil {
		t.Fatal(err)
	}

	oracle := DefaultControllerConfig()
	oracle.Policy = AlwaysPolicy{}
	sOracle, err := RunController(scen, tr, oracle)
	if err != nil {
		t.Fatal(err)
	}

	naive := DefaultControllerConfig()
	naive.Policy = AlwaysPolicy{}
	naive.Predictor = predict.NewLastValue()
	sNaive, err := RunController(scen, tr, naive)
	if err != nil {
		t.Fatal(err)
	}

	// The oracle knows each epoch's rates exactly; a last-value forecast
	// must not beat it.
	if sNaive.TotalProfit > sOracle.TotalProfit+1e-6 {
		t.Fatalf("naive forecast (%v) beat the oracle (%v)", sNaive.TotalProfit, sOracle.TotalProfit)
	}
	if sNaive.Decisions == 0 || len(sNaive.Steps) != 10 {
		t.Fatalf("predictor run malformed: %+v", sNaive)
	}
}
