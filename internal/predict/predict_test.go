package predict

import (
	"math"
	"testing"
	"testing/quick"
)

func constantTrace(epochs int, vals ...float64) [][]float64 {
	tr := make([][]float64, epochs)
	for e := range tr {
		tr[e] = append([]float64(nil), vals...)
	}
	return tr
}

func rampTrace(epochs int, start, step float64) [][]float64 {
	tr := make([][]float64, epochs)
	for e := range tr {
		tr[e] = []float64{start + float64(e)*step}
	}
	return tr
}

func TestLastValue(t *testing.T) {
	p := NewLastValue()
	if err := p.Observe([]float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	got := p.Predict()
	if got[0] != 1 || got[1] != 2 {
		t.Fatalf("predict = %v", got)
	}
	if err := p.Observe([]float64{3, 4}); err != nil {
		t.Fatal(err)
	}
	if got := p.Predict(); got[0] != 3 {
		t.Fatalf("predict after update = %v", got)
	}
}

func TestEWMAValidation(t *testing.T) {
	if _, err := NewEWMA(0); err == nil {
		t.Fatal("alpha 0 accepted")
	}
	if _, err := NewEWMA(1.5); err == nil {
		t.Fatal("alpha > 1 accepted")
	}
	p, err := NewEWMA(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Observe([]float64{2}); err != nil {
		t.Fatal(err)
	}
	if err := p.Observe([]float64{1, 2}); err == nil {
		t.Fatal("size change accepted")
	}
}

func TestEWMASmoothing(t *testing.T) {
	p, err := NewEWMA(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Observe([]float64{2}); err != nil {
		t.Fatal(err)
	}
	if err := p.Observe([]float64{4}); err != nil {
		t.Fatal(err)
	}
	// s = 0.5·4 + 0.5·2 = 3.
	if got := p.Predict()[0]; math.Abs(got-3) > 1e-12 {
		t.Fatalf("EWMA = %v, want 3", got)
	}
}

func TestHoltTracksRamp(t *testing.T) {
	holt, err := NewHolt(0.8, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	ewma, err := NewEWMA(0.8)
	if err != nil {
		t.Fatal(err)
	}
	tr := rampTrace(20, 1, 0.5)
	mHolt, err := Backtest(tr, holt)
	if err != nil {
		t.Fatal(err)
	}
	mEWMA, err := Backtest(tr, ewma)
	if err != nil {
		t.Fatal(err)
	}
	if mHolt.RMSE >= mEWMA.RMSE {
		t.Fatalf("Holt (%v) should beat EWMA (%v) on a ramp", mHolt.RMSE, mEWMA.RMSE)
	}
	if _, err := NewHolt(0, 0.5); err == nil {
		t.Fatal("alpha 0 accepted")
	}
}

// TestGainsRejectNaN: NaN fails every comparison, so the gain checks
// must be written to pass only on gains in (0, 1].
func TestGainsRejectNaN(t *testing.T) {
	nan := math.NaN()
	for _, tt := range []struct {
		name string
		make func() (Predictor, error)
	}{
		{"ewma alpha", func() (Predictor, error) { return NewEWMA(nan) }},
		{"holt alpha", func() (Predictor, error) { return NewHolt(nan, 0.3) }},
		{"holt beta", func() (Predictor, error) { return NewHolt(0.3, nan) }},
	} {
		if _, err := tt.make(); err == nil {
			t.Errorf("%s NaN accepted", tt.name)
		}
	}
}

func TestSlidingMean(t *testing.T) {
	p, err := NewSlidingMean(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{2, 4, 6} {
		if err := p.Observe([]float64{v}); err != nil {
			t.Fatal(err)
		}
	}
	// Window 2 → mean(4, 6) = 5.
	if got := p.Predict()[0]; math.Abs(got-5) > 1e-12 {
		t.Fatalf("sliding mean = %v, want 5", got)
	}
	if _, err := NewSlidingMean(0); err == nil {
		t.Fatal("window 0 accepted")
	}
	if err := p.Observe([]float64{1, 2}); err == nil {
		t.Fatal("size change accepted")
	}
}

func TestBacktestPerfectOnConstantTrace(t *testing.T) {
	tr := constantTrace(10, 3, 1.5)
	for _, p := range []Predictor{NewLastValue(), mustEWMA(t, 0.3), mustSliding(t, 3)} {
		m, err := Backtest(tr, p)
		if err != nil {
			t.Fatal(err)
		}
		if m.MAPE > 1e-12 || m.RMSE > 1e-12 {
			t.Fatalf("constant trace should be predicted exactly: %+v", m)
		}
		if m.Epochs != 9 {
			t.Fatalf("epochs = %d", m.Epochs)
		}
	}
}

func TestBacktestValidation(t *testing.T) {
	if _, err := Backtest(constantTrace(1, 1), NewLastValue()); err == nil {
		t.Fatal("single-epoch trace accepted")
	}
}

func mustEWMA(t *testing.T, a float64) *EWMA {
	t.Helper()
	p, err := NewEWMA(a)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mustSliding(t *testing.T, w int) *SlidingMean {
	t.Helper()
	p, err := NewSlidingMean(w)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// Property: EWMA predictions stay within the observed range (convex
// combinations cannot escape it).
func TestEWMAWithinRangeProperty(t *testing.T) {
	f := func(seedVals [8]float64, alphaRaw float64) bool {
		alpha := 0.05 + math.Mod(math.Abs(alphaRaw), 0.95)
		p, err := NewEWMA(alpha)
		if err != nil {
			return false
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, raw := range seedVals {
			v := 0.1 + math.Mod(math.Abs(raw), 10)
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
			if err := p.Observe([]float64{v}); err != nil {
				return false
			}
		}
		got := p.Predict()[0]
		return got >= lo-1e-9 && got <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
