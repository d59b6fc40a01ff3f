// Package predict forecasts client arrival rates between decision epochs.
// The paper allocates resources against *predicted* mean arrival rates
// ("predicted based on the behavior of the client", Section III) but
// leaves estimation out of scope; this package supplies the standard
// one-step-ahead forecasters and a backtesting harness so the decision
// controller can run against realistic, imperfect predictions.
package predict

import (
	"errors"
	"fmt"
	"math"
)

// Predictor is a one-step-ahead forecaster over a fixed client
// population. Observe feeds the actual rates of the epoch that just
// ended; Predict forecasts the next epoch's rates.
type Predictor interface {
	Observe(actual []float64) error
	Predict() []float64
}

// LastValue predicts that the next epoch repeats the last observation.
type LastValue struct {
	last []float64
}

// NewLastValue builds the naive forecaster.
func NewLastValue() *LastValue { return &LastValue{} }

// Observe implements Predictor.
func (p *LastValue) Observe(actual []float64) error {
	p.last = copyRates(p.last, actual)
	return nil
}

// Predict implements Predictor.
func (p *LastValue) Predict() []float64 { return append([]float64(nil), p.last...) }

// EWMA is exponential smoothing: s ← α·actual + (1−α)·s.
type EWMA struct {
	Alpha float64

	state []float64
	warm  bool
}

// NewEWMA builds an exponential smoother (0 < alpha ≤ 1).
func NewEWMA(alpha float64) (*EWMA, error) {
	if !(alpha > 0 && alpha <= 1) {
		return nil, fmt.Errorf("predict: EWMA alpha = %v", alpha)
	}
	return &EWMA{Alpha: alpha}, nil
}

// Observe implements Predictor.
func (p *EWMA) Observe(actual []float64) error {
	if !p.warm {
		p.state = copyRates(p.state, actual)
		p.warm = true
		return nil
	}
	if len(actual) != len(p.state) {
		return errors.New("predict: observation size changed")
	}
	for i, a := range actual {
		p.state[i] = p.Alpha*a + (1-p.Alpha)*p.state[i]
	}
	return nil
}

// Predict implements Predictor.
func (p *EWMA) Predict() []float64 { return append([]float64(nil), p.state...) }

// Holt is double exponential smoothing (level + trend): it extrapolates
// ramps that EWMA lags behind.
type Holt struct {
	Alpha float64 // level gain
	Beta  float64 // trend gain

	level []float64
	trend []float64
	warm  int
}

// NewHolt builds a Holt linear smoother (gains in (0,1]).
func NewHolt(alpha, beta float64) (*Holt, error) {
	if !(alpha > 0 && alpha <= 1 && beta > 0 && beta <= 1) {
		return nil, fmt.Errorf("predict: Holt gains α=%v β=%v", alpha, beta)
	}
	return &Holt{Alpha: alpha, Beta: beta}, nil
}

// Observe implements Predictor.
func (p *Holt) Observe(actual []float64) error {
	switch p.warm {
	case 0:
		p.level = copyRates(p.level, actual)
		p.trend = make([]float64, len(actual))
		p.warm = 1
		return nil
	default:
		if len(actual) != len(p.level) {
			return errors.New("predict: observation size changed")
		}
		for i, a := range actual {
			prevLevel := p.level[i]
			p.level[i] = p.Alpha*a + (1-p.Alpha)*(prevLevel+p.trend[i])
			p.trend[i] = p.Beta*(p.level[i]-prevLevel) + (1-p.Beta)*p.trend[i]
		}
		return nil
	}
}

// Predict implements Predictor.
func (p *Holt) Predict() []float64 {
	out := make([]float64, len(p.level))
	for i := range out {
		v := p.level[i] + p.trend[i]
		if v < 1e-6 {
			v = 1e-6
		}
		out[i] = v
	}
	return out
}

// SlidingMean averages the last Window observations.
type SlidingMean struct {
	Window int

	history [][]float64
}

// NewSlidingMean builds a moving-average forecaster (window ≥ 1).
func NewSlidingMean(window int) (*SlidingMean, error) {
	if window < 1 {
		return nil, fmt.Errorf("predict: window = %d", window)
	}
	return &SlidingMean{Window: window}, nil
}

// Observe implements Predictor.
func (p *SlidingMean) Observe(actual []float64) error {
	if len(p.history) > 0 && len(actual) != len(p.history[0]) {
		return errors.New("predict: observation size changed")
	}
	p.history = append(p.history, append([]float64(nil), actual...))
	if len(p.history) > p.Window {
		p.history = p.history[1:]
	}
	return nil
}

// Predict implements Predictor.
func (p *SlidingMean) Predict() []float64 {
	if len(p.history) == 0 {
		return nil
	}
	out := make([]float64, len(p.history[0]))
	for _, row := range p.history {
		for i, v := range row {
			out[i] += v
		}
	}
	for i := range out {
		out[i] /= float64(len(p.history))
	}
	return out
}

func copyRates(dst, src []float64) []float64 {
	if cap(dst) < len(src) {
		dst = make([]float64, len(src))
	}
	dst = dst[:len(src)]
	copy(dst, src)
	return dst
}

// Metrics summarize a backtest.
type Metrics struct {
	// MAPE is the mean absolute percentage error over all forecasted
	// (epoch, client) pairs.
	MAPE float64
	// RMSE is the root mean squared error.
	RMSE float64
	// Epochs counts forecasted epochs (the first observation is warm-up).
	Epochs int
}

// Backtest replays a rate trace through the predictor: after observing
// epoch e it forecasts epoch e+1 and the error is measured against the
// trace.
func Backtest(trace [][]float64, p Predictor) (Metrics, error) {
	if len(trace) < 2 {
		return Metrics{}, errors.New("predict: backtest needs at least 2 epochs")
	}
	var (
		m      Metrics
		sumAPE float64
		sumSq  float64
		n      int
	)
	if err := p.Observe(trace[0]); err != nil {
		return Metrics{}, err
	}
	for e := 1; e < len(trace); e++ {
		forecast := p.Predict()
		if len(forecast) != len(trace[e]) {
			return Metrics{}, fmt.Errorf("predict: forecast size %d != %d", len(forecast), len(trace[e]))
		}
		for i, actual := range trace[e] {
			diff := forecast[i] - actual
			sumSq += diff * diff
			if actual > 0 {
				sumAPE += math.Abs(diff) / actual
			}
			n++
		}
		m.Epochs++
		if err := p.Observe(trace[e]); err != nil {
			return Metrics{}, err
		}
	}
	if n > 0 {
		m.MAPE = sumAPE / float64(n)
		m.RMSE = math.Sqrt(sumSq / float64(n))
	}
	return m, nil
}
