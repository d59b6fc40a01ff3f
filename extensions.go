package cloudalloc

import (
	"io"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/predict"
)

// Extension types: rate traces, decision policies, predictors.
type (
	// Trace is a per-epoch, per-client matrix of arrival rates.
	Trace = epoch.Trace
	// Pattern shapes a client's rate over epochs.
	Pattern = epoch.Pattern
	// Diurnal is a day/night sinusoidal rate pattern.
	Diurnal = epoch.Diurnal
	// FlashCrowd is a transient rate spike pattern.
	FlashCrowd = epoch.FlashCrowd
	// Policy decides when drift warrants a new cloud-level decision.
	Policy = epoch.Policy
	// ThresholdPolicy re-decides on relative rate drift.
	ThresholdPolicy = epoch.ThresholdPolicy
	// PeriodicPolicy re-decides on a fixed cadence.
	PeriodicPolicy = epoch.PeriodicPolicy
	// AlwaysPolicy re-decides every epoch.
	AlwaysPolicy = epoch.AlwaysPolicy
	// NeverPolicy never re-decides after the first epoch.
	NeverPolicy = epoch.NeverPolicy
	// ControllerConfig tunes a trace-driven controller run.
	ControllerConfig = epoch.ControllerConfig
	// ControllerSummary aggregates a controller run.
	ControllerSummary = epoch.ControllerSummary

	// Predictor forecasts next-epoch arrival rates.
	Predictor = predict.Predictor
)

// GenerateTrace builds a per-epoch rate trace from base rates, patterns
// and multiplicative noise.
func GenerateTrace(base []float64, epochs int, patterns []Pattern, noiseSigma float64, seed int64) (Trace, error) {
	return epoch.GenerateTrace(base, epochs, patterns, noiseSigma, seed)
}

// DefaultControllerConfig re-decides on >20% drift with warm starts.
func DefaultControllerConfig() ControllerConfig { return epoch.DefaultControllerConfig() }

// RunController replays a rate trace against a decision policy: the
// policy decides when to pay for a new cloud-level allocation, and
// realized profit is always priced at the actual rates.
func RunController(scen *Scenario, tr Trace, cfg ControllerConfig) (ControllerSummary, error) {
	return epoch.RunController(scen, tr, cfg)
}

// SolveExhaustive enumerates every client→cluster assignment; tiny
// instances only (at most 10 clients).
func SolveExhaustive(scen *Scenario) (*Allocation, error) {
	return baseline.SolveExhaustive(scen, core.DefaultConfig())
}

// NewLastValuePredictor forecasts a repeat of the last observation.
func NewLastValuePredictor() Predictor { return predict.NewLastValue() }

// NewEWMAPredictor forecasts with exponential smoothing (0 < alpha ≤ 1).
func NewEWMAPredictor(alpha float64) (Predictor, error) { return predict.NewEWMA(alpha) }

// NewHoltPredictor forecasts with double exponential smoothing (level +
// trend).
func NewHoltPredictor(alpha, beta float64) (Predictor, error) { return predict.NewHolt(alpha, beta) }

// NewSlidingMeanPredictor forecasts the mean of the last window epochs.
func NewSlidingMeanPredictor(window int) (Predictor, error) { return predict.NewSlidingMean(window) }

// ReadTraceCSV parses a rate trace written by Trace.WriteCSV.
func ReadTraceCSV(r io.Reader) (Trace, error) { return epoch.ReadCSV(r) }
