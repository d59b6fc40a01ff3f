package epoch

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/predict"
	"repro/internal/telemetry"
)

// Policy decides whether the drift since the last decision warrants a new
// cloud-level allocation (paper Section III: "some small changes … can be
// effectively tracked and responded to by proper reaction of request
// dispatchers in the clusters; large changes cannot be handled by the
// local managers").
type Policy interface {
	// ShouldResolve compares the rates at the last decision with the
	// current rates.
	ShouldResolve(lastDecision, current []float64) bool
}

// ThresholdPolicy re-decides when any client's rate moved by more than
// RelChange relative to the last decision.
type ThresholdPolicy struct {
	RelChange float64
}

// ShouldResolve implements Policy.
func (p ThresholdPolicy) ShouldResolve(lastDecision, current []float64) bool {
	return maxRelDrift(lastDecision, current) > p.RelChange
}

// PeriodicPolicy re-decides every Every epochs regardless of drift. The
// counter lives on the policy, so use it by pointer.
type PeriodicPolicy struct {
	Every int

	count int
}

// ShouldResolve implements Policy; it is called once per epoch.
func (p *PeriodicPolicy) ShouldResolve(lastDecision, current []float64) bool {
	p.count++
	if p.Every <= 1 || p.count >= p.Every {
		p.count = 0
		return true
	}
	return false
}

// AlwaysPolicy re-decides every epoch (the upper bound on decision cost).
type AlwaysPolicy struct{}

// ShouldResolve implements Policy.
func (AlwaysPolicy) ShouldResolve(_, _ []float64) bool { return true }

// NeverPolicy never re-decides after the first epoch (the "set and
// forget" lower bound).
type NeverPolicy struct{}

// ShouldResolve implements Policy.
func (NeverPolicy) ShouldResolve(_, _ []float64) bool { return false }

// ControllerConfig tunes a trace-driven controller run. Every re-decision
// runs the default solver warm, from the standing allocation (paper
// Figure 3: the state of the cluster at the end of the previous epoch);
// the first epoch solves from scratch.
type ControllerConfig struct {
	Policy Policy
	// Predictor forecasts the rates the allocator provisions for; nil
	// means an oracle (the actual rates, the paper's implicit assumption).
	// The policy also sees the forecast, mirroring a real deployment where
	// the actual rates are only known in hindsight.
	Predictor predict.Predictor
	// Telemetry, when non-nil, records drift magnitudes, resolve/skip
	// decisions, solve latency and per-epoch spans, and instruments the
	// solver.
	Telemetry *telemetry.Set
}

// DefaultControllerConfig re-decides on >20% drift.
func DefaultControllerConfig() ControllerConfig {
	return ControllerConfig{Policy: ThresholdPolicy{RelChange: 0.2}}
}

// Step is one epoch of a controller run.
type Step struct {
	Epoch            int
	Resolved         bool
	RealizedProfit   float64
	SaturatedClients int
	SolveTime        time.Duration
	// Drift is the largest relative per-client rate change versus the
	// standing decision (0 on the first epoch, when there is none).
	Drift float64
}

// maxRelDrift returns the largest |current-base|/base over clients; a
// non-positive base counts as unbounded drift (reported as 1).
func maxRelDrift(base, current []float64) float64 {
	var max float64
	for i := range current {
		b := base[i]
		if b <= 0 {
			if current[i] > 0 && max < 1 {
				max = 1
			}
			continue
		}
		d := (current[i] - b) / b
		if d < 0 {
			d = -d
		}
		if d > max {
			max = d
		}
	}
	return max
}

// ControllerSummary aggregates a run.
type ControllerSummary struct {
	Steps          []Step
	TotalProfit    float64
	Decisions      int
	TotalSolveTime time.Duration
}

// RunController replays a rate trace against the decision policy: each
// epoch the actual rates change; the policy decides whether to pay for a
// new cloud-level allocation or keep the standing one (whose shares the
// cluster dispatchers keep using). Realized profit is always priced at
// the actual rates.
func RunController(scen *model.Scenario, tr Trace, cfg ControllerConfig) (ControllerSummary, error) {
	if cfg.Policy == nil {
		return ControllerSummary{}, errors.New("epoch: nil policy")
	}
	if err := scen.Validate(); err != nil {
		return ControllerSummary{}, fmt.Errorf("epoch: %w", err)
	}
	if err := tr.Validate(scen.NumClients()); err != nil {
		return ControllerSummary{}, err
	}

	publish(cfg.Telemetry, nil) // register the epoch families
	scfg := core.DefaultConfig()
	scfg.Telemetry = cfg.Telemetry

	cur := model.CloneScenario(scen)
	var (
		summary      ControllerSummary
		current      *alloc.Allocation
		lastDecision = make([]float64, scen.NumClients())
	)
	for e, rates := range tr {
		// The allocator and policy work from the forecast; realized profit
		// is always priced at the actual rates.
		forecast := rates
		if cfg.Predictor != nil && e > 0 {
			forecast = cfg.Predictor.Predict()
			if len(forecast) != len(rates) {
				return ControllerSummary{}, fmt.Errorf("epoch: predictor returned %d rates, want %d", len(forecast), len(rates))
			}
		}
		for i := range cur.Clients {
			cur.Clients[i].ArrivalRate = rates[i]
			cur.Clients[i].PredictedRate = forecast[i]
		}
		step := Step{Epoch: e}
		if current != nil {
			step.Drift = maxRelDrift(lastDecision, forecast)
		}
		// Root span per epoch: the solver's solve/solve_from spans below
		// become its children, so one trace covers the whole step (drift
		// check, solve, realization).
		sp, ctx := cfg.Telemetry.StartCtx(context.Background(), "epoch.step")
		sp.Attr("epoch", e)
		if current == nil || cfg.Policy.ShouldResolve(lastDecision, forecast) {
			solver, err := core.NewSolver(cur, scfg)
			if err != nil {
				sp.End()
				return ControllerSummary{}, err
			}
			start := time.Now()
			var a *alloc.Allocation
			if current != nil {
				a, _, err = solver.SolveFromCtx(ctx, current)
			} else {
				a, _, err = solver.SolveCtx(ctx)
			}
			if err != nil {
				sp.End()
				return ControllerSummary{}, err
			}
			step.SolveTime = time.Since(start)
			step.Resolved = true
			summary.Decisions++
			summary.TotalSolveTime += step.SolveTime
			current = a
			copy(lastDecision, forecast)
		}
		step.RealizedProfit, step.SaturatedClients = realize(cur, current)
		summary.TotalProfit += step.RealizedProfit
		summary.Steps = append(summary.Steps, step)
		publish(cfg.Telemetry, &step)
		sp.Attr("drift", step.Drift)
		sp.Attr("resolved", step.Resolved)
		sp.Attr("profit", step.RealizedProfit)
		sp.End()
		if cfg.Predictor != nil {
			if err := cfg.Predictor.Observe(rates); err != nil {
				return ControllerSummary{}, fmt.Errorf("epoch: predictor: %w", err)
			}
		}
	}
	return summary, nil
}
