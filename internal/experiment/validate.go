package experiment

import (
	"fmt"
	"math"
	"strings"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// ValidationConfig drives the analytic-vs-simulation validation (an
// extension: the paper trusts the M/M/1 GPS model; we measure it).
type ValidationConfig struct {
	Clients int
	Seed    int64
	// Horizon is the simulated time span (sim.Config.Horizon).
	Horizon   float64
	Telemetry *telemetry.Set
}

// DefaultValidationConfig validates a mid-size scenario.
func DefaultValidationConfig() ValidationConfig {
	return ValidationConfig{
		Clients: 50,
		Seed:    1,
		Horizon: 20000,
	}
}

// ValidationResult compares the analytical model against discrete-event
// measurement.
type ValidationResult struct {
	Clients            int
	MeasuredClients    int // clients with enough completions to compare
	MeanAbsRelRespErr  float64
	MaxAbsRelRespErr   float64
	AnalyticProfit     float64
	SimulatedProfit    float64
	ProfitRelErr       float64
	MeanAbsUtilErr     float64
	CompletedRequests  int
	UnstablePredicated int // clients the model flagged as saturated
}

// RunValidation solves a scenario and simulates the resulting allocation.
func RunValidation(cfg ValidationConfig) (ValidationResult, error) {
	scen, err := generate(cfg.Clients, cfg.Seed)
	if err != nil {
		return ValidationResult{}, err
	}
	solver, err := core.NewSolver(scen, solverConfig(cfg.Telemetry))
	if err != nil {
		return ValidationResult{}, err
	}
	a, _, err := solver.Solve()
	if err != nil {
		return ValidationResult{}, err
	}
	simCfg := sim.DefaultConfig()
	simCfg.Horizon = cfg.Horizon
	simCfg.Telemetry = cfg.Telemetry
	res, err := sim.Simulate(a, simCfg)
	if err != nil {
		return ValidationResult{}, err
	}

	out := ValidationResult{
		Clients:         cfg.Clients,
		AnalyticProfit:  res.AnalyticValue,
		SimulatedProfit: res.Profit,
	}
	var respErrSum float64
	for _, cs := range res.Clients {
		out.CompletedRequests += cs.Completed
		if cs.Completed < 500 || cs.AnalyticMean <= 0 {
			continue
		}
		out.MeasuredClients++
		relErr := math.Abs(cs.MeanResponse-cs.AnalyticMean) / cs.AnalyticMean
		respErrSum += relErr
		out.MaxAbsRelRespErr = math.Max(out.MaxAbsRelRespErr, relErr)
	}
	if out.MeasuredClients > 0 {
		out.MeanAbsRelRespErr = respErrSum / float64(out.MeasuredClients)
	}
	var utilErrSum float64
	var utilCnt int
	for _, ss := range res.Servers {
		if ss.Analytic == 0 && ss.Busy == 0 {
			continue
		}
		utilErrSum += math.Abs(ss.Busy - ss.Analytic)
		utilCnt++
	}
	if utilCnt > 0 {
		out.MeanAbsUtilErr = utilErrSum / float64(utilCnt)
	}
	if out.AnalyticProfit != 0 {
		out.ProfitRelErr = math.Abs(out.SimulatedProfit-out.AnalyticProfit) / math.Abs(out.AnalyticProfit)
	}
	return out, nil
}

// ValidationTable renders the validation result as text.
func ValidationTable(v ValidationResult) string {
	var b strings.Builder
	b.WriteString("Model validation: analytic M/M/1 GPS model vs discrete-event simulation\n")
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "clients\t%d (measured %d)\n", v.Clients, v.MeasuredClients)
	fmt.Fprintf(w, "completed requests\t%d\n", v.CompletedRequests)
	fmt.Fprintf(w, "mean |rel err| response time\t%.3f\n", v.MeanAbsRelRespErr)
	fmt.Fprintf(w, "max |rel err| response time\t%.3f\n", v.MaxAbsRelRespErr)
	fmt.Fprintf(w, "analytic profit\t%.2f\n", v.AnalyticProfit)
	fmt.Fprintf(w, "simulated profit\t%.2f\n", v.SimulatedProfit)
	fmt.Fprintf(w, "profit rel err\t%.3f\n", v.ProfitRelErr)
	fmt.Fprintf(w, "mean |utilization err|\t%.4f\n", v.MeanAbsUtilErr)
	w.Flush()
	return b.String()
}
