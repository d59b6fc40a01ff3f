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

// validationResult compares the analytical model against discrete-event
// measurement (an extension: the paper trusts the M/M/1 GPS model; we
// measure it).
type validationResult struct {
	Clients           int
	MeasuredClients   int // clients with enough completions to compare
	MeanAbsRelRespErr float64
	MaxAbsRelRespErr  float64
	AnalyticProfit    float64
	SimulatedProfit   float64
	ProfitRelErr      float64
	MeanAbsUtilErr    float64
	CompletedRequests int
}

// runValidation solves a scenario of sz.clients and simulates the
// resulting allocation for sz.horizon.
func runValidation(sz sizes, seed int64, tel *telemetry.Set) (validationResult, error) {
	scen, err := generate(sz.clients, seed)
	if err != nil {
		return validationResult{}, err
	}
	solver, err := core.NewSolver(scen, solverConfig(tel))
	if err != nil {
		return validationResult{}, err
	}
	a, _, err := solver.Solve()
	if err != nil {
		return validationResult{}, err
	}
	simCfg := sim.DefaultConfig()
	simCfg.Horizon = sz.horizon
	simCfg.Telemetry = tel
	res, err := sim.Simulate(a, simCfg)
	if err != nil {
		return validationResult{}, err
	}

	out := validationResult{
		Clients:         sz.clients,
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

// renderValidation renders the validation result as text.
func renderValidation(r *Runner, sz sizes) (string, error) {
	v, err := runValidation(sz, r.seed, r.tel)
	if err != nil {
		return "", err
	}
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
	return b.String(), nil
}
