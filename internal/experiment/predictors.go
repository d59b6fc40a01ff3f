package experiment

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"repro/internal/epoch"
	"repro/internal/predict"
	"repro/internal/telemetry"
)

// predictorNoiseSigma is the per-client lognormal noise on the trace.
const predictorNoiseSigma = 0.08

// predictorRow is one forecaster's outcome.
type predictorRow struct {
	Predictor      string
	MAPE           float64
	RMSE           float64
	RealizedProfit float64
	Saturated      int
}

// runPredictors backtests each forecaster on one noisy diurnal trace of
// sz.epochs over sz.clients and replays it through the controller, so
// the table links forecast error (MAPE/RMSE) to realized profit — the
// quantity the paper's "predicted average request arrival rates" feed.
func runPredictors(sz sizes, seed int64, tel *telemetry.Set) ([]predictorRow, error) {
	scen, err := generate(sz.clients, seed)
	if err != nil {
		return nil, err
	}
	base := make([]float64, scen.NumClients())
	for i := range base {
		base[i] = scen.Clients[i].ArrivalRate
	}
	tr, err := epoch.GenerateTrace(base, sz.epochs, []epoch.Pattern{
		epoch.Diurnal{Period: sz.epochs, Amplitude: 0.4, Phase: 0.1},
	}, predictorNoiseSigma, seed)
	if err != nil {
		return nil, err
	}

	mk := func(name string, build func() (predict.Predictor, error)) (predictorRow, error) {
		row := predictorRow{Predictor: name}
		if build != nil {
			p, err := build()
			if err != nil {
				return row, err
			}
			m, err := predict.Backtest(tr, p)
			if err != nil {
				return row, err
			}
			row.MAPE = m.MAPE
			row.RMSE = m.RMSE
		}
		ccfg := epoch.DefaultControllerConfig()
		ccfg.Policy = epoch.AlwaysPolicy{}
		ccfg.Telemetry = tel
		if build != nil {
			// A fresh predictor for the controller run (the backtest
			// consumed the first one's state).
			p, err := build()
			if err != nil {
				return row, err
			}
			ccfg.Predictor = p
		}
		sum, err := epoch.RunController(scen, tr, ccfg)
		if err != nil {
			return row, err
		}
		row.RealizedProfit = sum.TotalProfit
		for _, st := range sum.Steps {
			row.Saturated += st.SaturatedClients
		}
		return row, nil
	}

	specs := []struct {
		name  string
		build func() (predict.Predictor, error)
	}{
		{"oracle (actual rates)", nil},
		{"last value", func() (predict.Predictor, error) { return predict.NewLastValue(), nil }},
		{"EWMA α=0.5", func() (predict.Predictor, error) { return predict.NewEWMA(0.5) }},
		{"Holt α=0.6 β=0.3", func() (predict.Predictor, error) { return predict.NewHolt(0.6, 0.3) }},
		{"sliding mean w=4", func() (predict.Predictor, error) { return predict.NewSlidingMean(4) }},
	}
	rows := make([]predictorRow, 0, len(specs))
	for _, s := range specs {
		row, err := mk(s.name, s.build)
		if err != nil {
			return nil, fmt.Errorf("experiment: predictor %s: %w", s.name, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// renderPredictors renders the forecast comparison as text.
func renderPredictors(r *Runner, sz sizes) (string, error) {
	rows, err := runPredictors(sz, r.seed, r.tel)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("Forecasters on a noisy diurnal trace (controller re-decides every epoch)\n")
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "predictor\tMAPE\tRMSE\trealizedProfit\tsaturatedClientEpochs")
	for _, row := range rows {
		fmt.Fprintf(w, "%s\t%.3f\t%.3f\t%.2f\t%d\n", row.Predictor, row.MAPE, row.RMSE, row.RealizedProfit, row.Saturated)
	}
	w.Flush()
	return b.String(), nil
}
