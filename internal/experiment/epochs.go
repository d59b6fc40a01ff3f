package experiment

import (
	"fmt"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/epoch"
	"repro/internal/telemetry"
)

// epochsNoiseSigma is the per-client lognormal noise on the trace.
const epochsNoiseSigma = 0.05

// epochsRow is one decision policy's aggregate outcome.
type epochsRow struct {
	Policy      string
	TotalProfit float64
	Decisions   int
	SolveTime   time.Duration
	Saturated   int
}

// runEpochs replays one diurnal + flash-crowd trace of sz.epochs over
// sz.clients against every decision policy (an extension motivated by
// the paper's Section III epoch discussion).
func runEpochs(sz sizes, seed int64, tel *telemetry.Set) ([]epochsRow, error) {
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
		epoch.FlashCrowd{At: sz.epochs / 2, Duration: 2, Boost: 2, Every: 4},
	}, epochsNoiseSigma, seed)
	if err != nil {
		return nil, err
	}

	policies := []struct {
		name   string
		policy epoch.Policy
	}{
		{"always", epoch.AlwaysPolicy{}},
		{"threshold 10%", epoch.ThresholdPolicy{RelChange: 0.1}},
		{"threshold 30%", epoch.ThresholdPolicy{RelChange: 0.3}},
		{"periodic /4", &epoch.PeriodicPolicy{Every: 4}},
		{"never", epoch.NeverPolicy{}},
	}
	rows := make([]epochsRow, 0, len(policies))
	for _, p := range policies {
		ccfg := epoch.DefaultControllerConfig()
		ccfg.Policy = p.policy
		ccfg.Telemetry = tel
		sum, err := epoch.RunController(scen, tr, ccfg)
		if err != nil {
			return nil, fmt.Errorf("experiment: policy %s: %w", p.name, err)
		}
		row := epochsRow{
			Policy:      p.name,
			TotalProfit: sum.TotalProfit,
			Decisions:   sum.Decisions,
			SolveTime:   sum.TotalSolveTime,
		}
		for _, st := range sum.Steps {
			row.Saturated += st.SaturatedClients
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// renderEpochs renders the policy comparison as text.
func renderEpochs(r *Runner, sz sizes) (string, error) {
	rows, err := runEpochs(sz, r.seed, r.tel)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("Decision policies on a diurnal + flash-crowd trace\n")
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "policy\ttotalProfit\tdecisions\tsolveTime\tsaturatedClientEpochs")
	for _, row := range rows {
		fmt.Fprintf(w, "%s\t%.2f\t%d\t%s\t%d\n",
			row.Policy, row.TotalProfit, row.Decisions, row.SolveTime.Round(time.Millisecond), row.Saturated)
	}
	w.Flush()
	return b.String(), nil
}
