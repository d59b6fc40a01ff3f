package experiment

import (
	"fmt"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/epoch"
	"repro/internal/telemetry"
)

// EpochsConfig drives the decision-policy experiment: a diurnal +
// flash-crowd rate trace replayed against several decision policies
// (extension motivated by the paper's Section III epoch discussion).
type EpochsConfig struct {
	Clients int
	Epochs  int
	Seed    int64
	// Telemetry, when non-nil, records the controller's epoch metrics
	// and every solve.
	Telemetry *telemetry.Set
}

// epochsNoiseSigma is the per-client lognormal noise on the trace.
const epochsNoiseSigma = 0.05

// DefaultEpochsConfig runs 16 epochs of a diurnal day with a flash crowd.
func DefaultEpochsConfig() EpochsConfig {
	return EpochsConfig{
		Clients: 50,
		Epochs:  16,
		Seed:    1,
	}
}

// EpochsRow is one decision policy's aggregate outcome.
type EpochsRow struct {
	Policy      string
	TotalProfit float64
	Decisions   int
	SolveTime   time.Duration
	Saturated   int
}

// RunEpochsExperiment replays one trace against every policy.
func RunEpochsExperiment(cfg EpochsConfig) ([]EpochsRow, error) {
	if cfg.Clients <= 0 || cfg.Epochs <= 0 {
		return nil, fmt.Errorf("experiment: bad epochs config %+v", cfg)
	}
	scen, err := generate(cfg.Clients, cfg.Seed)
	if err != nil {
		return nil, err
	}
	base := make([]float64, scen.NumClients())
	for i := range base {
		base[i] = scen.Clients[i].ArrivalRate
	}
	tr, err := epoch.GenerateTrace(base, cfg.Epochs, []epoch.Pattern{
		epoch.Diurnal{Period: cfg.Epochs, Amplitude: 0.4, Phase: 0.1},
		epoch.FlashCrowd{At: cfg.Epochs / 2, Duration: 2, Boost: 2, Every: 4},
	}, epochsNoiseSigma, cfg.Seed)
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
	rows := make([]EpochsRow, 0, len(policies))
	for _, p := range policies {
		ccfg := epoch.DefaultControllerConfig()
		ccfg.Policy = p.policy
		ccfg.Telemetry = cfg.Telemetry
		sum, err := epoch.RunController(scen, tr, ccfg)
		if err != nil {
			return nil, fmt.Errorf("experiment: policy %s: %w", p.name, err)
		}
		row := EpochsRow{
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

// EpochsTable renders the policy comparison as text.
func EpochsTable(rows []EpochsRow) string {
	var b strings.Builder
	b.WriteString("Decision policies on a diurnal + flash-crowd trace\n")
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "policy\ttotalProfit\tdecisions\tsolveTime\tsaturatedClientEpochs")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%.2f\t%d\t%s\t%d\n",
			r.Policy, r.TotalProfit, r.Decisions, r.SolveTime.Round(time.Millisecond), r.Saturated)
	}
	w.Flush()
	return b.String()
}
