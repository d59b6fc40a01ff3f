package experiment

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// ablationRow is the mean profit of one solver variant relative to the
// full configuration. In the per-phase table, Variant names a phase,
// MeanProfit is its mean profit delta in the full solver and Relative
// that delta as a share of the full solver's mean final profit.
type ablationRow struct {
	Variant    string
	MeanProfit float64
	Relative   float64 // vs the full solver
}

// variant mutates a solver config for one ablation arm.
type variant struct {
	name   string
	mutate func(*core.Config)
}

func ablationVariants() []variant {
	return []variant{
		{name: "full", mutate: func(*core.Config) {}},
		{name: "no-reassign", mutate: func(c *core.Config) { c.DisableReassign = true }},
		{name: "no-local-search", mutate: func(c *core.Config) { c.MaxLocalSearchIters = 0 }},
		{name: "single-init", mutate: func(c *core.Config) { c.NumInitSolutions = 1 }},
		{name: "coarse-alpha (G=4)", mutate: func(c *core.Config) { c.AlphaGranularity = 4 }},
		{name: "fine-alpha (G=20)", mutate: func(c *core.Config) { c.AlphaGranularity = 20 }},
		{name: "stingy-shares (η×4)", mutate: func(c *core.Config) { c.ShadowPriceScale = 4 }},
		{name: "generous-shares (η÷4)", mutate: func(c *core.Config) { c.ShadowPriceScale = 0.25 }},
	}
}

// ablationPhases names the local-search phases whose Attribution deltas
// runAblation reports, in the order it reads them.
var ablationPhases = []string{"share-adjust", "dispersion-adjust", "turn-on", "turn-off", "reassign"}

// runAblation evaluates every solver variant on the same sz.scenarios
// scenarios of sz.clients and, from the full variant's Stats.Attribution,
// what each local-search phase contributes to its profit (an extension:
// quantifies how much each Resource_Alloc phase contributes).
func runAblation(sz sizes, seed int64, tel *telemetry.Set) (variants, phases []ablationRow, err error) {
	vs := ablationVariants()
	sums := make([]float64, len(vs))
	phaseSums := make([]float64, len(ablationPhases))
	for s := 0; s < sz.scenarios; s++ {
		scen, err := generate(sz.clients, seed+int64(s))
		if err != nil {
			return nil, nil, err
		}
		for vi, v := range vs {
			sCfg := solverConfig(tel)
			v.mutate(&sCfg)
			solver, err := core.NewSolver(scen, sCfg)
			if err != nil {
				return nil, nil, err
			}
			a, st, err := solver.Solve()
			if err != nil {
				return nil, nil, err
			}
			sums[vi] += a.Profit()
			if vi == 0 {
				at := st.Attribution
				for p, d := range []float64{at.ShareAdjust, at.DispersionAdjust, at.TurnOn, at.TurnOff, at.Reassign} {
					phaseSums[p] += d
				}
			}
		}
	}
	n := float64(sz.scenarios)
	full := sums[0] / n
	row := func(name string, sum float64) ablationRow {
		r := ablationRow{Variant: name, MeanProfit: sum / n}
		if full != 0 {
			r.Relative = r.MeanProfit / full
		}
		return r
	}
	for vi, v := range vs {
		variants = append(variants, row(v.name, sums[vi]))
	}
	for p, name := range ablationPhases {
		phases = append(phases, row(name, phaseSums[p]))
	}
	return variants, phases, nil
}

// renderAblation renders the variant rows and the per-phase rows as text.
func renderAblation(r *Runner, sz sizes) (string, error) {
	variants, phases, err := runAblation(sz, r.seed, r.tel)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	table := func(title, header, format string, rows []ablationRow) {
		b.WriteString(title)
		w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, header)
		for _, row := range rows {
			fmt.Fprintf(w, format, row.Variant, row.MeanProfit, row.Relative)
		}
		w.Flush()
	}
	table("Ablation: mean profit of solver variants (relative to full)\n",
		"variant\tmeanProfit\trelative", "%s\t%.2f\t%.3f\n", variants)
	table("\nPer-phase profit of the full solver (share of its final profit)\n",
		"phase\tmeanDelta\tshare", "%s\t%+.4f\t%+.1e\n", phases)
	return b.String(), nil
}
