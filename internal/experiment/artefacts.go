package experiment

import (
	"fmt"
	"io"

	"repro/internal/telemetry"
)

// sizes are the instance sizes of one artefact run; each artefact reads
// the fields it uses.
type sizes struct {
	counts         []int   // client counts (FIG4/FIG5, TAB-C)
	clients        int     // clients per instance (VAL-SIM, ABL, EPOCH, PRED)
	scenarios      int     // scenarios per client count (FIG4/FIG5, TAB-C) or per variant (ABL)
	scenariosAtMax int     // FIG4/FIG5 scenarios at the largest count
	draws, passes  int     // Monte-Carlo draws per scenario, search passes per draw
	epochs         int     // trace length (EPOCH, PRED)
	horizon        float64 // simulated time (VAL-SIM)
	workers        int     // sweep fan-out (0 = GOMAXPROCS); every count gives the same points
}

// Artefact is one row of EXPERIMENTS.md's Index: what `experiments -run
// Name` prints, at its quick size under -quick and otherwise at the size
// EXPERIMENTS.md records.
type Artefact struct {
	ID, Name    string
	quick, full sizes
	render      func(r *Runner, sz sizes) (string, error)
}

// The FIG4/FIG5 sweep sizes. The recorded run uses the paper's scenario
// counts and 600 Monte-Carlo draws instead of its 10,000: each draw
// already includes the reassignment local search, and the best-found
// envelope saturates well before 600 (EXPERIMENTS.md).
var (
	sweepQuick = sizes{counts: []int{10, 20, 50, 100, 150, 200}, scenarios: 5, scenariosAtMax: 3, draws: 100, passes: 3}
	sweepFull  = sizes{counts: []int{10, 20, 50, 100, 150, 200}, scenarios: 20, scenariosAtMax: 5, draws: 600, passes: 5}
)

// Artefacts lists the paper's artefacts and extensions in the order
// `experiments -run all` prints them.
var Artefacts = []Artefact{
	{"FIG4", "fig4", sweepQuick, sweepFull, renderFig4},
	{"FIG5", "fig5", sweepQuick, sweepFull, renderFig5},
	{"TAB-C", "complexity", sizes{counts: []int{25, 50, 100}, scenarios: 2}, sizes{counts: []int{25, 50, 100, 200}, scenarios: 3}, renderComplexity},
	{"VAL-SIM", "sim", sizes{clients: 30, horizon: 5000}, sizes{clients: 50, horizon: 20000}, renderValidation},
	{"ABL", "ablation", sizes{clients: 50, scenarios: 4}, sizes{clients: 80, scenarios: 10}, renderAblation},
	{"EPOCH", "epochs", sizes{clients: 30, epochs: 12}, sizes{clients: 50, epochs: 16}, renderEpochs},
	{"PRED", "predictors", sizes{clients: 25, epochs: 10}, sizes{clients: 40, epochs: 16}, renderPredictors},
}

// Runner prints artefacts at one mode, seed and telemetry set, running
// the FIG4/FIG5 sweep at most once.
type Runner struct {
	out   io.Writer
	quick bool
	seed  int64
	tel   *telemetry.Set
	sweep []sweepPoint
}

// NewRunner returns a runner that prints to out; tel, when non-nil,
// instruments every solver, simulation and controller the artefacts run.
func NewRunner(out io.Writer, quick bool, seed int64, tel *telemetry.Set) *Runner {
	return &Runner{out: out, quick: quick, seed: seed, tel: tel}
}

// Run prints artefact a.
func (r *Runner) Run(a Artefact) error {
	sz := a.full
	if r.quick {
		sz = a.quick
	}
	text, err := a.render(r, sz)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(r.out, text)
	return err
}

// points returns the sweep at sz, running it on first use.
func (r *Runner) points(sz sizes) ([]sweepPoint, error) {
	if r.sweep != nil {
		return r.sweep, nil
	}
	fmt.Fprintf(r.out, "running sweep: counts=%v scenarios=%d (max-count %d) draws=%d...\n",
		sz.counts, sz.scenarios, sz.scenariosAtMax, sz.draws)
	pts, err := runSweep(sz, r.seed, r.tel)
	r.sweep = pts
	return pts, err
}
