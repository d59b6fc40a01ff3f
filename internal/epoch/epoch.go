// Package epoch runs the allocator across decision epochs (paper Section
// III: the resource allocation problem is re-solved each decision epoch
// as client request rates drift; small changes are absorbed by cluster
// dispatchers, large ones trigger a new cloud-level decision).
//
// Each epoch mutates the client arrival rates with a configurable
// stochastic process, re-solves either warm (from the previous epoch's
// allocation, as the paper's pseudo-code does) or cold (from scratch),
// and measures realized profit under the *actual* rates — including the
// SLA damage when the drift saturates previously adequate shares.
package epoch

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/queueing"
)

// RateProcess evolves a client's arrival rate between epochs.
type RateProcess interface {
	// Next returns the new rate given the current one.
	Next(rng *rand.Rand, current float64) float64
}

// RandomWalk multiplies the rate by exp(N(0,Sigma)) and clamps to
// [Min, Max].
type RandomWalk struct {
	Sigma float64
	Min   float64
	Max   float64
}

// Next implements RateProcess.
func (p RandomWalk) Next(rng *rand.Rand, current float64) float64 {
	next := current * math.Exp(rng.NormFloat64()*p.Sigma)
	return clamp(next, p.Min, p.Max)
}

// Burst keeps the rate unless a burst fires (probability Prob), which
// multiplies it by Factor for one epoch; clamped to [Min, Max].
type Burst struct {
	Prob   float64
	Factor float64
	Min    float64
	Max    float64
}

// Next implements RateProcess.
func (p Burst) Next(rng *rand.Rand, current float64) float64 {
	if rng.Float64() < p.Prob {
		return clamp(current*p.Factor, p.Min, p.Max)
	}
	return clamp(current, p.Min, p.Max)
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if hi > 0 && x > hi {
		return hi
	}
	return x
}

// Config controls an epoch run.
type Config struct {
	// Epochs is the number of decision epochs to simulate.
	Epochs int
	// Process drifts every client's rate between epochs.
	Process RateProcess
	// WarmStart re-solves from the previous epoch's allocation (the
	// paper's approach); false re-solves from scratch every epoch.
	WarmStart bool
	// PredictionLag blends the allocator's predicted rate: the epoch-k
	// prediction is lag·(previous actual) + (1−lag)·(new actual). 0 means
	// perfect prediction; 1 means the allocator always provisions for
	// last epoch's rates.
	PredictionLag float64
	// Seed drives the drift.
	Seed int64
	// Solver configures the allocator.
	Solver core.Config
}

// DefaultConfig drifts rates with a 10% random walk over 20 epochs,
// warm-starting like the paper.
func DefaultConfig() Config {
	return Config{
		Epochs:    20,
		Process:   RandomWalk{Sigma: 0.1, Min: 0.1, Max: 10},
		WarmStart: true,
		Seed:      1,
		Solver:    core.DefaultConfig(),
	}
}

// Result is one epoch's outcome.
type Result struct {
	Epoch int
	// PlannedProfit is the allocator's analytic profit at its predicted
	// rates.
	PlannedProfit float64
	// RealizedProfit re-prices the allocation at the actual rates
	// (saturated clients earn nothing).
	RealizedProfit float64
	// SaturatedClients had at least one portion overwhelmed by the actual
	// rates.
	SaturatedClients int
	// Migrations counts clients whose server set changed vs the previous
	// epoch.
	Migrations int
	// ActiveServers after this epoch's decision.
	ActiveServers int
	// SolveTime of the epoch's decision.
	SolveTime time.Duration
}

// Run simulates the epochs on (a copy of) the scenario.
func Run(scen *model.Scenario, cfg Config) ([]Result, error) {
	if cfg.Epochs <= 0 {
		return nil, fmt.Errorf("epoch: Epochs = %d", cfg.Epochs)
	}
	if cfg.Process == nil {
		return nil, errors.New("epoch: nil rate process")
	}
	if cfg.PredictionLag < 0 || cfg.PredictionLag > 1 {
		return nil, fmt.Errorf("epoch: PredictionLag = %v", cfg.PredictionLag)
	}
	if err := scen.Validate(); err != nil {
		return nil, fmt.Errorf("epoch: %w", err)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Work on a private copy: epochs mutate client rates.
	cur := model.CloneScenario(scen)
	var (
		results []Result
		prev    *alloc.Allocation
	)
	for e := 0; e < cfg.Epochs; e++ {
		if e > 0 {
			drift(cur, cfg, rng)
		}
		solver, err := core.NewSolver(cur, cfg.Solver)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		var a *alloc.Allocation
		if cfg.WarmStart && prev != nil {
			a, _, err = solver.SolveFrom(prev)
		} else {
			a, _, err = solver.Solve()
		}
		if err != nil {
			return nil, err
		}
		res := Result{
			Epoch:         e,
			SolveTime:     time.Since(start),
			PlannedProfit: a.Profit(),
			ActiveServers: a.NumActiveServers(),
		}
		res.RealizedProfit, res.SaturatedClients = Realize(cur, a)
		if prev != nil {
			res.Migrations = migrations(prev, a)
		}
		results = append(results, res)
		prev = a
	}
	return results, nil
}

// drift advances every client's actual rate and sets the predicted rate
// the allocator will see.
func drift(scen *model.Scenario, cfg Config, rng *rand.Rand) {
	for i := range scen.Clients {
		cl := &scen.Clients[i]
		prevActual := cl.ArrivalRate
		cl.ArrivalRate = cfg.Process.Next(rng, cl.ArrivalRate)
		cl.PredictedRate = cfg.PredictionLag*prevActual + (1-cfg.PredictionLag)*cl.ArrivalRate
	}
}

// Realize prices the allocation at the actual arrival rates: response
// times are recomputed with the actual per-portion loads; a saturated
// portion voids the client's revenue for the epoch. Returns the realized
// profit and the number of saturated clients.
func Realize(scen *model.Scenario, a *alloc.Allocation) (float64, int) {
	var profit float64
	var saturated int
	actualLoad := make([]float64, scen.Cloud.NumServers())
	for i := range scen.Clients {
		id := model.ClientID(i)
		if !a.Assigned(id) {
			continue
		}
		cl := &scen.Clients[i]
		var resp float64
		ok := true
		for _, p := range a.Portions(id) {
			class := scen.Cloud.ServerClass(p.Server)
			rate := p.Alpha * cl.ArrivalRate
			actualLoad[p.Server] += queueing.LoadFraction(class.ProcCap, cl.ProcTime, rate)
			d, err := queueing.TandemDelay(
				queueing.PortionShares{Proc: p.ProcShare, Comm: p.CommShare},
				queueing.ServerCaps{Proc: class.ProcCap, Comm: class.CommCap},
				queueing.ExecTimes{Proc: cl.ProcTime, Comm: cl.CommTime},
				rate,
			)
			if err != nil {
				ok = false
				break
			}
			resp += p.Alpha * d
		}
		if !ok {
			saturated++
			continue
		}
		profit += cl.ArrivalRate * scen.Utility(id).Value(resp)
	}
	// The energy cost is paid at the actual utilization, not the planned
	// one. A saturated portion still occupies its full GPS share; charge
	// its utilization capped at the share itself.
	for j := range scen.Cloud.Servers {
		id := model.ServerID(j)
		if !a.Active(id) {
			continue
		}
		class := scen.Cloud.ServerClass(id)
		load := actualLoad[j]
		if lim := a.ProcShareUsed(id); load > lim {
			load = lim
		}
		profit -= class.FixedCost + class.UtilizationCost*load
	}
	return profit, saturated
}

// migrations counts clients whose serving-server set changed.
func migrations(prev, next *alloc.Allocation) int {
	var n int
	for i := 0; i < prev.Scenario().NumClients(); i++ {
		id := model.ClientID(i)
		if !sameServers(prev.Portions(id), next.Portions(id)) {
			n++
		}
	}
	return n
}

func sameServers(a, b []alloc.Portion) bool {
	if len(a) != len(b) {
		return false
	}
	set := make(map[model.ServerID]struct{}, len(a))
	for _, p := range a {
		set[p.Server] = struct{}{}
	}
	for _, p := range b {
		if _, ok := set[p.Server]; !ok {
			return false
		}
	}
	return true
}
