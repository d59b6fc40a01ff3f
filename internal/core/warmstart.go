package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/alloc"
	"repro/internal/model"
	"repro/internal/telemetry"
)

// SolveFromCtx re-solves for this solver's scenario starting from a
// previous epoch's allocation instead of an empty cloud (paper Figure 3:
// "curr_state_k = state of the cluster at end of prev. epoch").
//
// prev may belong to a different scenario snapshot — typically the same
// cloud with drifted client arrival rates. Every client keeps its previous
// portions when they are still feasible under the new rates; clients whose
// old placement saturates are re-placed greedily; then the usual local
// search runs. It is the common pipeline (Solver.run) with replay as the
// initial-solution builder, recorded as a solver.solve_from span that
// parents into the span carried by ctx — under the epoch controller this
// chains every epoch's solve into one trace per step.
func (s *Solver) SolveFromCtx(ctx context.Context, prev *alloc.Allocation) (*alloc.Allocation, Stats, error) {
	if prev == nil {
		return nil, Stats{}, errors.New("core: nil previous allocation")
	}
	prevScen := prev.Scenario()
	if prevScen.Cloud.NumServers() != s.scen.Cloud.NumServers() ||
		prevScen.NumClients() != s.scen.NumClients() {
		return nil, Stats{}, fmt.Errorf("core: previous allocation shape mismatch: %d/%d servers, %d/%d clients",
			prevScen.Cloud.NumServers(), s.scen.Cloud.NumServers(),
			prevScen.NumClients(), s.scen.NumClients())
	}
	return s.run(ctx, "solver.solve_from", nil, func(ctx context.Context, gsp *telemetry.Span, st *Stats) (*alloc.Allocation, error) {
		return s.replay(ctx, gsp, prev, st)
	})
}

// replay is the warm solve's initial-solution builder: prev's placements
// carried over where they still fit, the rest re-placed greedily. gsp
// records how many clients had to be re-placed; the re-placements' index
// counts are added to st.
func (s *Solver) replay(ctx context.Context, gsp *telemetry.Span, prev *alloc.Allocation, st *Stats) (*alloc.Allocation, error) {
	a := alloc.New(s.scen)
	a.Instrument(s.cfg.Telemetry)
	var displaced []model.ClientID
	for i := 0; i < s.scen.NumClients(); i++ {
		id := model.ClientID(i)
		if s.scen.Clients[i].PredictedRate == 0 {
			continue // departed since prev: drop the old placement, don't re-place
		}
		if !prev.Assigned(id) {
			displaced = append(displaced, id)
			continue
		}
		k := model.ClusterID(prev.ClusterOf(id))
		if err := a.Assign(id, k, prev.Portions(id)); err != nil {
			// The old shares no longer sustain the new rates (or disk
			// changed); re-place below once the keepers are in.
			displaced = append(displaced, id)
		}
	}
	replaced, err := s.place(a, displaced, s.all, telemetry.RefFromContext(ctx), st)
	if err != nil {
		return nil, err
	}
	gsp.Attr("replaced", replaced)
	return a, nil
}
