package core

import (
	"context"

	"repro/internal/alloc"
)

// ReassignmentPassCtx is the cloud-level move of the paper's local
// search: each client is removed and re-placed on whichever cluster now
// offers the highest exact profit ("this local search is not only used to
// change client assignment to decrease the resource saturation in some of
// clusters but also to combine the clients", Section V). It is a central-
// manager operation — unlike the per-cluster phases it may move clients
// across clusters. Returns the number of improving moves (evictions and
// re-admissions included).
//
// Candidates are compared by their exact marginal profit against the
// "client unserved" state: moving one client only changes its own revenue
// and the costs of the servers it leaves or joins, so the comparison is
// O(portions) instead of O(clients).
//
// The pass runs as a two-stage pipeline (reassign_pipeline.go): candidate
// scoring for all clients in parallel against the frozen allocation, then
// a serial commit loop in descending-gain order. Its flight-recorder
// events carry the trace context of the span in ctx, linking each
// commit/restore failure to the round it happened in. What the pass
// counts is published to Config.Telemetry. Its skip marks carry over to
// the next call on the same allocation.
func (s *Solver) ReassignmentPassCtx(ctx context.Context, a *alloc.Allocation) int {
	var st Stats
	var moves int
	s.exportedPass(a, func(rs *reassignState) {
		moves = s.reassignmentPass(ctx, a, rs, s.clients, s.all, s.cfg.Workers, false, &st)
	})
	publish(s.cfg.Telemetry, &st)
	return moves
}
