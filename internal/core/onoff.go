package core

import (
	"sort"

	"repro/internal/alloc"
	"repro/internal/model"
	"repro/internal/queueing"
)

// _commitMargin is the minimum exact-profit improvement required to commit
// a server activation or deactivation experiment.
const _commitMargin = 1e-9

// TurnOnServers tries to activate inactive servers in cluster k (paper
// Section V.B.2, TurnON_servers): for every server class with an inactive
// machine, it greedily moves client portions onto a fresh server of that
// class and commits the experiment when the exact cluster profit improves
// by more than the activation cost implicitly charged through ServerCost.
// Returns the number of servers activated.
func (s *Solver) TurnOnServers(a *alloc.Allocation, k model.ClusterID) int {
	return s.turnOnServers(a, k, s.membersOf(a, k))
}

// membersOf lists the clients assigned to cluster k.
func (s *Solver) membersOf(a *alloc.Allocation, k model.ClusterID) []model.ClientID {
	var ids []model.ClientID
	for i := range s.scen.Clients {
		if a.ClusterOf(model.ClientID(i)) == int(k) {
			ids = append(ids, model.ClientID(i))
		}
	}
	return ids
}

// turnOnServers is TurnOnServers with precomputed cluster membership so a
// per-cluster goroutine never reads other clusters' assignment fields.
func (s *Solver) turnOnServers(a *alloc.Allocation, k model.ClusterID, members []model.ClientID) int {
	var activated int
	tried := make(map[model.ServerClassID]struct{})
	for _, j := range s.scen.Cloud.ClusterServers(k) {
		if a.Active(j) {
			continue
		}
		class := s.scen.Cloud.Servers[j].Class
		if _, done := tried[class]; done {
			continue
		}
		tried[class] = struct{}{}
		if s.tryActivate(a, k, j, members) {
			activated++
		}
	}
	return activated
}

// moveCandidate is one tentative "shift part of client i onto the new
// server" move.
type moveCandidate struct {
	client model.ClientID
	next   []alloc.Portion
	delta  float64
}

// tryActivate experiments with activating server j0 inside a cluster-
// scoped transaction: it repeatedly applies the best positive-gain
// single-client move onto j0 and commits only if the exact cluster
// profit improved; otherwise the ledger rolls back with the moves.
func (s *Solver) tryActivate(a *alloc.Allocation, k model.ClusterID, j0 model.ServerID, members []model.ClientID) bool {
	txn := a.BeginClusters(k)
	maxMoves := 2 * s.cfg.AlphaGranularity
	for move := 0; move < maxMoves; move++ {
		best := s.bestMoveOnto(a, k, j0, members)
		if best == nil {
			break
		}
		txn.Capture(best.client)
		if err := a.Reassign(best.client, k, best.next); err != nil {
			break
		}
	}
	if txn.Delta() > _commitMargin {
		txn.Commit()
		return a.Active(j0)
	}
	_ = txn.Rollback()
	return false
}

// bestMoveOnto scans the cluster's clients for the most profitable shift
// of a fraction of one client's stream onto server j0, estimated with the
// exact per-move local profit (client revenue plus touched server costs).
func (s *Solver) bestMoveOnto(a *alloc.Allocation, k model.ClusterID, j0 model.ServerID, members []model.ClientID) *moveCandidate {
	scen := s.scen
	class := scen.Cloud.ServerClass(j0)
	availP := 1 - a.ProcShareUsed(j0)
	availB := 1 - a.CommShareUsed(j0)
	g := s.cfg.AlphaGranularity

	var best *moveCandidate
	for _, i := range members {
		cl := &scen.Clients[i]
		if a.DiskUsed(j0)+cl.DiskNeed > class.StoreCap {
			continue
		}
		ps := a.Portions(i)
		if hasServer(ps, j0) {
			continue // already there; dispersion adjust owns that case
		}
		w := cl.ArrivalRate * scen.Utility(i).Slope
		before := s.portionLocalProfitFor(a, i, ps, j0)
		for ug := 1; ug <= g; ug++ {
			alpha := float64(ug) / float64(g)
			rate := alpha * cl.PredictedRate
			phiP, okP := greedyShare(w*alpha, cl.ProcTime, rate, class.ProcCap, s.prices.proc, availP)
			if !okP {
				break
			}
			phiB, okB := greedyShare(w*alpha, cl.CommTime, rate, class.CommCap, s.prices.comm, availB)
			if !okB {
				break
			}
			next := scalePortions(ps, 1-alpha)
			next = append(next, alloc.Portion{Server: j0, Alpha: alpha, ProcShare: phiP, CommShare: phiB})
			after, feasible := s.evalPortions(a, i, next, j0)
			if !feasible {
				continue
			}
			if delta := after - before; delta > _commitMargin && (best == nil || delta > best.delta) {
				best = &moveCandidate{client: i, next: next, delta: delta}
			}
		}
	}
	return best
}

// hasServer reports whether the portions already include server j.
func hasServer(ps []alloc.Portion, j model.ServerID) bool {
	for _, p := range ps {
		if p.Server == j {
			return true
		}
	}
	return false
}

// scalePortions multiplies every α by f, dropping portions that vanish.
func scalePortions(ps []alloc.Portion, f float64) []alloc.Portion {
	out := make([]alloc.Portion, 0, len(ps))
	for _, p := range ps {
		p.Alpha *= f
		if p.Alpha > 0 {
			out = append(out, p)
		}
	}
	return out
}

// portionLocalProfitFor is client i's revenue minus the costs of its
// portion servers and the extra server, from current state.
func (s *Solver) portionLocalProfitFor(a *alloc.Allocation, i model.ClientID, ps []alloc.Portion, extra model.ServerID) float64 {
	p := a.Revenue(i)
	seen := map[model.ServerID]struct{}{extra: {}}
	p -= a.ServerCost(extra)
	for _, t := range ps {
		if _, ok := seen[t.Server]; ok {
			continue
		}
		seen[t.Server] = struct{}{}
		p -= a.ServerCost(t.Server)
	}
	return p
}

// evalPortions computes the hypothetical local profit of client i under
// the candidate portions without mutating the allocation: revenue from
// the implied response time, minus recomputed costs of the touched
// servers (including activation of j0 if it would become active).
func (s *Solver) evalPortions(a *alloc.Allocation, i model.ClientID, next []alloc.Portion, j0 model.ServerID) (float64, bool) {
	scen := s.scen
	cl := &scen.Clients[i]
	var resp float64
	for _, p := range next {
		class := scen.Cloud.ServerClass(p.Server)
		d, err := queueing.TandemDelay(
			queueing.PortionShares{Proc: p.ProcShare, Comm: p.CommShare},
			queueing.ServerCaps{Proc: class.ProcCap, Comm: class.CommCap},
			queueing.ExecTimes{Proc: cl.ProcTime, Comm: cl.CommTime},
			p.Alpha*cl.PredictedRate,
		)
		if err != nil {
			return 0, false
		}
		resp += p.Alpha * d
	}
	profit := cl.ArrivalRate * scen.Utility(i).Value(resp)

	// Rebuild touched-server costs under the hypothetical move.
	prev := make(map[model.ServerID]float64) // old utilization contribution
	for _, p := range a.Portions(i) {
		class := scen.Cloud.ServerClass(p.Server)
		prev[p.Server] = queueing.LoadFraction(class.ProcCap, cl.ProcTime, p.Alpha*cl.PredictedRate)
	}
	touched := map[model.ServerID]float64{j0: 0}
	for jj := range prev {
		touched[jj] = 0
	}
	for _, p := range next {
		class := scen.Cloud.ServerClass(p.Server)
		touched[p.Server] += queueing.LoadFraction(class.ProcCap, cl.ProcTime, p.Alpha*cl.PredictedRate)
	}
	for jj, newLoad := range touched {
		class := scen.Cloud.ServerClass(jj)
		baseLoad := a.ProcUtilization(jj) - prev[jj]
		othersActive := serverActiveWithout(a, jj, i)
		nowActive := othersActive || newLoad > 0
		if !nowActive {
			continue
		}
		profit -= class.FixedCost + class.UtilizationCost*(baseLoad+newLoad)
	}
	return profit, true
}

// serverActiveWithout reports whether server j would remain active if
// client i's portions were removed.
func serverActiveWithout(a *alloc.Allocation, j model.ServerID, i model.ClientID) bool {
	for _, id := range a.ClientsOn(j) {
		if id != i {
			return true
		}
	}
	return false
}

// TurnOffServers tries to deactivate active servers in cluster k (paper
// TurnOFF_servers): servers are ranked by their approximated utility and,
// lowest first, each is experimentally drained — every client portion on
// it is re-routed to the remaining servers (re-splitting the dispersion
// rates when the client keeps other portions, or fully re-assigning it
// inside the cluster otherwise). The experiment commits when the exact
// cluster profit improves. Returns the number of servers deactivated.
//
// It reads only cluster-local state (drain experiments are evaluated via
// the cluster-scoped transaction ledger, so no membership snapshot is
// needed), so callers may run it on distinct clusters concurrently.
func (s *Solver) TurnOffServers(a *alloc.Allocation, k model.ClusterID) int {
	scr := s.borrowDist()
	defer s.returnDist(scr)
	return s.turnOffServers(a, k, scr)
}

// turnOffServers is TurnOffServers with the caller's Assign_Distribute
// scratch (a sweep part reuses one across its clusters).
func (s *Solver) turnOffServers(a *alloc.Allocation, k model.ClusterID, scr *distScratch) int {
	type ranked struct {
		server  model.ServerID
		utility float64
	}
	var order []ranked
	for _, j := range s.scen.Cloud.ClusterServers(k) {
		if a.Active(j) {
			order = append(order, ranked{server: j, utility: s.serverUtility(a, j)})
		}
	}
	sort.Slice(order, func(x, y int) bool { return order[x].utility < order[y].utility })

	var deactivated int
	for _, cand := range order {
		if !a.Active(cand.server) {
			continue // drained as a side effect of an earlier commit
		}
		if s.tryDeactivate(a, k, cand.server, scr) {
			deactivated++
		}
	}
	return deactivated
}

// serverUtility approximates the utility the server currently produces:
// Σ over its portions of α·λ·U(R̄) attributed by dispersion weight.
func (s *Solver) serverUtility(a *alloc.Allocation, j model.ServerID) float64 {
	var u float64
	for _, i := range a.ClientsOn(j) {
		rev := a.Revenue(i)
		for _, p := range a.Portions(i) {
			if p.Server == j {
				u += p.Alpha * rev
			}
		}
	}
	return u
}

// tryDeactivate drains server j inside a cluster-scoped transaction and
// commits if the exact cluster profit improved.
func (s *Solver) tryDeactivate(a *alloc.Allocation, k model.ClusterID, j model.ServerID, scr *distScratch) bool {
	txn := a.BeginClusters(k)
	ok := true
	for _, i := range a.ClientsOn(j) {
		txn.Capture(i)
		if !s.rerouteOff(a, i, k, j, scr) {
			ok = false
			break
		}
	}
	if ok && txn.Delta() > _commitMargin {
		txn.Commit()
		return true
	}
	_ = txn.Rollback()
	return false
}

// rerouteOff removes client i's portion on server j. When the client has
// other portions their α are re-scaled (respecting stability caps);
// otherwise the client is fully re-assigned inside cluster k excluding j.
func (s *Solver) rerouteOff(a *alloc.Allocation, i model.ClientID, k model.ClusterID, j model.ServerID, scr *distScratch) bool {
	ps := a.Portions(i)
	var rest []alloc.Portion
	var freed float64
	for _, p := range ps {
		if p.Server == j {
			freed = p.Alpha
			continue
		}
		rest = append(rest, p)
	}
	if freed == 0 {
		return true
	}
	if len(rest) > 0 {
		if next, ok := s.respreadAlpha(rest, &s.scen.Clients[i], freed); ok {
			if err := a.Reassign(i, k, next); err == nil {
				return true
			}
		}
	}
	// Full re-assignment inside the cluster, excluding the drained server.
	a.Unassign(i)
	_, portions, err := s.assignDistribute(a, i, k, j, scr)
	if err == nil {
		if err := a.Assign(i, k, portions); err == nil {
			return true
		}
	}
	return false
}

// respreadAlpha distributes the freed dispersion mass across the
// remaining portions proportionally to their spare stability headroom.
func (s *Solver) respreadAlpha(rest []alloc.Portion, cl *model.Client, freed float64) ([]alloc.Portion, bool) {
	caps := make([]float64, len(rest))
	var headroom float64
	for n, p := range rest {
		class := s.scen.Cloud.ServerClass(p.Server)
		maxA := p.ProcShare * class.ProcCap / (cl.PredictedRate * cl.ProcTime)
		if mb := p.CommShare * class.CommCap / (cl.PredictedRate * cl.CommTime); mb < maxA {
			maxA = mb
		}
		maxA *= 1 - 1e-6
		caps[n] = maxA
		if h := maxA - p.Alpha; h > 0 {
			headroom += h
		}
	}
	if headroom <= freed {
		return nil, false
	}
	out := make([]alloc.Portion, len(rest))
	copy(out, rest)
	for n := range out {
		if h := caps[n] - out[n].Alpha; h > 0 {
			out[n].Alpha += freed * h / headroom
		}
	}
	return out, true
}
