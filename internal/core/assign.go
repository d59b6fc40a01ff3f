package core

import (
	"errors"
	"fmt"

	"repro/internal/alloc"
	"repro/internal/model"
	"repro/internal/opt"
	"repro/internal/queueing"
)

// ErrCannotPlace is returned when a client cannot feasibly be served by
// the requested cluster (no disk, no stable share combination).
var ErrCannotPlace = errors.New("core: client cannot be placed in cluster")

// placementView is the read surface Assign_Distribute prices a candidate
// placement against. Both a live *alloc.Allocation and a read-only
// *alloc.View (the allocation with one client subtracted, used by the
// reassignment scoring pool) satisfy it.
type placementView interface {
	ProcShareUsed(model.ServerID) float64
	CommShareUsed(model.ServerID) float64
	DiskUsed(model.ServerID) float64
	Active(model.ServerID) bool
}

// candidateKey memoizes Assign_Distribute rows across identical servers:
// inactive servers of one class look the same to the client, so the paper
// solves them "only once" (Section V.A).
type candidateKey struct {
	class  model.ServerClassID
	availP float64
	availB float64
	diskOK bool
	active bool
}

// candidate is one server's tabulated contribution to the DP.
type candidate struct {
	server model.ServerID
	values []float64 // profit contribution per α grid unit
	shareP []float64
	shareB []float64
}

// distScratch is the working memory of one task that runs the
// Assign_Distribute kernel, plus the gain, best-portions and top-k buffers
// a scoring worker or a top-k greedy pass adds. Only the Solver's pool
// (borrowDist) makes one; a task holds it for its duration. The portions
// assignDistribute returns alias the scratch: they are valid until the
// scratch's next use (alloc.Allocation.Assign copies).
type distScratch struct {
	memo     map[candidateKey]int
	cands    []candidate
	rows     [][]float64
	arena    []float64 // backing store for values/shareP/shareB rows
	dp       opt.PortionScratch
	portions []alloc.Portion

	gain alloc.GainScratch
	best []alloc.Portion
	topK []alloc.Candidate
}

// noServer is assignDistribute's "exclude nothing".
const noServer model.ServerID = -1

// borrowDist checks a scratch out of the solver's pool, making one when
// every scratch is out; returnDist checks it back in.
func (s *Solver) borrowDist() *distScratch {
	s.distMu.Lock()
	defer s.distMu.Unlock()
	if n := len(s.distFree); n > 0 {
		scr := s.distFree[n-1]
		s.distFree = s.distFree[:n-1]
		return scr
	}
	return new(distScratch)
}

func (s *Solver) returnDist(scr *distScratch) {
	s.distMu.Lock()
	s.distFree = append(s.distFree, scr)
	s.distMu.Unlock()
}

// borrowDists refills scrs (its backing array reused) with n scratches
// from the pool; returnDists checks them all back in.
func (s *Solver) borrowDists(scrs []*distScratch, n int) []*distScratch {
	scrs = scrs[:0]
	for range n {
		scrs = append(scrs, s.borrowDist())
	}
	return scrs
}

func (s *Solver) returnDists(scrs []*distScratch) {
	for i, scr := range scrs {
		s.returnDist(scr)
		scrs[i] = nil
	}
}

// AssignDistribute evaluates the best placement of (unassigned) client i
// on cluster k given the current allocation state, without mutating it.
// It returns the approximate profit of the placement and the portions
// realizing it (paper Section V.A: closed-form shares per server and α
// grid, combined by dynamic programming so that Σα = 1). The portions are
// the caller's; concurrent calls on one Solver are safe.
func (s *Solver) AssignDistribute(a *alloc.Allocation, i model.ClientID, k model.ClusterID) (float64, []alloc.Portion, error) {
	scr := s.borrowDist()
	defer s.returnDist(scr)
	est, portions, err := s.assignDistribute(a, i, k, noServer, scr)
	if err != nil {
		return 0, nil, err
	}
	return est, append(make([]alloc.Portion, 0, len(portions)), portions...), nil
}

// assignDistribute is the one Assign_Distribute kernel, generalized over
// the read surface (live allocation or exclusion view) and evaluated in
// scr's buffers. exclude removes one server from the candidates (TurnOFF
// passes the server being drained; noServer otherwise). The returned
// portions alias scr.
func (s *Solver) assignDistribute(v placementView, i model.ClientID, k model.ClusterID,
	exclude model.ServerID, scr *distScratch) (float64, []alloc.Portion, error) {
	scen := s.scen
	if int(k) < 0 || int(k) >= scen.Cloud.NumClusters() {
		return 0, nil, fmt.Errorf("core: unknown cluster %d", k)
	}
	cl := &scen.Clients[i]
	u := scen.Utility(i)
	w := cl.ArrivalRate * u.Slope
	g := s.cfg.AlphaGranularity
	servers := scen.Cloud.ClusterServers(k)

	if scr.memo == nil {
		scr.memo = make(map[candidateKey]int, len(servers))
	} else {
		clear(scr.memo)
	}
	// Size the row arena for the worst case (every server unique) up
	// front so handing out sub-slices never reallocates mid-call.
	if need := 3 * (g + 1) * len(servers); cap(scr.arena) < need {
		scr.arena = make([]float64, need)
	}
	arena := scr.arena[:0]
	cands := scr.cands[:0]
	for _, j := range servers {
		if j == exclude {
			continue
		}
		class := scen.Cloud.ServerClass(j)
		key := candidateKey{
			class:  class.ID,
			availP: 1 - v.ProcShareUsed(j),
			availB: 1 - v.CommShareUsed(j),
			diskOK: v.DiskUsed(j)+cl.DiskNeed <= class.StoreCap,
			active: v.Active(j),
		}
		if idx, ok := scr.memo[key]; ok {
			dup := cands[idx] // an identical server shares the solved rows
			dup.server = j
			cands = append(cands, dup)
			continue
		}
		n := len(arena)
		arena = arena[:n+3*(g+1)]
		cand := candidate{
			server: j,
			values: arena[n : n+g+1 : n+g+1],
			shareP: arena[n+g+1 : n+2*(g+1) : n+2*(g+1)],
			shareB: arena[n+2*(g+1) : n+3*(g+1) : n+3*(g+1)],
		}
		s.tabulateServer(&cand, cl, u, w, class, key, g)
		scr.memo[key] = len(cands)
		cands = append(cands, cand)
	}
	scr.cands = cands
	if len(cands) == 0 {
		return 0, nil, ErrCannotPlace
	}

	rows := scr.rows[:0]
	for c := range cands {
		rows = append(rows, cands[c].values)
	}
	scr.rows = rows
	best, units, err := scr.dp.Combine(rows, g)
	if err != nil {
		if errors.Is(err, opt.ErrNoFeasibleCombination) {
			return 0, nil, ErrCannotPlace
		}
		return 0, nil, fmt.Errorf("core: assign-distribute DP: %w", err)
	}
	portions := scr.portions[:0]
	for c, ug := range units {
		if ug == 0 {
			continue
		}
		portions = append(portions, alloc.Portion{
			Server:    cands[c].server,
			Alpha:     float64(ug) / float64(g),
			ProcShare: cands[c].shareP[ug],
			CommShare: cands[c].shareB[ug],
		})
	}
	scr.portions = portions
	return best, portions, nil
}

// tabulateServer fills the per-α-grid contribution of one server into
// cand's (pre-sized, recycled) rows: the linearized revenue
// α·λ·a minus the weighted tandem delay, the marginal energy cost
// P1·α·λ̃·tp/Cp, and the activation cost P0 for an inactive server.
func (s *Solver) tabulateServer(cand *candidate, cl *model.Client, u model.UtilityClass, w float64,
	class model.ServerClass, key candidateKey, g int) {
	cand.values[0] = 0
	for ug := 1; ug <= g; ug++ {
		cand.values[ug] = opt.NegInf
		if !key.diskOK {
			continue
		}
		alpha := float64(ug) / float64(g)
		rate := alpha * cl.PredictedRate
		phiP, okP := greedyShare(w*alpha, cl.ProcTime, rate, class.ProcCap, s.prices.proc, key.availP)
		if !okP {
			continue
		}
		phiB, okB := greedyShare(w*alpha, cl.CommTime, rate, class.CommCap, s.prices.comm, key.availB)
		if !okB {
			continue
		}
		dP, errP := queueing.PortionDelay(phiP, class.ProcCap, cl.ProcTime, rate)
		dB, errB := queueing.PortionDelay(phiB, class.CommCap, cl.CommTime, rate)
		if errP != nil || errB != nil {
			continue
		}
		val := alpha*cl.ArrivalRate*u.Base -
			w*alpha*(dP+dB) -
			class.UtilizationCost*queueing.LoadFraction(class.ProcCap, cl.ProcTime, rate)
		if !key.active {
			val -= class.FixedCost
		}
		cand.values[ug] = val
		cand.shareP[ug] = phiP
		cand.shareB[ug] = phiB
	}
}
