package core

import (
	"math"

	"repro/internal/alloc"
	"repro/internal/model"
	"repro/internal/opt"
)

// AdjustResourceShares re-optimizes the GPS shares of every portion on
// server j with the dispersion rates held fixed (paper Section V.B.1).
// With fixed α the problem is convex; the KKT solution is the water-fill
// of eq. (18), run independently on the processing and communication
// dimensions. The experiment runs inside a cluster-scoped transaction:
// it commits only when the exact (clipped-utility) profit does not
// decrease, and rolls the ledger back otherwise. Returns true when
// shares changed.
func (s *Solver) AdjustResourceShares(a *alloc.Allocation, j model.ServerID) bool {
	ids := a.ClientsOn(j)
	if len(ids) == 0 {
		return false
	}
	scen := s.scen
	class := scen.Cloud.ServerClass(j)
	srv := &scen.Cloud.Servers[j]

	itemsP := make([]opt.ShareItem, len(ids))
	itemsB := make([]opt.ShareItem, len(ids))
	alphas := make([]float64, len(ids))
	for n, i := range ids {
		cl := &scen.Clients[i]
		var alpha float64
		for _, p := range a.Portions(i) {
			if p.Server == j {
				alpha = p.Alpha
				break
			}
		}
		alphas[n] = alpha
		w := cl.ArrivalRate * scen.Utility(i).Slope * alpha
		rate := alpha * cl.PredictedRate
		itemsP[n] = opt.ShareItem{Weight: w, Exec: cl.ProcTime, PortionRate: rate, Cap: class.ProcCap}
		itemsB[n] = opt.ShareItem{Weight: w, Exec: cl.CommTime, PortionRate: rate, Cap: class.CommCap}
	}
	sharesP, _, errP := opt.WaterfillShares(itemsP, 1-srv.PreProcShare)
	sharesB, _, errB := opt.WaterfillShares(itemsB, 1-srv.PreCommShare)
	if errP != nil || errB != nil {
		// The current allocation is feasible, so this only happens on
		// pathological numerics; keep the existing shares.
		return false
	}

	// A share change on server j re-prices every client with a portion on
	// j; the transaction's captures and the ledger's dirty-marking track
	// exactly that set, so Delta is O(touched).
	txn := a.BeginClusters(srv.Cluster)
	ok := true
	for n, i := range ids {
		txn.Capture(i)
		k, ps := a.Unassign(i)
		for pi := range ps {
			if ps[pi].Server == j {
				ps[pi].ProcShare = sharesP[n]
				ps[pi].CommShare = sharesB[n]
			}
		}
		if err := a.Assign(i, k, ps); err != nil {
			ok = false
			break
		}
	}
	if !ok || txn.Delta() < -1e-12 {
		if err := txn.Rollback(); err != nil {
			// Restoring a previously-feasible state cannot fail; if it
			// somehow does, the allocation is corrupt and the caller's
			// Validate will catch it.
			return false
		}
		return false
	}
	txn.Commit()
	return true
}

// AdjustDispersionRates re-optimizes client i's dispersion rates α_ij
// over the servers it currently holds shares on, with the shares fixed
// (the dual of Adjust_ResourceShares; paper Section V.B.2). The profit is
// concave separable in α, solved by water-filling on the derivative.
// Portions driven to α = 0 are released. Commits only on exact profit
// improvement; returns true when the rates changed.
func (s *Solver) AdjustDispersionRates(a *alloc.Allocation, i model.ClientID) bool {
	if !a.Assigned(i) {
		return false
	}
	ps := a.Portions(i)
	if len(ps) < 2 {
		return false
	}
	scen := s.scen
	cl := &scen.Clients[i]
	w := cl.ArrivalRate * scen.Utility(i).Slope

	items := make([]opt.ConcaveItem, len(ps))
	for n, p := range ps {
		class := scen.Cloud.ServerClass(p.Server)
		var (
			mp = p.ProcShare * class.ProcCap
			mb = p.CommShare * class.CommCap
			sp = cl.PredictedRate * cl.ProcTime
			sb = cl.PredictedRate * cl.CommTime
			c  = class.UtilizationCost * cl.PredictedRate * cl.ProcTime / class.ProcCap
		)
		maxAlpha := math.Min(mp/sp, mb/sb)
		items[n] = opt.ConcaveItem{
			Cap: maxAlpha,
			Deriv: func(x float64) float64 {
				denP := mp - x*sp
				denB := mb - x*sb
				if denP <= 0 || denB <= 0 {
					return math.Inf(-1)
				}
				return -w*(cl.ProcTime*mp/(denP*denP)+cl.CommTime*mb/(denB*denB)) - c
			},
		}
	}
	xs, err := opt.MaximizeOnSimplex(items, 1)
	if err != nil {
		return false
	}

	k := model.ClusterID(a.ClusterOf(i))
	next := make([]alloc.Portion, 0, len(ps))
	for n, p := range ps {
		if xs[n] <= 0 {
			continue
		}
		p.Alpha = xs[n]
		next = append(next, p)
	}
	if len(next) == 0 {
		return false
	}

	// The move changes only client i's revenue and the costs of the
	// servers it touches; the cluster-scoped transaction measures exactly
	// that delta from the ledger.
	txn := a.BeginClusters(k)
	txn.Capture(i)
	a.Unassign(i)
	if err := a.Assign(i, k, next); err != nil {
		_ = txn.Rollback()
		return false
	}
	if txn.Delta() < -1e-12 {
		_ = txn.Rollback()
		return false
	}
	txn.Commit()
	return true
}
