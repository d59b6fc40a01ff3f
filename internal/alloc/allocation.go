// Package alloc holds the mutable state of a resource-allocation solution:
// which cluster each client is assigned to, the dispersion rates α_ij, the
// GPS shares φp_ij / φb_ij, per-server bookkeeping, profit evaluation and
// full feasibility validation against the paper's constraints (3)–(12).
package alloc

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/model"
	"repro/internal/queueing"
)

// Unassigned is the cluster value of a client that is not yet placed.
const Unassigned = -1

// _alphaTol absorbs floating-point error in "Σα = 1" checks.
const _alphaTol = 1e-6

// _shareTol absorbs floating-point error in share-budget checks.
const _shareTol = 1e-6

// Portion is the allocation of one slice of a client's request stream on
// one server: the dispersion rate α and the two GPS shares.
type Portion struct {
	Server    model.ServerID
	Alpha     float64
	ProcShare float64
	CommShare float64
}

type serverState struct {
	procShare float64 // allocated processing share incl. pre-allocated
	commShare float64 // allocated communication share incl. pre-allocated
	disk      float64 // reserved disk incl. pre-allocated
	procLoad  float64 // Σ α·λ̃·tp / Cp over portions (utilization, for cost)
	clients   map[model.ClientID]struct{}
}

// Allocation is a complete (possibly partial) solution over a scenario.
// Alongside the raw placement state it maintains an incremental profit
// ledger (see ledger.go): per-client revenue and per-server cost caches
// plus per-cluster running totals, kept consistent by dirty-marking every
// mutation so profit evaluation costs O(touched) instead of O(cloud).
type Allocation struct {
	scen      *model.Scenario
	clusterOf []int
	portions  [][]Portion
	servers   []serverState

	// Incremental profit ledger (ledger.go). Entry-indexed caches are
	// owned by the cluster the client/server belongs to; per-cluster
	// totals and dirty sets live in ledgers.
	clientRev    []float64
	clientServed []bool
	clientSat    []bool
	clientDirty  []bool
	serverCost   []float64
	serverOn     []bool
	serverDirty  []bool
	ledgers      []clusterLedger

	// clusterVer counts the mutations applied to each cluster: Assign and
	// Unassign bump the touched cluster's counter, and a rolled-back
	// transaction restores the counters it scoped (txn.go) so speculative
	// experiments do not register as changes. The reassignment pass uses
	// the counters to skip rescoring clients whose relevant clusters are
	// untouched since the previous round.
	clusterVer []uint64

	// tel instruments the ledger (nil, the default, disables it); see
	// Instrument.
	tel *ledgerTel
}

// New creates an empty allocation (every client unassigned) for the
// scenario, which must already be validated.
func New(scen *model.Scenario) *Allocation {
	a := &Allocation{
		scen:      scen,
		clusterOf: make([]int, len(scen.Clients)),
		portions:  make([][]Portion, len(scen.Clients)),
		servers:   make([]serverState, len(scen.Cloud.Servers)),

		clientRev:    make([]float64, len(scen.Clients)),
		clientServed: make([]bool, len(scen.Clients)),
		clientSat:    make([]bool, len(scen.Clients)),
		clientDirty:  make([]bool, len(scen.Clients)),
		serverCost:   make([]float64, len(scen.Cloud.Servers)),
		serverOn:     make([]bool, len(scen.Cloud.Servers)),
		serverDirty:  make([]bool, len(scen.Cloud.Servers)),
		ledgers:      make([]clusterLedger, scen.Cloud.NumClusters()),
		clusterVer:   make([]uint64, scen.Cloud.NumClusters()),
	}
	for i := range a.clusterOf {
		a.clusterOf[i] = Unassigned
	}
	for j := range a.servers {
		srv := &scen.Cloud.Servers[j]
		a.servers[j] = serverState{
			procShare: srv.PreProcShare,
			commShare: srv.PreCommShare,
			disk:      srv.PreDisk,
			clients:   make(map[model.ClientID]struct{}),
		}
	}
	return a
}

// Scenario returns the scenario the allocation is for.
func (a *Allocation) Scenario() *model.Scenario { return a.scen }

// ClusterOf returns the cluster of client i, or Unassigned.
func (a *Allocation) ClusterOf(i model.ClientID) int { return a.clusterOf[i] }

// Assigned reports whether client i is placed.
func (a *Allocation) Assigned(i model.ClientID) bool { return a.clusterOf[i] != Unassigned }

// ClusterVersion returns cluster k's mutation counter: it advances on
// every committed Assign/Unassign touching the cluster and is restored by
// rolled-back transactions, so an unchanged value means the cluster's
// placement state is exactly as it was.
func (a *Allocation) ClusterVersion(k model.ClusterID) uint64 { return a.clusterVer[k] }

// ClusterVersionSumOf folds the version counters of clusters ks into one
// value; a change in any of them changes the sum (up to the
// astronomically unlikely exact cancellation of a bump against a rollback
// restore). It reads no other cluster's counter, so a shard's "did
// anything I can see change?" check never races another shard's writes.
func (a *Allocation) ClusterVersionSumOf(ks []model.ClusterID) uint64 {
	var sum uint64
	for _, k := range ks {
		sum += a.clusterVer[k]
	}
	return sum
}

// Portions returns a copy of client i's portions.
func (a *Allocation) Portions(i model.ClientID) []Portion {
	ps := a.portions[i]
	if len(ps) == 0 {
		return nil
	}
	out := make([]Portion, len(ps))
	copy(out, ps)
	return out
}

// Assign places an unassigned client on cluster k with the given portions.
// Portions with Alpha == 0 are dropped. The assignment is validated for
// feasibility (budget, disk, stability, Σα = 1, single cluster) and the
// state is only mutated when it is feasible.
func (a *Allocation) Assign(i model.ClientID, k model.ClusterID, portions []Portion) error {
	if a.Assigned(i) {
		return fmt.Errorf("alloc: client %d already assigned to cluster %d", i, a.clusterOf[i])
	}
	kept, err := a.checkPortions(i, k, portions)
	if err != nil {
		return err
	}
	a.clusterOf[i] = int(k)
	a.portions[i] = kept
	cl := &a.scen.Clients[i]
	for _, p := range kept {
		st := &a.servers[p.Server]
		class := a.scen.Cloud.ServerClass(p.Server)
		st.procShare += p.ProcShare
		st.commShare += p.CommShare
		st.procLoad += queueing.LoadFraction(class.ProcCap, cl.ProcTime, p.Alpha*cl.PredictedRate)
		if _, ok := st.clients[i]; !ok {
			st.clients[i] = struct{}{}
			st.disk += cl.DiskNeed
		}
		a.markServerDirty(p.Server)
	}
	a.ledgers[k].assigned++
	a.markClientDirty(i, int(k))
	a.clusterVer[k]++
	return nil
}

// Unassign removes client i from the allocation and returns its previous
// cluster and portions so callers can restore them.
func (a *Allocation) Unassign(i model.ClientID) (model.ClusterID, []Portion) {
	if !a.Assigned(i) {
		return Unassigned, nil
	}
	k := model.ClusterID(a.clusterOf[i])
	ps := a.portions[i]
	cl := &a.scen.Clients[i]
	for _, p := range ps {
		st := &a.servers[p.Server]
		class := a.scen.Cloud.ServerClass(p.Server)
		st.procShare -= p.ProcShare
		st.commShare -= p.CommShare
		st.procLoad -= queueing.LoadFraction(class.ProcCap, cl.ProcTime, p.Alpha*cl.PredictedRate)
		if _, ok := st.clients[i]; ok {
			delete(st.clients, i)
			st.disk -= cl.DiskNeed
		}
		a.markServerDirty(p.Server)
	}
	// Settle the client eagerly so unassigned clients are never dirty:
	// remove its cached revenue attribution from the cluster's ledger. Any
	// stale dirty-list entry is skipped at flush time via the flag.
	led := &a.ledgers[k]
	led.assigned--
	a.clientDirty[i] = false
	led.rev.add(-a.clientRev[i])
	a.clientRev[i] = 0
	if a.clientServed[i] {
		led.served--
		a.clientServed[i] = false
	}
	if a.clientSat[i] {
		led.saturated--
		a.clientSat[i] = false
	}
	a.clusterOf[i] = Unassigned
	a.portions[i] = nil
	a.clusterVer[k]++
	return k, ps
}

// Reassign atomically replaces client i's allocation (possibly moving it
// to another cluster). On error the previous allocation is restored.
func (a *Allocation) Reassign(i model.ClientID, k model.ClusterID, portions []Portion) error {
	prevK, prev := a.Unassign(i)
	if err := a.Assign(i, k, portions); err != nil {
		if prevK != Unassigned {
			if restoreErr := a.Assign(i, prevK, prev); restoreErr != nil {
				return errors.Join(err, fmt.Errorf("alloc: restore failed: %w", restoreErr))
			}
		}
		return err
	}
	return nil
}

// checkPortions validates a candidate assignment against the current state
// and returns the non-zero portions.
func (a *Allocation) checkPortions(i model.ClientID, k model.ClusterID, portions []Portion) ([]Portion, error) {
	if int(k) < 0 || int(k) >= a.scen.Cloud.NumClusters() {
		return nil, fmt.Errorf("alloc: unknown cluster %d", k)
	}
	cl := &a.scen.Clients[i]
	var kept []Portion
	var alphaSum float64
	seen := make(map[model.ServerID]struct{}, len(portions))
	for _, p := range portions {
		if p.Alpha == 0 {
			continue
		}
		if p.Alpha < 0 || p.Alpha > 1+_alphaTol {
			return nil, fmt.Errorf("alloc: client %d portion on server %d has α=%v", i, p.Server, p.Alpha)
		}
		if int(p.Server) < 0 || int(p.Server) >= len(a.servers) {
			return nil, fmt.Errorf("alloc: client %d references unknown server %d", i, p.Server)
		}
		if a.scen.Cloud.Servers[p.Server].Cluster != k {
			return nil, fmt.Errorf("alloc: client %d portion on server %d outside cluster %d (constraint 6)",
				i, p.Server, k)
		}
		if _, dup := seen[p.Server]; dup {
			return nil, fmt.Errorf("alloc: client %d has duplicate portions on server %d", i, p.Server)
		}
		seen[p.Server] = struct{}{}

		class := a.scen.Cloud.ServerClass(p.Server)
		rate := p.Alpha * cl.PredictedRate
		if p.ProcShare <= queueing.MinStableShare(class.ProcCap, cl.ProcTime, rate) {
			return nil, fmt.Errorf("alloc: client %d on server %d: processing share %v unstable (constraint 7)",
				i, p.Server, p.ProcShare)
		}
		if p.CommShare <= queueing.MinStableShare(class.CommCap, cl.CommTime, rate) {
			return nil, fmt.Errorf("alloc: client %d on server %d: communication share %v unstable (constraint 7)",
				i, p.Server, p.CommShare)
		}
		st := &a.servers[p.Server]
		if st.procShare+p.ProcShare > 1+_shareTol {
			return nil, fmt.Errorf("alloc: server %d processing share budget exceeded (constraint 4)", p.Server)
		}
		if st.commShare+p.CommShare > 1+_shareTol {
			return nil, fmt.Errorf("alloc: server %d communication share budget exceeded (constraint 4)", p.Server)
		}
		if st.disk+cl.DiskNeed > class.StoreCap+_shareTol {
			return nil, fmt.Errorf("alloc: server %d disk capacity exceeded (constraints 5,8)", p.Server)
		}
		alphaSum += p.Alpha
		kept = append(kept, p)
	}
	if math.Abs(alphaSum-1) > _alphaTol {
		return nil, fmt.Errorf("alloc: client %d dispersion rates sum to %v, want 1 (constraint 6)", i, alphaSum)
	}
	return kept, nil
}
