package alloc

import (
	"fmt"

	"repro/internal/model"
)

// Txn is a speculative-mutation scope over an allocation: the local
// search opens one, captures each client it is about to touch, mutates
// freely through Assign/Unassign/Reassign, reads the exact profit change
// with Delta, and then either Commits (keeps the mutations) or Rolls
// back (restores every captured client, newest first). The ledger stays
// consistent on both paths because restoration replays through the same
// Assign/Unassign mutation hooks.
//
// A transaction scoped to clusters (BeginClusters) reads and writes only
// their ledgers, so per-cluster goroutines may each run their own
// transaction concurrently — the replacement for the solver's previous
// ad-hoc undo log plus clone-and-full-recompute profit helpers.
type Txn struct {
	a *Allocation
	// clusters is the transaction's scope: nil for the whole cloud, the
	// touched clusters otherwise (a sweep phase scopes its own cluster,
	// a shard's reassignment commit a move's source and target so it
	// never settles another shard's ledgers).
	clusters []model.ClusterID
	base     float64
	entries  []txnEntry
	seen     map[model.ClientID]struct{}
	// verSnap holds the cluster-version counters at Begin — the whole
	// vector for a whole-cloud scope, one entry per scoped cluster
	// otherwise — so Rollback can restore them: a rolled-back experiment
	// leaves the placement state untouched and must not register as a
	// change to the dirty-cluster tracking (allocation.go ClusterVersion).
	verSnap []uint64
}

type txnEntry struct {
	client   model.ClientID
	cluster  model.ClusterID
	portions []Portion
	assigned bool
}

// Begin opens a whole-cloud transaction: Delta measures total profit.
// Only safe when no other goroutine is mutating the allocation (it
// settles every cluster's ledger).
func (a *Allocation) Begin() *Txn {
	return &Txn{
		a:       a,
		base:    a.Profit(),
		seen:    make(map[model.ClientID]struct{}),
		verSnap: append([]uint64(nil), a.clusterVer...),
	}
}

// BeginClusters opens a transaction scoped to several clusters: Delta
// measures the summed change of their profit contributions, and the
// transaction reads and writes no other cluster's ledger or version
// counter — so per-shard goroutines may each run their own transaction
// concurrently as long as their scopes are disjoint. Mutations inside
// the transaction must stay within the scoped clusters.
func (a *Allocation) BeginClusters(ks ...model.ClusterID) *Txn {
	t := &Txn{
		a:        a,
		clusters: ks,
		seen:     make(map[model.ClientID]struct{}),
		verSnap:  make([]uint64, len(ks)),
	}
	for idx, k := range ks {
		t.base += a.ClusterProfit(k)
		t.verSnap[idx] = a.clusterVer[k]
	}
	return t
}

// Capture snapshots client i's current placement the first time it is
// touched, so Rollback can restore it. Call before mutating the client.
func (t *Txn) Capture(i model.ClientID) {
	if _, ok := t.seen[i]; ok {
		return
	}
	t.seen[i] = struct{}{}
	e := txnEntry{client: i}
	if t.a.Assigned(i) {
		e.assigned = true
		e.cluster = model.ClusterID(t.a.ClusterOf(i))
		e.portions = t.a.Portions(i)
	}
	t.entries = append(t.entries, e)
}

// Delta returns the exact profit change since Begin, evaluated through
// the incremental ledger: O(touched) per call.
func (t *Txn) Delta() float64 {
	if t.clusters == nil {
		return t.a.Profit() - t.base
	}
	var cur float64
	for _, k := range t.clusters {
		cur += t.a.ClusterProfit(k)
	}
	return cur - t.base
}

// Commit keeps the mutations and discards the undo entries. The Txn must
// not be reused afterwards.
func (t *Txn) Commit() {
	t.entries = nil
	t.seen = nil
}

// Rollback restores every captured client, newest first. Restoring a
// previously-feasible placement cannot fail; an error therefore means
// the allocation was corrupted mid-transaction and the caller should
// surface it (Validate will also catch it).
func (t *Txn) Rollback() error {
	for idx := len(t.entries) - 1; idx >= 0; idx-- {
		e := t.entries[idx]
		t.a.Unassign(e.client)
		if !e.assigned {
			continue
		}
		if err := t.a.Assign(e.client, e.cluster, e.portions); err != nil {
			return fmt.Errorf("alloc: transaction rollback of client %d failed: %w", e.client, err)
		}
	}
	// The replay above restored the placement state exactly; restore the
	// version counters too, so the speculative mutations do not mark the
	// scoped clusters as changed.
	if t.clusters == nil {
		copy(t.a.clusterVer, t.verSnap)
	} else {
		for idx, k := range t.clusters {
			t.a.clusterVer[k] = t.verSnap[idx]
		}
	}
	t.entries = nil
	t.seen = nil
	return nil
}
