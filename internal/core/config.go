// Package core implements the paper's primary contribution: the
// Resource_Alloc heuristic (Figure 3) — a multi-start greedy initial
// solution built from per-cluster Assign_Distribute evaluations (closed-
// form KKT shares + dynamic programming over servers), followed by a local
// search that alternates Adjust_ResourceShares, Adjust_DispersionRates,
// TurnON_servers and TurnOFF_servers until the profit is steady.
package core

import (
	"fmt"
	"math"

	"repro/internal/telemetry"
)

// Config tunes the Resource_Alloc heuristic. Use DefaultConfig as the
// starting point.
type Config struct {
	// NumInitSolutions is the number of randomized greedy passes; the most
	// profitable initial solution seeds the local search (paper uses 3).
	NumInitSolutions int
	// AlphaGranularity is the number of grid units the dispersion rate α
	// is discretized into for the Assign_Distribute dynamic program (the
	// paper's 1/ℓ). At most math.MaxInt16, the range of the DP's
	// back-pointers.
	AlphaGranularity int
	// MaxLocalSearchIters bounds the improvement loop; 0 keeps the greedy
	// initial solution as it is.
	MaxLocalSearchIters int
	// Seed drives client-order shuffling; same seed, same solution.
	Seed int64
	// Parallel evaluates clusters concurrently (the paper's distributed
	// decision making, executed with one goroutine per cluster).
	Parallel bool
	// ShadowPriceScale scales the calibrated capacity shadow price η used
	// by the greedy share formula. >1 reserves more headroom for future
	// clients; <1 is more generous to the client being placed.
	ShadowPriceScale float64
	// Workers bounds the solver's fan-out worker pools: the multi-start
	// greedy phase (solver.go, internal/parallel), the per-shard sweeps
	// of a sharded solve (Shards) and the scoring stage of the pipelined
	// reassignment pass (reassign_pipeline.go). 0, the default,
	// uses runtime.GOMAXPROCS; 1 runs sequentially. Results are
	// bit-identical for every worker count: each greedy start draws from
	// its own seed-split RNG stream and the winner is reduced under a
	// fixed total order (profit, then start index).
	Workers int
	// CandidateClusters bounds how many candidate clusters a client is
	// scored against per placement decision. 0 (the default) keeps the
	// exact behaviour: every cluster in scope is priced with the full
	// Assign_Distribute + PlacementGain evaluation. A value in (0, K)
	// switches the greedy and reassignment phases to index-guided
	// candidate generation (alloc.Index): the top-k clusters by gain
	// upper bound are evaluated exactly, in bound order with early exit,
	// and the rest are pruned. Values >= the number of clusters in scope
	// fall back to the exact scan — k=K is the exactness fallback, proven
	// bit-identical by the equivalence tests. The client's own cluster is
	// always evaluated exactly regardless of k (the index's bound is not
	// sound for it; see alloc.Index.GainUpperBound).
	CandidateClusters int
	// Shards partitions the clusters into Shards contiguous groups that
	// solve independently — greedy placement and local-search rounds run
	// per shard on the fan-out pool, touching only the shard's own
	// clusters and clients, with a serial cross-shard reconciliation pass
	// between rounds that re-scores clients against the whole cloud and
	// moves the ones that profit from crossing a shard boundary. 0 or 1
	// disables sharding. Results are deterministic at any worker count
	// but differ from the unsharded solve (a different, equally valid
	// search trajectory).
	Shards int
	// AdmissionControl lets the provider leave a client unserved when
	// serving it would lose money (negative marginal profit). The paper's
	// constraint (6) nominally serves everyone. On the paper-shaped
	// workload.DefaultConfig() instances (seeds 1–5) the switch leaves
	// 6–16 of 100 clients out and earns +0.5% to +14.4% more; at 200
	// clients, +2.0% to +15.7%. Off is not strict constraint (6) either:
	// clients that no cluster can hold stay unplaced (16–25 of 200).
	AdmissionControl bool
	// DisableReassign skips the cross-cluster reassignment pass, keeping
	// every client in the cluster the initial solution chose.
	DisableReassign bool

	// Telemetry, when non-nil, instruments the solver: per-phase spans,
	// flight-recorder events, debug logs, and the solver metrics, which
	// each solve publishes from its Stats when it ends (DESIGN.md §8).
	// Nil (the default) disables all of it; the disabled path costs only
	// nil checks.
	Telemetry *telemetry.Set
}

// DefaultConfig returns the paper's settings.
func DefaultConfig() Config {
	return Config{
		NumInitSolutions:    3,
		AdmissionControl:    true,
		AlphaGranularity:    10,
		MaxLocalSearchIters: 20,
		Seed:                1,
		ShadowPriceScale:    1,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.NumInitSolutions <= 0:
		return fmt.Errorf("core: NumInitSolutions = %d", c.NumInitSolutions)
	case c.AlphaGranularity <= 0 || c.AlphaGranularity > math.MaxInt16:
		return fmt.Errorf("core: AlphaGranularity = %d (want 1..%d)", c.AlphaGranularity, math.MaxInt16)
	case c.MaxLocalSearchIters < 0:
		return fmt.Errorf("core: MaxLocalSearchIters = %d", c.MaxLocalSearchIters)
	case c.ShadowPriceScale <= 0:
		return fmt.Errorf("core: ShadowPriceScale = %v", c.ShadowPriceScale)
	case c.Workers < 0:
		return fmt.Errorf("core: Workers = %d", c.Workers)
	case c.CandidateClusters < 0:
		return fmt.Errorf("core: CandidateClusters = %d", c.CandidateClusters)
	case c.Shards < 0:
		return fmt.Errorf("core: Shards = %d", c.Shards)
	}
	return nil
}
