package main

// This file is the single list of what the benchmark runs and prints.
// BENCHMARK.json at the root of the repository repeats it for the driver;
// TestBenchmarkJSONMatchesSpec fails when the two disagree.

// refSeconds is the --seconds value the full sizes below are fixed for:
// on the reference host (2 vCPU, go1.24) every timed region then lasts
// about that long. Another --seconds scales the repeat counts linearly.
const refSeconds = 6

// Floors below which a full-size result is refused (see README, "Why the
// sizes are what they are").
const (
	minRunS   = 4.0
	minSetupS = 0.3
)

// The seeds each workload's clouds are drawn from (see env.generate).
const (
	paperCloudSeed  = 7000 // + instance index
	shardCloudSeed  = 7100 // main; +1 warm-up; +2 small
	onlineCloudSeed = 7200
	distCloudSeed   = 7300 // main; +1 small
)

type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the median it may worsen
}

type workloadSpec struct {
	Name  string
	Why   string
	setup func(e *env) (instance, error)
}

var workloads = []workloadSpec{
	{"batch_paper", "60 paper-shaped instances (5 clusters, 200 clients) at solver defaults: all work in core greedy/sweeps/reassign, opt and the alloc ledger; bypasses index, shards, reconcile, warm start and wire", setupBatchPaper},
	{"batch_sharded", "one 20000-client, 200-cluster instance, top-6 pruning, 25 shards: the only workload where alloc.Index.TopK, the parallel fan-out, serial reconcile and allocation churn dominate", setupBatchSharded},
	{"online_commit", "9 replicas of 480 clients on 16 clusters, 800 churn events each in sync mode, about 190 commits: the write path of online (rate copy, warm SolveFromCtx, NewIndex, publish)", setupOnlineCommit},
	{"online_decide", "4 replicas of the same instance, thresholds out of reach, 4 Mi rate-change events each, a Flush every 2^20: the read path (GainUpperBoundAt); any allocation on it shows in alloc_mb", setupOnlineDecide},
	{"dist_tcp", "1440 clients on 12 cluster agents behind agentrpc over loopback TCP, one Manager.Solve: the only workload that crosses the wire; profit must equal the in-process manager's", setupDistTCP},
}

var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"run_s", "s", "lower", 0.25},
	{"stall_p50_s", "s", "lower", 0.25},
	{"alloc_mb", "MB", "lower", 0.15},
	{"profit_frac", "ratio", "higher", 0.06},
	{"placed_frac", "ratio", "higher", 0.05},
}

var perLayer = []metricSpec{
	// workload, model
	{Name: "workload.generate_s", Unit: "s", Better: "lower"},
	{Name: "model.validate_s", Unit: "s", Better: "lower"},
	{Name: "model.clone_s", Unit: "s", Better: "lower"},
	// opt
	{Name: "opt.waterfill_ns", Unit: "ns", Better: "lower"},
	{Name: "opt.combine_ns", Unit: "ns", Better: "lower"},
	// alloc ledger
	{Name: "alloc.new_s", Unit: "s", Better: "lower"},
	{Name: "alloc.clone_ns", Unit: "ns", Better: "lower"},
	{Name: "alloc.validate_ns", Unit: "ns", Better: "lower"},
	{Name: "alloc.profit_ns", Unit: "ns", Better: "lower"},
	{Name: "alloc.recompute_ns", Unit: "ns", Better: "lower"},
	{Name: "alloc.txn_ns", Unit: "ns", Better: "lower"},
	{Name: "alloc.view_gain_ns", Unit: "ns", Better: "lower"},
	// alloc index
	{Name: "alloc.index_build_ns", Unit: "ns", Better: "lower"},
	{Name: "alloc.index_refresh_ns", Unit: "ns", Better: "lower"},
	{Name: "alloc.topk_ns", Unit: "ns", Better: "lower"},
	{Name: "alloc.bound_ns", Unit: "ns", Better: "lower"},
	{Name: "alloc.bound_at_ns", Unit: "ns", Better: "lower"},
	{Name: "alloc.topk_hit_frac", Unit: "ratio", Better: "higher"},
	// core phases
	{Name: "core.greedy_s", Unit: "s", Better: "lower"},
	{Name: "core.improve_s", Unit: "s", Better: "lower"},
	{Name: "core.greedy_stat_s", Unit: "s", Better: "lower"},
	{Name: "core.sweep_s", Unit: "s", Better: "lower"},
	{Name: "core.reassign_s", Unit: "s", Better: "lower"},
	{Name: "core.reconcile_s", Unit: "s", Better: "lower"},
	{Name: "core.reassign_pass_s", Unit: "s", Better: "lower"},
	{Name: "core.reassign_converged_ns", Unit: "ns", Better: "lower"},
	{Name: "core.reassign_moves", Unit: "count", Better: "lower"},
	// core kernels
	{Name: "core.assign_distribute_ns", Unit: "ns", Better: "lower"},
	{Name: "core.adjust_shares_ns", Unit: "ns", Better: "lower"},
	{Name: "core.adjust_dispersion_ns", Unit: "ns", Better: "lower"},
	{Name: "core.turn_on_ns", Unit: "ns", Better: "lower"},
	{Name: "core.turn_off_ns", Unit: "ns", Better: "lower"},
	// core warm start and scaling
	{Name: "core.warm_solve_s", Unit: "s", Better: "lower"},
	{Name: "core.warm_over_cold", Unit: "ratio", Better: "lower"},
	{Name: "core.w1_s", Unit: "s", Better: "lower"},
	{Name: "core.speedup_wmax", Unit: "ratio", Better: "higher"},
	{Name: "core.prune_loss_frac", Unit: "ratio", Better: "lower"},
	// core outcome counts
	{Name: "core.ls_iters", Unit: "count", Better: "lower"},
	{Name: "core.activations", Unit: "count", Better: "lower"},
	{Name: "core.deactivations", Unit: "count", Better: "lower"},
	{Name: "core.reassignments", Unit: "count", Better: "lower"},
	{Name: "core.unplaced", Unit: "count", Better: "lower"},
	{Name: "core.attr_initial", Unit: "currency", Better: "higher"},
	{Name: "core.attr_sweeps", Unit: "currency", Better: "higher"},
	{Name: "core.attr_reassign", Unit: "currency", Better: "higher"},
	{Name: "core.attr_reconcile", Unit: "currency", Better: "higher"},
	{Name: "core.attr_residual", Unit: "currency", Better: "lower"},
	// parallel
	{Name: "parallel.for_overhead_ns", Unit: "ns", Better: "lower"},
	// online
	{Name: "online.new_s", Unit: "s", Better: "lower"},
	{Name: "online.decide_ns_p50", Unit: "ns", Better: "lower"},
	{Name: "online.decide_ns_p99", Unit: "ns", Better: "lower"},
	{Name: "online.decide_batch_ns", Unit: "ns", Better: "lower"},
	{Name: "online.flush_s", Unit: "s", Better: "lower"},
	{Name: "online.commit_count", Unit: "count", Better: "lower"},
	{Name: "online.events_per_commit", Unit: "count", Better: "higher"},
	{Name: "online.commit_total_s", Unit: "s", Better: "lower"},
	{Name: "online.stall_p90_s", Unit: "s", Better: "lower"},
	{Name: "online.stall_max_s", Unit: "s", Better: "lower"},
	{Name: "online.commit_unattributed_s", Unit: "s", Better: "lower"},
	{Name: "online.admit_frac", Unit: "ratio", Better: "higher"},
	{Name: "online.reject_count", Unit: "count", Better: "lower"},
	{Name: "online.retention", Unit: "ratio", Better: "higher"},
	{Name: "online.churn_next_ns", Unit: "ns", Better: "lower"},
	// cluster
	{Name: "cluster.calls_evaluate", Unit: "count", Better: "lower"},
	{Name: "cluster.calls_commit", Unit: "count", Better: "lower"},
	{Name: "cluster.calls_remove", Unit: "count", Better: "lower"},
	{Name: "cluster.calls_improve", Unit: "count", Better: "lower"},
	{Name: "cluster.calls_profit", Unit: "count", Better: "lower"},
	{Name: "cluster.calls_snapshot", Unit: "count", Better: "lower"},
	{Name: "cluster.calls_reset", Unit: "count", Better: "lower"},
	{Name: "cluster.evaluate_ns", Unit: "ns", Better: "lower"},
	{Name: "cluster.improve_s", Unit: "s", Better: "lower"},
	{Name: "cluster.snapshot_ns", Unit: "ns", Better: "lower"},
	{Name: "cluster.solve_local_s", Unit: "s", Better: "lower"},
	{Name: "cluster.init_s", Unit: "s", Better: "lower"},
	{Name: "cluster.rounds", Unit: "count", Better: "lower"},
	{Name: "cluster.round_p50_s", Unit: "s", Better: "lower"},
	// agentrpc
	{Name: "agentrpc.dial_ns", Unit: "ns", Better: "lower"},
	{Name: "agentrpc.evaluate_rtt_ns", Unit: "ns", Better: "lower"},
	{Name: "agentrpc.commit_rtt_ns", Unit: "ns", Better: "lower"},
	{Name: "agentrpc.snapshot_rtt_ns", Unit: "ns", Better: "lower"},
	{Name: "agentrpc.wire_mb", Unit: "MB", Better: "lower"},
	{Name: "agentrpc.bytes_per_call", Unit: "B", Better: "lower"},
	{Name: "agentrpc.wire_share", Unit: "ratio", Better: "lower"},
	{Name: "agentrpc.call_errors", Unit: "count", Better: "lower"},
	{Name: "agentrpc.retries", Unit: "count", Better: "lower"},
	// telemetry and the benchmark's own tracing
	{Name: "telemetry.solve_overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "telemetry.decide_overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
	// runtime
	{Name: "runtime.cpu_s", Unit: "s", Better: "lower"},
	{Name: "runtime.cpu_over_wall", Unit: "ratio", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.mallocs_k", Unit: "1e3", Better: "lower"},
	{Name: "runtime.peak_heap_mb", Unit: "MB", Better: "lower"},
}

// sizes fixes how much work each workload does. Same sizes and seed ⇒
// same inputs, same attempted counts, same profit.
type sizes struct {
	PaperInstances, PaperWarm, PaperClients int

	ShardClients, ShardWarmClients, ShardCount, ShardTopK int

	OnlineClients, OnlineClusters            int
	CommitEvents, CommitWarm, CommitReplicas int // events over all replicas
	DecideEvents, DecideWarm, DecideReplicas int
	DecideBatch, DecideFlush                 int
	DecideProbe                              int // events of the traced run's single-decision probe

	DistClients, DistClusters int

	// Full reports whether these are the full sizes, to which the
	// duration floors apply.
	Full bool
}

// fullSizes are the sizes the issue fixed, with the repeat counts scaled
// by seconds/refSeconds. The instance shapes (clients per instance,
// clusters, shards) never scale, so a per-layer number means the same
// thing at any --seconds; the two single-solve workloads scale by client
// count because they have no repeat count.
func fullSizes(secs int) sizes {
	scale := func(n int) int { return max(1, n*secs/refSeconds) }
	return sizes{
		PaperInstances: scale(60), PaperWarm: 10, PaperClients: 200,
		ShardClients: scale(20000), ShardWarmClients: 4000, ShardCount: 25, ShardTopK: 6,
		OnlineClients: 480, OnlineClusters: 16,
		CommitEvents: scale(7200), CommitWarm: 1200, CommitReplicas: 9,
		DecideEvents: scale(16 << 20), DecideWarm: 2 << 20, DecideReplicas: 4,
		DecideBatch: 1 << 16, DecideFlush: 1 << 20, DecideProbe: 1 << 20,
		DistClients: scale(1440), DistClusters: 12,
		Full: secs >= refSeconds,
	}
}

// smokeSizes are about 1/50 of full size, for the tests.
func smokeSizes() sizes {
	return sizes{
		PaperInstances: 4, PaperWarm: 1, PaperClients: 50,
		ShardClients: 300, ShardWarmClients: 120, ShardCount: 2, ShardTopK: 3,
		OnlineClients: 60, OnlineClusters: 4,
		CommitEvents: 300, CommitWarm: 30, CommitReplicas: 2,
		DecideEvents: 20000, DecideWarm: 2048, DecideReplicas: 2,
		DecideBatch: 2048, DecideFlush: 4096, DecideProbe: 1 << 14,
		DistClients: 60, DistClusters: 3,
	}
}
