// Package cloudalloc is an open-source reproduction of "Maximizing Profit
// in Cloud Computing System via Resource Allocation" (Goudarzi & Pedram,
// ICDCS 2011): SLA-based, profit-maximizing allocation of processing,
// communication and storage resources in a cloud of heterogeneous
// clusters.
//
// The package is a facade over the internal implementation:
//
//   - GenerateScenario builds random problem instances with the paper's
//     parameter distributions (internal/workload).
//   - NewAllocator runs the paper's Resource_Alloc heuristic
//     (internal/core): a multi-start greedy initial solution built from
//     per-cluster Assign_Distribute evaluations, then a local search that
//     adjusts GPS shares, dispersion rates and the active server set.
//   - SolveModifiedPS and RunMonteCarlo are the paper's two comparators
//     (internal/baseline).
//   - Simulate drives a discrete-event simulation of an allocation to
//     validate the analytical M/M/1 GPS model (internal/sim).
//   - NewManager / NewLocalAgent / ServeAgent / DialAgent run the
//     distributed manager-and-cluster-agents decomposition, in-process or
//     over TCP (internal/cluster, internal/agentrpc).
//
// Profit evaluation — the inner loop of every solver and baseline — is
// incremental: the allocation keeps a dirty-tracked, per-cluster profit
// ledger (internal/alloc), so re-evaluating after a local-search move
// costs O(touched clients and servers) rather than O(cloud), and
// speculative moves commit or roll back through a transactional API.
//
// See DESIGN.md for how each mechanism works (§2 covers the evaluation
// engine) and EXPERIMENTS.md for the paper-vs-measured record of every
// reproduced figure.
package cloudalloc

import (
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"

	"repro/internal/agentrpc"
	"repro/internal/alloc"
	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/online"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Core model types, re-exported for users of the public API.
type (
	// Scenario is a complete problem instance: cloud plus clients.
	Scenario = model.Scenario
	// Cloud describes clusters, servers and classes.
	Cloud = model.Cloud
	// Client is one SLA-bearing workload.
	Client = model.Client
	// Server is one machine in a cluster.
	Server = model.Server
	// ServerClass is a hardware type with capacities and costs.
	ServerClass = model.ServerClass
	// UtilityClass is an SLA class with a linear utility of response time.
	UtilityClass = model.UtilityClass
	// Cluster is a named group of servers.
	Cluster = model.Cluster
	// ClientID identifies a client in a scenario.
	ClientID = model.ClientID
	// ServerID identifies a server in a cloud.
	ServerID = model.ServerID
	// ClusterID identifies a cluster in a cloud.
	ClusterID = model.ClusterID
	// ServerClassID identifies a server class.
	ServerClassID = model.ServerClassID
	// UtilityClassID identifies an SLA utility class.
	UtilityClassID = model.UtilityClassID

	// Allocation is a solution: assignments, dispersion rates and shares.
	Allocation = alloc.Allocation

	// SolveStats reports what the allocator did.
	SolveStats = core.Stats

	// PSConfig tunes the modified Proportional Share baseline.
	PSConfig = baseline.PSConfig
	// MCConfig tunes the Monte-Carlo envelope.
	MCConfig = baseline.MCConfig
	// Envelope is the Monte-Carlo best/worst profit summary.
	Envelope = baseline.Envelope

	// SimConfig tunes the discrete-event simulator.
	SimConfig = sim.Config
	// SimResult is a simulation outcome.
	SimResult = sim.Result

	// WorkloadConfig parameterizes scenario generation.
	WorkloadConfig = workload.Config

	// Agent is a cluster-side worker of the distributed solver.
	Agent = cluster.Agent
	// Manager coordinates cluster agents.
	Manager = cluster.Manager
	// ManagerConfig tunes the distributed solve.
	ManagerConfig = cluster.ManagerConfig

	// Telemetry bundles a metrics registry, a span tracer and a
	// structured logger. A nil *Telemetry disables observability at zero
	// cost everywhere it is accepted.
	Telemetry = telemetry.Set
	// SpanRecord is one finished span from the telemetry trace buffer.
	SpanRecord = telemetry.SpanRecord

	// OnlineService is the streaming serving path: lock-free admission
	// and placement decisions over a client churn stream, with deferred-
	// commit write filtering into warm incremental re-solves.
	OnlineService = online.Service
	// OnlineConfig tunes the online service (commit thresholds, solver
	// budget, background commits).
	OnlineConfig = online.Config
	// OnlineEvent is one element of the churn stream.
	OnlineEvent = online.Event
	// OnlineEventKind discriminates arrivals, departures and rate changes.
	OnlineEventKind = online.EventKind
)

// Churn stream event kinds, re-exported from internal/online.
const (
	OnlineArrive     = online.EventArrive
	OnlineDepart     = online.EventDepart
	OnlineRateChange = online.EventRateChange
)

// LoadScenario reads a scenario JSON file.
func LoadScenario(path string) (*Scenario, error) { return model.LoadFile(path) }

// DefaultWorkloadConfig returns the paper's experimental parameters.
func DefaultWorkloadConfig() WorkloadConfig { return workload.DefaultConfig() }

// GenerateScenario builds a random scenario from the configuration.
func GenerateScenario(cfg WorkloadConfig) (*Scenario, error) { return workload.Generate(cfg) }

// LoadAllocation rebuilds a saved allocation (Allocation.WriteJSON) over
// the scenario, re-validating every placement.
func LoadAllocation(scen *Scenario, r io.Reader) (*Allocation, error) {
	return alloc.ReadJSON(scen, r)
}

// Option customizes an Allocator.
type Option interface {
	apply(*core.Config)
}

type optionFunc func(*core.Config)

func (f optionFunc) apply(c *core.Config) { f(c) }

// WithSeed fixes the allocator's randomized client ordering.
func WithSeed(seed int64) Option {
	return optionFunc(func(c *core.Config) { c.Seed = seed })
}

// WithParallel evaluates and improves clusters concurrently (the paper's
// distributed decision making, executed with goroutines).
func WithParallel(on bool) Option {
	return optionFunc(func(c *core.Config) { c.Parallel = on })
}

// WithWorkers sizes the solver's fan-out worker pools — the multi-start
// greedy phase and the reassignment pass's scoring stage: 0 (the
// default) uses GOMAXPROCS, 1 runs sequentially. Results are
// bit-identical for every worker count (each greedy start draws from
// its own seed-split RNG stream); only wall-clock time changes. The
// baselines have matching knobs: MCConfig.Workers fans out Monte-Carlo
// draws and PSConfig.Workers the active-fraction sweep.
func WithWorkers(n int) Option {
	return optionFunc(func(c *core.Config) { c.Workers = n })
}

// WithCandidateClusters enables index-pruned candidate generation: the
// greedy placement and reassignment phases rank clusters by a provable
// upper bound on the client's placement gain and evaluate only the top
// k exactly, pruning the rest. 0 (the default) keeps the exhaustive
// scan; k >= the cluster count reproduces it bit-for-bit. Small k makes
// per-client work O(k) instead of O(clusters) at a sub-percent profit
// cost on paper-sized instances.
func WithCandidateClusters(k int) Option {
	return optionFunc(func(c *core.Config) { c.CandidateClusters = k })
}

// WithShards partitions the clusters across n independent shards that
// build and improve the solution in parallel, with a serial cross-shard
// reconciliation pass between rounds. Sharding changes the search
// trajectory (it is deterministic at any worker count, but not
// equivalent to the unsharded solve); use it for very large instances
// where whole-cloud passes are too slow. 0 or 1 disables sharding.
func WithShards(n int) Option {
	return optionFunc(func(c *core.Config) { c.Shards = n })
}

// WithTelemetry routes solver metrics, phase spans and ledger counters
// to the set (nil leaves observability disabled).
func WithTelemetry(set *Telemetry) Option {
	return optionFunc(func(c *core.Config) { c.Telemetry = set })
}

// NewTelemetry builds an enabled telemetry set: a fresh metrics
// registry, a default-capacity span tracer and the given logger (a
// discarding logger when nil). Hand it to solvers, agents, managers and
// RPC endpoints, then expose it with DebugHandler.
func NewTelemetry(log *slog.Logger) *Telemetry { return telemetry.New(log) }

// NewTextLogger builds a structured text logger writing to w; level is
// an slog level ("info" semantics at 0, "debug" at -4).
func NewTextLogger(w io.Writer, level int) *slog.Logger {
	return telemetry.NewTextLogger(w, slog.Level(level))
}

// DebugHandler serves the set's observability surface over HTTP:
// /metrics (Prometheus text), /debug/vars (expvar JSON), /debug/trace
// (recent spans as JSON, ASCII trees with ?format=tree, Chrome
// trace-event JSON with ?format=chrome), /debug/flight (recent flight-
// recorder events) and /debug/pprof. A nil set yields a handler whose
// endpoints report telemetry as disabled.
func DebugHandler(set *Telemetry) http.Handler { return telemetry.Handler(set) }

// ConfigureFlight replaces the set's flight recorder: the ring retains
// the last capacity events (0 keeps the default) and client-scoped
// events are sampled 1-in-every by a deterministic hash of the client ID
// (<=1 records all). Call before handing the set to a solver. No-op on
// a nil set.
func ConfigureFlight(set *Telemetry, capacity, every int) {
	if set != nil {
		set.Flight = telemetry.NewFlight(capacity, every)
	}
}

// WriteChromeTrace writes spans as Chrome trace-event JSON, loadable in
// Perfetto or chrome://tracing (cloudalloc solve -trace-out).
func WriteChromeTrace(w io.Writer, spans []SpanRecord) error {
	return telemetry.WriteChromeTrace(w, spans)
}

// Allocator runs the paper's Resource_Alloc heuristic.
type Allocator struct {
	solver *core.Solver
}

// NewAllocator validates the scenario and prepares a solver.
func NewAllocator(scen *Scenario, opts ...Option) (*Allocator, error) {
	cfg := core.DefaultConfig()
	for _, o := range opts {
		o.apply(&cfg)
	}
	solver, err := core.NewSolver(scen, cfg)
	if err != nil {
		return nil, err
	}
	return &Allocator{solver: solver}, nil
}

// Solve runs the full heuristic and returns the allocation.
func (al *Allocator) Solve() (*Allocation, SolveStats, error) { return al.solver.Solve() }

// DefaultOnlineConfig returns production-shaped online-service defaults:
// synchronous (deterministic) commits at 10% relative drift with a cheap
// incremental solver. Raise CommitRel/CommitFloor to amortize commits
// over more events; set Background for lock-free serving latency.
func DefaultOnlineConfig() OnlineConfig { return online.DefaultConfig() }

// NewOnlineService starts the streaming allocation service over the
// scenario (clients with zero rates start absent). The service owns a
// deep copy; the caller's scenario is not touched.
func NewOnlineService(scen *Scenario, cfg OnlineConfig) (*OnlineService, error) {
	return online.New(scen, cfg)
}

// DefaultPSConfig returns the modified Proportional Share defaults.
func DefaultPSConfig() PSConfig { return baseline.DefaultPSConfig() }

// SolveModifiedPS runs the modified Proportional Share baseline.
func SolveModifiedPS(scen *Scenario, cfg PSConfig) (*Allocation, error) {
	return baseline.SolveModifiedPS(scen, cfg)
}

// DefaultMCConfig returns a medium-effort Monte-Carlo configuration.
func DefaultMCConfig() MCConfig { return baseline.DefaultMCConfig() }

// RunMonteCarlo computes the random-assignment best/worst envelope.
func RunMonteCarlo(scen *Scenario, cfg MCConfig) (Envelope, error) {
	return baseline.RunMonteCarlo(scen, cfg)
}

// RandomAllocation builds one random-assignment solution using the
// allocator's cluster-level machinery (useful as a comparison point).
func (al *Allocator) RandomAllocation(rng *rand.Rand) (*Allocation, error) {
	return baseline.RandomAssignment(al.solver, rng)
}

// DefaultSimConfig returns the simulator defaults.
func DefaultSimConfig() SimConfig { return sim.DefaultConfig() }

// Simulate runs the discrete-event simulation of an allocation.
func Simulate(a *Allocation, cfg SimConfig) (*SimResult, error) { return sim.Simulate(a, cfg) }

// DefaultManagerConfig returns the distributed-solve defaults.
func DefaultManagerConfig() ManagerConfig { return cluster.DefaultManagerConfig() }

// NewLocalAgent builds an in-process agent for cluster k.
func NewLocalAgent(scen *Scenario, k ClusterID, opts ...Option) (Agent, error) {
	cfg := core.DefaultConfig()
	for _, o := range opts {
		o.apply(&cfg)
	}
	return cluster.NewLocalAgent(scen, k, cfg)
}

// NewManager wires a central manager to one agent per cluster.
func NewManager(scen *Scenario, agents []Agent, cfg ManagerConfig) (*Manager, error) {
	return cluster.NewManager(scen, agents, cfg)
}

// AgentServer serves one cluster agent over TCP.
type AgentServer = agentrpc.Server

// ServeAgent wraps an agent behind a TCP listener; call Serve on the
// returned server. A non-nil set records server-side RPC telemetry
// (per-op call/error counters, latency histograms, byte counters and
// spans); nil records none.
func ServeAgent(l net.Listener, ag Agent, set *Telemetry) *AgentServer {
	return agentrpc.NewServer(l, ag, agentrpc.WithTelemetry(set))
}

// AgentCallPolicy shapes the client side's fault handling on a dialed
// agent: per-attempt conn deadlines, retry with deterministic backoff +
// jitter, connection-pool bounds and read-only call hedging.
type AgentCallPolicy = agentrpc.Policy

// DefaultAgentCallPolicy returns the production defaults (generous
// deadline, a few retries, hedging off).
func DefaultAgentCallPolicy() AgentCallPolicy { return agentrpc.DefaultPolicy() }

// DialAgent connects to a served agent under the call policy and returns
// it as an Agent. A non-nil set records client-side RPC telemetry; nil
// records none.
func DialAgent(addr string, pol AgentCallPolicy, set *Telemetry) (Agent, error) {
	return agentrpc.Dial(addr, agentrpc.WithPolicy(pol), agentrpc.WithTelemetry(set))
}
