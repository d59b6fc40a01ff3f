package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/agentrpc"
	"repro/internal/alloc"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/telemetry"
)

// Agent operations the decorator counts, in the order they are printed.
const (
	opEvaluate = iota
	opCommit
	opRemove
	opImprove
	opProfit
	opSnapshot
	opReset
	numOps
)

var (
	opNames = [numOps]string{"evaluate", "commit", "remove", "improve", "profit", "snapshot", "reset"}
	opSpans = [numOps]string{"agent.Evaluate", "agent.Commit", "agent.Remove", "agent.Improve", "agent.Profit", "agent.Snapshot", "agent.Reset"}
)

// agentCounts is shared by a workload's decorated agents.
type agentCounts struct {
	calls  [numOps]atomic.Int64
	errors atomic.Int64
}

func (c *agentCounts) reset() {
	for op := range c.calls {
		c.calls[op].Store(0)
	}
	c.errors.Store(0)
}

// countingAgent decorates a cluster.Agent: it counts every call and every
// error the manager sees, and on a traced run records a span per call as
// a child of the open Manager.Solve.
type countingAgent struct {
	cluster.Agent
	counts *agentCounts
	e      *env // its tracer is set only while the traced region runs
}

func (c *countingAgent) call(op int, fn func() error) error {
	c.counts.calls[op].Add(1)
	tr := c.e.tr
	id := tr.begin(opSpans[op])
	err := fn()
	tr.end(id)
	if err != nil {
		c.counts.errors.Add(1)
	}
	return err
}

func (c *countingAgent) Reset(ctx context.Context) error {
	return c.call(opReset, func() error { return c.Agent.Reset(ctx) })
}

func (c *countingAgent) Evaluate(ctx context.Context, id model.ClientID) (res cluster.EvalResult, err error) {
	err = c.call(opEvaluate, func() error { res, err = c.Agent.Evaluate(ctx, id); return err })
	return res, err
}

func (c *countingAgent) Commit(ctx context.Context, id model.ClientID, portions []alloc.Portion) error {
	return c.call(opCommit, func() error { return c.Agent.Commit(ctx, id, portions) })
}

func (c *countingAgent) Remove(ctx context.Context, id model.ClientID) error {
	return c.call(opRemove, func() error { return c.Agent.Remove(ctx, id) })
}

func (c *countingAgent) Improve(ctx context.Context) (st cluster.ImproveStats, err error) {
	err = c.call(opImprove, func() error { st, err = c.Agent.Improve(ctx); return err })
	return st, err
}

func (c *countingAgent) Profit(ctx context.Context) (p float64, err error) {
	err = c.call(opProfit, func() error { p, err = c.Agent.Profit(ctx); return err })
	return p, err
}

func (c *countingAgent) Snapshot(ctx context.Context) (m map[model.ClientID][]alloc.Portion, err error) {
	err = c.call(opSnapshot, func() error { m, err = c.Agent.Snapshot(ctx); return err })
	return m, err
}

// countingListener counts the bytes that cross every connection it
// accepts — the server's side of the wire, so both directions of every
// call are seen once.
type countingListener struct {
	net.Listener
	bytes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: c, bytes: l.bytes}, nil
}

type countingConn struct {
	net.Conn
	bytes *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.bytes.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.bytes.Add(int64(n))
	return n, err
}

// distInst is the control plane over loopback TCP: one LocalAgent per
// cluster behind an agentrpc.Server, one RemoteAgent dialled to each.
type distInst struct {
	scen    *model.Scenario
	small   *model.Scenario // a quarter of the clients, for from-scratch probes
	mcfg    cluster.ManagerConfig
	agents  []cluster.Agent // decorated RemoteAgents
	locals  []*cluster.LocalAgent
	remotes []*agentrpc.RemoteAgent
	servers []*agentrpc.Server
	serving sync.WaitGroup
	counts  *agentCounts
	wire    atomic.Int64
	tel     *telemetry.Set // client-side RPC metrics, traced runs only
}

func agentConfig(e *env) core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = e.seed
	return cfg
}

// localAgents builds one in-process agent per cluster.
func localAgents(e *env, scen *model.Scenario) ([]*cluster.LocalAgent, error) {
	agents := make([]*cluster.LocalAgent, scen.Cloud.NumClusters())
	for k := range agents {
		la, err := cluster.NewLocalAgent(scen, model.ClusterID(k), agentConfig(e))
		if err != nil {
			return nil, fmt.Errorf("local agent %d: %w", k, err)
		}
		agents[k] = la
	}
	return agents, nil
}

func setupDistTCP(e *env) (instance, error) {
	scen, err := e.generate(matchedConfig(e.sz.DistClients, e.sz.DistClusters, e.seed), distCloudSeed)
	if err != nil {
		return nil, err
	}
	small, err := e.generate(matchedConfig(max(e.sz.DistClients/4, e.sz.DistClusters), e.sz.DistClusters, e.seed+1), distCloudSeed+1)
	if err != nil {
		return nil, err
	}
	in := &distInst{scen: scen, small: small, counts: new(agentCounts)}
	in.mcfg = cluster.DefaultManagerConfig()
	in.mcfg.Seed = e.seed
	// One connection per agent is the system's topology; at most nproc
	// calls in flight, so the load generator never outnumbers the cores.
	in.mcfg.MaxInFlight = runtime.GOMAXPROCS(0)
	if e.traced {
		in.tel = telemetry.New(nil)
	}

	locals, err := localAgents(e, scen)
	if err != nil {
		return nil, err
	}
	in.locals = locals
	for k, la := range locals {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			in.close()
			return nil, fmt.Errorf("listen for agent %d: %w", k, err)
		}
		srv := agentrpc.NewServer(countingListener{Listener: l, bytes: &in.wire}, la)
		in.servers = append(in.servers, srv)
		in.serving.Add(1)
		go func() {
			defer in.serving.Done()
			// Serve returns when close() closes the listener.
			_ = srv.Serve()
		}()
		opts := []agentrpc.Option{agentrpc.WithPolicy(agentrpc.DefaultPolicy())}
		if in.tel != nil {
			opts = append(opts, agentrpc.WithTelemetry(in.tel))
		}
		ra, err := agentrpc.Dial(l.Addr().String(), opts...)
		if err != nil {
			in.close()
			return nil, fmt.Errorf("dial agent %d: %w", k, err)
		}
		in.remotes = append(in.remotes, ra)
		in.agents = append(in.agents, &countingAgent{Agent: ra, counts: in.counts, e: e})
	}

	// Warm-up: a one-start solve over the same connections, which also
	// sends the gob type descriptors once per connection.
	wcfg := in.mcfg
	wcfg.NumInitSolutions = 1
	mgr, err := cluster.NewManager(scen, in.agents, wcfg)
	if err != nil {
		in.close()
		return nil, err
	}
	if _, _, err := mgr.Solve(); err != nil {
		in.close()
		return nil, fmt.Errorf("warm-up solve: %w", err)
	}
	in.counts.reset()
	in.wire.Store(0)
	return in, nil
}

func (in *distInst) close() {
	for _, ra := range in.remotes {
		ra.Close()
	}
	for _, srv := range in.servers {
		srv.Close()
	}
	in.serving.Wait()
}

func (in *distInst) run(e *env) (*outcome, error) {
	o := &outcome{attempted: in.scen.NumClients(), cfg: agentConfig(e), scen: in.scen, layer: make(map[string]float64)}
	o.probeScen, o.probeCfg = in.small, o.cfg
	mgr, err := cluster.NewManager(in.scen, in.agents, in.mcfg)
	if err != nil {
		return nil, err
	}
	var (
		a  *alloc.Allocation
		st cluster.ManagerStats
	)
	r := beginRegion(e.tr != nil)
	op := e.tr.beginOp("cluster.Manager.Solve")
	d := r.time(func() { a, st, err = mgr.Solve() })
	e.tr.end(op)
	o.reg = r.end()
	o.stalls = []float64{d.Seconds()}
	if err != nil {
		return nil, fmt.Errorf("dist_tcp: Manager.Solve: %w", err)
	}

	// The same manager over bare in-process agents must reach the same
	// profit: the wire may cost time, never money.
	local, localS, err := in.solveLocal(e)
	if err != nil {
		return nil, fmt.Errorf("dist_tcp: in-process reference solve: %w", err)
	}
	if !near(a.Profit(), local.Profit(), relTol) {
		o.failOp("profit over TCP %.12g != in-process manager's %.12g", a.Profit(), local.Profit())
	}
	if why := checkAllocation(a); why != "" {
		o.failOp("%s", why)
	}
	if !near(st.FinalProfit, a.Profit(), relTol) {
		o.failOp("ManagerStats.FinalProfit %.12g != merged allocation's %.12g", st.FinalProfit, a.Profit())
	}
	callErrs := in.counts.errors.Load()
	if callErrs > 0 {
		o.failOp("%d agent calls returned an error", callErrs)
		o.failed += int(callErrs) - 1
	}
	o.tally(in.scen, a)
	o.final = a
	o.fingerprint = fold(0, math.Float64bits(a.Profit()), uint64(a.NumAssigned()))

	var calls int64
	for op, name := range opNames {
		n := in.counts.calls[op].Load()
		calls += n
		o.layer["cluster.calls_"+name] = float64(n)
		o.fingerprint = fold(o.fingerprint, uint64(n))
	}
	o.layer["cluster.solve_local_s"] = localS
	o.layer["cluster.init_s"] = st.InitElapsed.Seconds()
	o.layer["cluster.rounds"] = float64(st.ImproveRounds)
	o.layer["cluster.round_p50_s"] = median(seconds(st.RoundDurations))
	o.layer["agentrpc.wire_mb"] = float64(in.wire.Load()) / 1e6
	o.layer["agentrpc.bytes_per_call"] = float64(in.wire.Load()) / float64(max(calls, 1))
	o.layer["agentrpc.wire_share"] = 1 - localS/o.reg.RunS
	o.layer["agentrpc.call_errors"] = float64(callErrs)
	if in.tel != nil {
		o.layer["agentrpc.retries"] = float64(in.tel.Counter("rpc_client_retries_total").Value())
	}
	return o, nil
}

// solveLocal runs the workload's manager configuration over fresh bare
// LocalAgents and returns the allocation and the solve's wall time.
func (in *distInst) solveLocal(e *env) (*alloc.Allocation, float64, error) {
	locals, err := localAgents(e, in.scen)
	if err != nil {
		return nil, 0, err
	}
	agents := make([]cluster.Agent, len(locals))
	for k, la := range locals {
		agents[k] = la
	}
	mgr, err := cluster.NewManager(in.scen, agents, in.mcfg)
	if err != nil {
		return nil, 0, err
	}
	a, st, err := mgr.Solve()
	if err != nil {
		return nil, 0, err
	}
	return a, st.Elapsed.Seconds(), mgr.Close()
}

// probe measures the cluster and agentrpc layers one call at a time: the
// agent operations in-process on a server-side LocalAgent (which holds
// its cluster's solved state), then the same operations and a dial over
// the wire with one call in flight.
func (in *distInst) probe(e *env, o *outcome, vals map[string]float64) error {
	ctx := context.Background()
	local, remote := in.locals[0], in.remotes[0]
	// Clients the solve placed elsewhere: cluster 0 can bid for them.
	var others []model.ClientID
	for _, id := range assignedClients(o.final) {
		if o.final.ClusterOf(id) != 0 {
			others = append(others, id)
		}
	}
	if len(others) == 0 {
		return errors.New("cluster probe: every client sits on cluster 0")
	}
	var err error
	keep := func(e error) {
		if e != nil {
			err = e
		}
	}
	next := 0
	evaluate := func(ag cluster.Agent) func(n int) {
		return func(n int) {
			for c := 0; c < n; c++ {
				_, eerr := ag.Evaluate(ctx, others[next%len(others)])
				keep(eerr)
				next++
			}
		}
	}
	snapshot := func(ag cluster.Agent) func(n int) {
		return func(n int) {
			for c := 0; c < n; c++ {
				_, serr := ag.Snapshot(ctx)
				keep(serr)
			}
		}
	}
	vals["cluster.evaluate_ns"] = perCall(evaluate(local))
	vals["cluster.snapshot_ns"] = perCall(snapshot(local))
	t0 := time.Now()
	_, ierr := local.Improve(ctx)
	keep(ierr)
	vals["cluster.improve_s"] = time.Since(t0).Seconds()

	vals["agentrpc.evaluate_rtt_ns"] = perCall(evaluate(remote))
	vals["agentrpc.snapshot_rtt_ns"] = perCall(snapshot(remote))
	// Commit needs a bid to commit, and a Remove (untimed) to undo it.
	var bid cluster.EvalResult
	var id model.ClientID
	vals["agentrpc.commit_rtt_ns"] = perCallEach(func() {
		if bid.Feasible {
			keep(remote.Remove(ctx, id))
		}
		for bid.Feasible = false; !bid.Feasible && next < 1<<30; next++ {
			id = others[next%len(others)]
			var eerr error
			bid, eerr = remote.Evaluate(ctx, id)
			keep(eerr)
			if eerr != nil {
				return
			}
		}
	}, func() {
		keep(remote.Commit(ctx, id, bid.Portions))
	})
	vals["agentrpc.dial_ns"] = perCall(func(n int) {
		for c := 0; c < n; c++ {
			ra, derr := agentrpc.Dial(in.servers[0].Addr().String())
			keep(derr)
			if derr == nil {
				keep(ra.Close())
			}
		}
	})
	if err != nil {
		return fmt.Errorf("cluster probe: %w", err)
	}
	return nil
}
