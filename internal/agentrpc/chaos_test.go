package agentrpc

// Chaos tests: the fault-tolerant client and server under seeded,
// deterministic fault injection at the net.Conn byte stream under the
// wire (drops, I/O errors, delays, byte truncation, crash-restart).
// Every random decision derives from a master seed via splitmix64
// seed-splitting, one independent stream per connection, so a fault
// schedule replays bit-for-bit regardless of goroutine scheduling: the
// k-th operation on the n-th connection always sees the same draw.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/alloc"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/parallel"
	"repro/internal/telemetry"
)

// errInjected marks a fault synthesized by these tests, so they can
// tell injected failures from real ones with errors.Is.
var errInjected = errors.New("chaos: injected fault")

// faults is one connection's fault profile. Probabilities are per I/O
// operation (one Read or Write call) and are drawn as a single
// cumulative band per op — at most one fault fires per op, and raising
// one probability never changes which draws trigger another.
type faults struct {
	// dropProb closes the connection instead of performing the op.
	dropProb float64
	// errProb fails the op with errInjected without closing the conn;
	// the gob stream is desynchronized either way, so the client must
	// treat it exactly like a drop.
	errProb float64
	// delayProb stalls the op for delay before performing it.
	delayProb float64
	delay     time.Duration
	// truncProb writes (or reads) only the first half of the buffer and
	// then closes the connection — a mid-frame cut.
	truncProb float64
}

// faultListener wraps a net.Listener with per-connection fault
// injection and crash-restart. Connections are numbered in accept
// order; perConn maps a connection's index to its fault profile, so a
// schedule can single out "the manager's third connection"
// deterministically.
type faultListener struct {
	net.Listener
	seed    int64
	perConn func(conn int) faults

	mu        sync.Mutex
	accepted  int
	live      map[net.Conn]struct{}
	downUntil time.Time
	crashes   int
	// crashReads, when > 0, arms a one-shot crash(crashDown) after that
	// many more successful reads across all connections.
	crashReads int64
	crashDown  time.Duration
}

// newFaultListener wraps ln. perConn returns the fault profile for the
// n-th accepted connection (0-based); nil means no faults (crash-restart
// still works).
func newFaultListener(ln net.Listener, seed int64, perConn func(conn int) faults) *faultListener {
	return &faultListener{Listener: ln, seed: seed, perConn: perConn, live: make(map[net.Conn]struct{})}
}

// Accept applies the crash window (connections during the down window
// are accepted and instantly closed, like a dead backend's OS RST) and
// wraps live connections with their fault profile.
func (l *faultListener) Accept() (net.Conn, error) {
	for {
		c, err := l.Listener.Accept()
		if err != nil {
			return nil, err
		}
		l.mu.Lock()
		idx := l.accepted
		l.accepted++
		down := time.Now().Before(l.downUntil)
		l.mu.Unlock()
		if down {
			c.Close()
			continue
		}
		var f faults
		if l.perConn != nil {
			f = l.perConn(idx)
		}
		fc := &faultConn{Conn: c, f: f, rng: parallel.Rand(l.seed, uint64(idx)), ln: l}
		l.mu.Lock()
		l.live[fc] = struct{}{}
		l.mu.Unlock()
		return fc, nil
	}
}

// crash kills every live connection and refuses new ones for the down
// window — a process crash plus restart. Agent state survives (the
// in-process server keeps its allocation), modeling a warm restart
// behind a stable address.
func (l *faultListener) crash(down time.Duration) {
	l.mu.Lock()
	l.downUntil = time.Now().Add(down)
	conns := make([]net.Conn, 0, len(l.live))
	for c := range l.live {
		conns = append(conns, c)
	}
	l.live = make(map[net.Conn]struct{})
	l.crashes++
	l.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// crashAfterReads arms a one-shot crash: after the listener's
// connections have served n more successful Read calls in total, crash
// fires with the given down window.
func (l *faultListener) crashAfterReads(n int64, down time.Duration) {
	l.mu.Lock()
	l.crashReads = n
	l.crashDown = down
	l.mu.Unlock()
}

func (l *faultListener) crashCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.crashes
}

// noteRead decrements an armed crashAfterReads trigger; a fired crash
// runs outside the lock.
func (l *faultListener) noteRead() {
	l.mu.Lock()
	if l.crashReads <= 0 {
		l.mu.Unlock()
		return
	}
	l.crashReads--
	fire := l.crashReads == 0
	down := l.crashDown
	l.mu.Unlock()
	if fire {
		l.crash(down)
	}
}

// faultConn injects faults on one connection's byte stream. The rng is
// only touched under mu, so concurrent Read/Write (as gob does —
// encoder and decoder on separate goroutines during hedging) stay
// race-free and the draw sequence stays deterministic per connection.
type faultConn struct {
	net.Conn
	f  faults
	ln *faultListener

	mu  sync.Mutex
	rng *rand.Rand
}

// inject draws the single cumulative band for one op and applies the
// fault it lands in; io performs the op on the underlying conn. A
// non-nil error means the fault replaced the op.
func (c *faultConn) inject(dir string, p []byte, io func([]byte) (int, error)) (int, error) {
	f := c.f
	if f == (faults{}) {
		return 0, nil
	}
	c.mu.Lock()
	u := c.rng.Float64()
	c.mu.Unlock()
	switch {
	case u < f.dropProb:
		c.Close()
		return 0, fmt.Errorf("chaos: %s dropped: %w", dir, errInjected)
	case u < f.dropProb+f.errProb:
		return 0, fmt.Errorf("chaos: %s error: %w", dir, errInjected)
	case u < f.dropProb+f.errProb+f.delayProb:
		time.Sleep(f.delay)
	case u < f.dropProb+f.errProb+f.delayProb+f.truncProb:
		if len(p) > 1 {
			p = p[:len(p)/2]
		}
		n, _ := io(p)
		c.Close()
		return n, fmt.Errorf("chaos: %s truncated: %w", dir, errInjected)
	}
	return 0, nil
}

func (c *faultConn) Read(p []byte) (int, error) {
	if n, err := c.inject("read", p, c.Conn.Read); err != nil {
		return n, err
	}
	n, err := c.Conn.Read(p)
	if err == nil {
		c.ln.noteRead()
	}
	return n, err
}

func (c *faultConn) Write(p []byte) (int, error) {
	if n, err := c.inject("write", p, c.Conn.Write); err != nil {
		return n, err
	}
	return c.Conn.Write(p)
}

func (c *faultConn) Close() error {
	c.ln.mu.Lock()
	delete(c.ln.live, c)
	c.ln.mu.Unlock()
	return c.Conn.Close()
}

// flakyAgent fails each Reset with errInjected at probability errProb —
// the no-network counterpart of faultListener. Its fault stream derives
// from (seed, idx), so each wrapped agent draws independently and
// replays exactly. Every other call goes straight to the embedded agent.
type flakyAgent struct {
	cluster.Agent
	errProb float64
	rng     *rand.Rand
}

func newFlakyAgent(inner cluster.Agent, errProb float64, seed int64, idx uint64) *flakyAgent {
	return &flakyAgent{Agent: inner, errProb: errProb, rng: parallel.Rand(seed, idx)}
}

func (a *flakyAgent) Reset(ctx context.Context) error {
	if a.rng.Float64() < a.errProb {
		return fmt.Errorf("chaos: agent reset: %w", errInjected)
	}
	return a.Agent.Reset(ctx)
}

// faultFreeSolve is the reference: the same manager config over
// in-process local agents. TCP transport equality (within float
// round-off) is already covered by TestDistributedSolveOverTCP, so any
// drift beyond 1e-9 in a chaos run means a fault corrupted agent state.
func faultFreeSolve(t testing.TB, scen *model.Scenario, mcfg cluster.ManagerConfig) (float64, cluster.ManagerStats) {
	t.Helper()
	agents := make([]cluster.Agent, scen.Cloud.NumClusters())
	for k := range agents {
		la, err := cluster.NewLocalAgent(scen, model.ClusterID(k), core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		agents[k] = la
	}
	mgr, err := cluster.NewManager(scen, agents, mcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	a, stats, err := mgr.Solve()
	if err != nil {
		t.Fatal(err)
	}
	return a.Profit(), stats
}

// startChaosServer serves one local agent behind a fault-injecting
// listener and returns the listener for crash control.
func startChaosServer(t testing.TB, scen *model.Scenario, k model.ClusterID, seed int64, perConn func(int) faults) (*faultListener, string) {
	t.Helper()
	la, err := cluster.NewLocalAgent(scen, k, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := newFaultListener(l, seed+int64(k), perConn)
	srv := NewServer(cl, la)
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })
	return cl, l.Addr().String()
}

func relDiff(a, b float64) float64 {
	return math.Abs(a-b) / math.Max(1, math.Abs(b))
}

// TestCrashMidRoundConverges is the headline chaos regression: with a
// ~10% per-I/O fault mix on every connection AND one agent
// crash-restart mid-solve, the distributed solve converges to the
// fault-free profit within float round-off and the attribution identity
// still holds.
func TestCrashMidRoundConverges(t *testing.T) {
	scen := genScenario(t, 10)
	mcfg := cluster.DefaultManagerConfig()

	refProfit, refStats := faultFreeSolve(t, scen, mcfg)

	mix := faults{dropProb: 0.03, errProb: 0.03, delayProb: 0.03, delay: time.Millisecond, truncProb: 0.02}
	perConn := func(int) faults { return mix }
	pol := DefaultPolicy()
	pol.Timeout = 5 * time.Second
	pol.MaxAttempts = 16
	pol.BackoffBase = time.Millisecond
	pol.BackoffMax = 20 * time.Millisecond
	pol.Seed = 13

	agents := make([]cluster.Agent, scen.Cloud.NumClusters())
	var crashTarget *faultListener
	for k := range agents {
		cl, addr := startChaosServer(t, scen, model.ClusterID(k), 99, perConn)
		if k == 0 {
			crashTarget = cl
		}
		ra, err := Dial(addr, WithPolicy(pol))
		if err != nil {
			t.Fatal(err)
		}
		agents[k] = ra
	}
	// Arm a crash-restart of agent 0 mid-solve: after 50 more reads on
	// its connections, every conn dies and dials are refused for 30ms.
	crashTarget.crashAfterReads(50, 30*time.Millisecond)

	mgr, err := cluster.NewManager(scen, agents, mcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	a, stats, err := mgr.Solve()
	if err != nil {
		t.Fatalf("chaos solve failed: %v", err)
	}
	if d := relDiff(a.Profit(), refProfit); d > 1e-9 {
		t.Fatalf("chaos profit %.12f vs fault-free %.12f (rel diff %.3e)", a.Profit(), refProfit, d)
	}
	at := stats.Attribution
	if got := at.Initial + at.Improve + at.CentralReassign; math.Abs(got-at.Final) > 1e-6*(1+math.Abs(at.Final)) {
		t.Fatalf("attribution identity broken: %v sums to %.12f", at, got)
	}
	if d := relDiff(stats.FinalProfit, refStats.FinalProfit); d > 1e-9 {
		t.Fatalf("stats profit %.12f vs fault-free %.12f", stats.FinalProfit, refStats.FinalProfit)
	}
	if n := crashTarget.crashCount(); n != 1 {
		t.Fatalf("crash never fired (crashes %d)", n)
	}
}

// TestSlowConnHedgeWins: the first connection is pathologically slow
// (every I/O op stalls 150ms); with hedging enabled a read-only call
// races a second, clean connection and the hedge wins.
func TestSlowConnHedgeWins(t *testing.T) {
	scen := genScenario(t, 5)
	perConn := func(conn int) faults {
		if conn == 0 {
			return faults{delayProb: 1, delay: 150 * time.Millisecond}
		}
		return faults{}
	}
	_, addr := startChaosServer(t, scen, 0, 5, perConn)

	set := telemetry.New(nil)
	pol := DefaultPolicy()
	pol.HedgeDelay = 10 * time.Millisecond
	pol.Seed = 3
	ra, err := Dial(addr, WithPolicy(pol), WithTelemetry(set))
	if err != nil {
		t.Fatal(err)
	}
	defer ra.Close()

	if _, err := ra.Profit(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := set.Counter("rpc_client_hedges_total").Value(); got < 1 {
		t.Fatalf("no hedge launched (hedges=%d)", got)
	}
	if got := set.Counter("rpc_client_hedge_wins_total").Value(); got < 1 {
		t.Fatalf("hedge launched but never won against a 150ms-per-op conn")
	}
}

// commitCrashAgent applies Commit on the inner agent, then crashes the
// listener once — the canonical ambiguous failure: op applied, response
// lost. The retried Commit must be answered from the dedup cache, not
// re-applied.
type commitCrashAgent struct {
	cluster.Agent
	ln      *faultListener
	commits atomic.Int64
	crashed atomic.Bool
}

func (c *commitCrashAgent) Commit(ctx context.Context, id model.ClientID, p []alloc.Portion) error {
	err := c.Agent.Commit(ctx, id, p)
	c.commits.Add(1)
	if err == nil && !c.crashed.Swap(true) {
		c.ln.crash(0) // kill the conn before the response can be written
	}
	return err
}

func TestRetryAfterAmbiguousCommitIsIdempotent(t *testing.T) {
	scen := genScenario(t, 5)
	la, err := cluster.NewLocalAgent(scen, 0, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := newFaultListener(l, 1, nil)
	hook := &commitCrashAgent{Agent: la, ln: cl}
	srvSet := telemetry.New(nil)
	srv := NewServer(cl, hook, WithTelemetry(srvSet))
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })

	pol := DefaultPolicy()
	pol.BackoffBase = time.Millisecond
	pol.Seed = 17
	ra, err := Dial(l.Addr().String(), WithPolicy(pol))
	if err != nil {
		t.Fatal(err)
	}
	defer ra.Close()

	ctx := context.Background()
	bid, err := ra.Evaluate(ctx, 0)
	if err != nil || !bid.Feasible {
		t.Fatalf("evaluate: feasible=%v err=%v", bid.Feasible, err)
	}
	// The commit is applied server-side, the response is lost to the
	// crash, and the client's retry must succeed via the dedup cache.
	if err := ra.Commit(ctx, 0, bid.Portions); err != nil {
		t.Fatalf("commit after ambiguous failure: %v", err)
	}
	if got := hook.commits.Load(); got != 1 {
		t.Fatalf("commit applied %d times, want exactly 1", got)
	}
	if got := srvSet.Counter("rpc_server_dedup_hits_total").Value(); got != 1 {
		t.Fatalf("rpc_server_dedup_hits_total = %d, want 1", got)
	}
	snap, err := ra.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) != 1 {
		t.Fatalf("snapshot has %d clients, want 1", len(snap))
	}
	if _, ok := snap[0]; !ok {
		t.Fatalf("client 0 missing from snapshot %v", snap)
	}
}

// TestFlakyAgentDeterministic: the same (seed, idx) wrap produces the
// same fault sequence — the replayability every chaos schedule rests on.
func TestFlakyAgentDeterministic(t *testing.T) {
	la, err := cluster.NewLocalAgent(genScenario(t, 5), 0, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	run := func() []bool {
		fa := newFlakyAgent(la, 0.5, 23, 4)
		out := make([]bool, 100)
		for i := range out {
			out[i] = fa.Reset(context.Background()) != nil
		}
		return out
	}
	a, b := run(), run()
	var errs int
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs between identical seeds", i)
		}
		if a[i] {
			errs++
		}
	}
	if errs == 0 || errs == len(a) {
		t.Fatalf("degenerate fault sequence: %d/%d errors", errs, len(a))
	}
	fa := newFlakyAgent(la, 1, 1, 1)
	if !errors.Is(fa.Reset(context.Background()), errInjected) {
		t.Fatal("injected error does not unwrap to errInjected")
	}
}

// TestCrashWindowRefusesDials: connections during the down window die
// instantly; after it passes, service resumes.
func TestCrashWindowRefusesDials(t *testing.T) {
	scen := genScenario(t, 5)
	cl, addr := startChaosServer(t, scen, 0, 2, nil)
	pol := DefaultPolicy()
	pol.BackoffBase = 5 * time.Millisecond
	pol.BackoffMax = 50 * time.Millisecond
	pol.MaxAttempts = 10
	pol.Seed = 29
	ra, err := Dial(addr, WithPolicy(pol))
	if err != nil {
		t.Fatal(err)
	}
	defer ra.Close()
	if _, err := ra.Profit(context.Background()); err != nil {
		t.Fatal(err)
	}
	cl.crash(40 * time.Millisecond)
	// The retry loop rides out the down window transparently.
	if _, err := ra.Profit(context.Background()); err != nil {
		t.Fatalf("call across crash-restart: %v", err)
	}
	if n := cl.crashCount(); n != 1 {
		t.Fatalf("crashes %d, want 1", n)
	}
}
