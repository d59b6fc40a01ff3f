package agentrpc

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/parallel"
	"repro/internal/telemetry"
)

// blackholeListener accepts connections and never reads or writes —
// the pathological hung server.
func blackholeListener(t *testing.T) net.Listener {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			defer c.Close()
			_ = c // accepted, then silence
		}
	}()
	t.Cleanup(func() { l.Close() })
	return l
}

// TestCancelAbortsHungCall is the regression test for the satellite
// fix: before the Policy rework, RemoteAgent.call ignored context
// cancellation entirely, so a hung server blocked the caller — and any
// SolveCtx above it — forever. Now cancellation pokes the conn deadline
// into the past and the in-flight gob round trip aborts promptly.
func TestCancelAbortsHungCall(t *testing.T) {
	l := blackholeListener(t)
	pol := DefaultPolicy()
	pol.Timeout = 0 // no per-attempt deadline: cancellation must do it alone
	pol.MaxAttempts = 1
	remote, err := Dial(l.Addr().String(), WithPolicy(pol))
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	cctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := remote.Profit(cctx)
		errCh <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the call get stuck in Decode
	cancel()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("hung call returned nil error after cancel")
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled in chain, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled call still hung after 5s — cancellation does not abort the round trip")
	}
}

// TestDeadlineAbortsHungSolve proves the same property one layer up: a
// manager SolveCtx against a hung remote agent returns once its context
// deadline passes instead of stalling the whole solve.
func TestDeadlineAbortsHungSolve(t *testing.T) {
	scen := genScenario(t, 4)
	// Healthy remote agents for all clusters but the last, which points
	// at a black hole once construction-time checks have passed.
	agents := make([]cluster.Agent, scen.Cloud.NumClusters())
	for k := range agents {
		agents[k] = startServer(t, scen, model.ClusterID(k))
	}
	l := blackholeListener(t)
	pol := DefaultPolicy()
	pol.Timeout = 0
	pol.MaxAttempts = 1
	hungRemote, err := Dial(l.Addr().String(), WithPolicy(pol))
	if err != nil {
		t.Fatal(err)
	}
	agents[len(agents)-1].Close()
	agents[len(agents)-1] = &hungAgent{RemoteAgent: hungRemote, id: model.ClusterID(len(agents) - 1)}
	mgr, err := cluster.NewManager(scen, agents, cluster.DefaultManagerConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()

	dctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, _, err := mgr.SolveCtx(dctx)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("solve against a hung agent succeeded")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("SolveCtx still hung 10s after its deadline")
	}
}

// hungAgent answers ClusterID locally (so NewManager's construction
// check passes) and forwards everything else to a remote whose server
// never replies.
type hungAgent struct {
	*RemoteAgent
	id model.ClusterID
}

func (h *hungAgent) ClusterID(context.Context) (model.ClusterID, error) { return h.id, nil }

// TestRetryRedialsAfterConnKill: killing the server side of every live
// connection makes the next call fail its first attempt, redial and
// succeed — with the retry and redial visible in telemetry.
func TestRetryRedialsAfterConnKill(t *testing.T) {
	scen := genScenario(t, 5)
	local, err := cluster.NewLocalAgent(scen, 0, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := newFaultListener(l, 1, nil)
	srv := NewServer(fl, local)
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })

	set := telemetry.New(nil)
	pol := DefaultPolicy()
	pol.Seed = 11 // deterministic backoff
	pol.BackoffBase = time.Millisecond
	remote, err := Dial(l.Addr().String(), WithPolicy(pol), WithTelemetry(set))
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	if _, err := remote.Profit(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Kill the server side of the pooled connection: the client's next
	// attempt on it fails, and the retry must redial.
	fl.crash(0)
	if _, err := remote.Profit(context.Background()); err != nil {
		t.Fatalf("call after conn kill: %v", err)
	}
	if got := set.Counter("rpc_client_retries_total").Value(); got < 1 {
		t.Fatalf("rpc_client_retries_total = %d, want >= 1", got)
	}
	if got := set.Counter("rpc_client_redials_total").Value(); got < 1 {
		t.Fatalf("rpc_client_redials_total = %d, want >= 1", got)
	}
}

// TestRemoteErrorNotRetried: application-level errors are final — the
// retry counter stays at zero.
func TestRemoteErrorNotRetried(t *testing.T) {
	scen := genScenario(t, 5)
	set := telemetry.New(nil)
	local, err := cluster.NewLocalAgent(scen, 0, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(l, local)
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })
	remote, err := Dial(l.Addr().String(), WithTelemetry(set))
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	// Committing a valid client with no portions violates Σα = 1 — a
	// remote application error, deterministic and final.
	err = remote.Commit(context.Background(), 0, nil)
	if err == nil {
		t.Fatal("bogus commit succeeded")
	}
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("want *RemoteError, got %T: %v", err, err)
	}
	if got := set.Counter("rpc_client_retries_total").Value(); got != 0 {
		t.Fatalf("remote error was retried %d times", got)
	}
}

// TestServerSurvivesInsaneRequest: a decoded request whose payload is
// out of range (hostile or fuzzed peer) fails that one call with a
// remote error instead of panicking the server process.
func TestServerSurvivesInsaneRequest(t *testing.T) {
	scen := genScenario(t, 5)
	remote := startServer(t, scen, 0)
	err := remote.Commit(context.Background(), model.ClientID(scen.NumClients()+10), nil)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("want *RemoteError, got %T: %v", err, err)
	}
	// The server is still alive and serving.
	if _, err := remote.Profit(context.Background()); err != nil {
		t.Fatalf("server dead after insane request: %v", err)
	}
}

// TestBackoffDeterministic: the same (Seed, Seq) yields the same
// jittered schedule — the property every chaos test's replayability
// rests on.
func TestBackoffDeterministic(t *testing.T) {
	pol := Policy{BackoffBase: time.Millisecond, BackoffMax: 100 * time.Millisecond, Seed: 42}
	for seq := uint64(1); seq <= 3; seq++ {
		a := samplBackoffs(pol, seq)
		b := samplBackoffs(pol, seq)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seq %d attempt %d: %v != %v", seq, i+1, a[i], b[i])
			}
			d := time.Duration(1) << uint(i) * pol.BackoffBase
			if d > pol.BackoffMax {
				d = pol.BackoffMax
			}
			if a[i] < d/2 || a[i] > d {
				t.Fatalf("seq %d attempt %d: backoff %v outside [%v, %v]", seq, i+1, a[i], d/2, d)
			}
		}
	}
}

func samplBackoffs(pol Policy, seq uint64) []time.Duration {
	rng := parallel.Rand(pol.Seed, seq)
	out := make([]time.Duration, 6)
	for n := 1; n <= len(out); n++ {
		out[n-1] = pol.backoff(n, rng)
	}
	return out
}
