// Package agentrpc exposes a cluster.Agent over TCP with gob encoding, so
// the paper's cluster agents can run on separate machines from the
// central manager. The protocol is a simple synchronous request/response
// stream per connection.
//
// The client side is hardened for unreliable agents and networks
// (Policy): per-attempt deadlines are enforced as conn deadlines and a
// cancelled context aborts an in-flight round trip; transport failures
// retry on a fresh connection with deterministic exponential backoff +
// jitter (splitmix64 seed-splitting); mutating calls carry (Src, Seq)
// idempotency ids the server deduplicates, so a retry after an
// ambiguous failure — request applied, response lost — replays the
// recorded outcome instead of re-applying; and read-only calls can
// hedge a second connection when the first is slow. The package's chaos
// tests are the proving ground for all of it.
package agentrpc

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/alloc"
	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/parallel"
	"repro/internal/telemetry"
)

// op enumerates the remote operations.
type op int

const (
	opClusterID op = iota + 1
	opReset
	opEvaluate
	opCommit
	opRemove
	opImprove
	opProfit
	opSnapshot

	opEnd // sentinel: number of ops + 1
)

var opNames = [opEnd]string{
	opClusterID: "cluster_id",
	opReset:     "reset",
	opEvaluate:  "evaluate",
	opCommit:    "commit",
	opRemove:    "remove",
	opImprove:   "improve",
	opProfit:    "profit",
	opSnapshot:  "snapshot",
}

// String names the op for error messages, metric labels and spans.
func (o op) String() string {
	if o > 0 && o < opEnd {
		return opNames[o]
	}
	return "unknown"
}

// mutating reports whether the op changes agent state. Mutating ops are
// deduplicated server-side by (Src, Seq) so retries are idempotent, and
// they are never hedged.
func (o op) mutating() bool {
	switch o {
	case opReset, opCommit, opRemove, opImprove:
		return true
	}
	return false
}

// hedgeable reports whether a slow call of this op may race a second
// attempt on another connection: read-only ops only, where executing
// twice (or concurrently) is harmless.
func (o op) hedgeable() bool {
	return o > 0 && o < opEnd && !o.mutating()
}

// request is the wire format of one call. Trace carries the caller's
// trace context across the process boundary: the server rehydrates it
// (telemetry.ContextWithRef) so its own spans — and any spans the agent
// records while handling the call — parent into the manager's trace
// tree. Src and Seq are the call's idempotency id: Src identifies the
// dialing client, Seq the logical call, and both stay fixed across
// retries of the same call so the server can deduplicate mutating ops.
// Zero values (older peers, dedup disabled) decode fine on both sides,
// so all three fields are wire-compatible in both directions.
type request struct {
	Op       op
	Client   model.ClientID
	Portions []alloc.Portion
	Trace    telemetry.TraceRef
	Src      uint64
	Seq      uint64
}

// response is the wire format of one reply.
type response struct {
	Err      string
	Cluster  model.ClusterID
	Eval     cluster.EvalResult
	Improve  cluster.ImproveStats
	Profit   float64
	Snapshot map[model.ClientID][]alloc.Portion
}

// Server serves one agent to any number of concurrent connections.
type Server struct {
	listener net.Listener
	agent    cluster.Agent
	tel      *rpcTel

	mu   sync.Mutex // serializes agent access across connections
	seen *dedupCache
	wg   sync.WaitGroup
}

// NewServer wraps an agent behind a listener. Call Serve to start.
func NewServer(l net.Listener, ag cluster.Agent, opts ...Option) *Server {
	var o options
	for _, apply := range opts {
		apply(&o)
	}
	return &Server{
		listener: l,
		agent:    ag,
		tel:      newRPCTel(o.tel, "server"),
		seen:     newDedupCache(0),
	}
}

// Serve accepts connections until the listener is closed.
func (s *Server) Serve() error {
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			s.wg.Wait()
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("agentrpc: accept: %w", err)
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

// Close stops accepting and waits for in-flight connections.
func (s *Server) Close() error {
	err := s.listener.Close()
	s.wg.Wait()
	return err
}

// Addr returns the listener address (useful with ":0" listeners).
func (s *Server) Addr() net.Addr { return s.listener.Addr() }

func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	var rw io.ReadWriter = conn
	if s.tel != nil {
		rw = &countingConn{Conn: conn, in: s.tel.bytesIn, out: s.tel.bytesOut}
	}
	dec := gob.NewDecoder(rw)
	enc := gob.NewEncoder(rw)
	for {
		var req request
		if err := dec.Decode(&req); err != nil {
			return // connection closed or corrupt; nothing to reply to
		}
		resp := s.dispatch(req)
		if err := enc.Encode(resp); err != nil {
			return
		}
	}
}

func (s *Server) dispatch(req request) response {
	// Rehydrate the caller's trace context: the server-side span (and any
	// span the agent itself records) parents into the manager's tree.
	ctx := telemetry.ContextWithRef(context.Background(), req.Trace)
	var (
		t0          time.Time
		calls, errs *telemetry.Counter
		latency     *telemetry.Histogram
		spanName    string
		sp          telemetry.Span
	)
	if s.tel != nil {
		calls, errs, latency, spanName = s.tel.handles(req.Op)
		calls.Inc()
		sp, ctx = s.tel.set.StartCtx(ctx, spanName)
		t0 = time.Now()
	}

	key := dedupKey{src: req.Src, seq: req.Seq}
	dedup := req.Op.mutating() && req.Src != 0
	var entry *dedupEntry

	s.mu.Lock()
	if dedup {
		if e, ok := s.seen.get(key); ok {
			// A retry of a call we have seen: the op may have been
			// applied with only its response lost (ambiguous failure),
			// or may still be executing on another connection. Either
			// way, wait for — never re-apply — the one true outcome.
			s.mu.Unlock()
			<-e.done
			if s.tel != nil {
				s.tel.dedupHits.Inc()
				latency.ObserveSince(t0)
				sp.Attr("dedup", true)
				sp.End()
			}
			return e.resp
		}
		entry = &dedupEntry{done: make(chan struct{})}
		s.seen.put(key, entry)
	}
	var resp response
	// The request decoded, but its payload may still be insane (a fuzzed
	// or hostile peer sending an out-of-range client id): a panic in the
	// agent must fail the one request, not the server.
	err := func() (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("agentrpc: %s: bad request: %v", req.Op, p)
			}
		}()
		switch req.Op {
		case opClusterID:
			resp.Cluster, err = s.agent.ClusterID(ctx)
		case opReset:
			err = s.agent.Reset(ctx)
		case opEvaluate:
			resp.Eval, err = s.agent.Evaluate(ctx, req.Client)
		case opCommit:
			err = s.agent.Commit(ctx, req.Client, req.Portions)
		case opRemove:
			err = s.agent.Remove(ctx, req.Client)
		case opImprove:
			resp.Improve, err = s.agent.Improve(ctx)
		case opProfit:
			resp.Profit, err = s.agent.Profit(ctx)
		case opSnapshot:
			resp.Snapshot, err = s.agent.Snapshot(ctx)
		default:
			err = fmt.Errorf("agentrpc: unknown op %d", req.Op)
		}
		return err
	}()
	if err != nil {
		resp.Err = err.Error()
	}
	if dedup {
		entry.resp = resp
		close(entry.done)
	}
	s.mu.Unlock()
	if s.tel != nil {
		latency.ObserveSince(t0)
		if err != nil {
			errs.Inc()
			sp.Attr("error", err.Error())
		}
		sp.End()
	}
	return resp
}

// wire is one live connection with its gob codec state. A wire whose
// round trip fails is discarded: after a transport error the stream
// position is unknown, so positional request/response matching on it
// would be unsound.
type wire struct {
	conn net.Conn
	enc  *gob.Encoder
	dec  *gob.Decoder
}

// RemoteAgent is the client side: a cluster.Agent backed by a pool of
// TCP connections to a Server, with deadlines, retries, redials and
// hedging per its Policy.
type RemoteAgent struct {
	addr string
	pol  Policy
	tel  *rpcTel
	src  uint64
	seq  atomic.Uint64

	dialed atomic.Bool   // first dial done; later dials count as redials
	slots  chan struct{} // bounds in-flight attempts (MaxConns)

	mu     sync.Mutex
	idle   []*wire
	closed bool
}

var _ cluster.Agent = (*RemoteAgent)(nil)

// Dial connects to a served agent with DefaultPolicy unless WithPolicy
// overrides it. The initial connection is established eagerly so an
// unreachable address fails here, not on the first call.
func Dial(addr string, opts ...Option) (*RemoteAgent, error) {
	o := options{pol: DefaultPolicy()}
	for _, apply := range opts {
		apply(&o)
	}
	r := &RemoteAgent{
		addr:  addr,
		pol:   o.pol,
		tel:   newRPCTel(o.tel, "client"),
		src:   o.pol.srcID(),
		slots: make(chan struct{}, o.pol.maxConns()),
	}
	w, err := r.dialWire()
	if err != nil {
		return nil, fmt.Errorf("agentrpc: dial %s: %w", addr, err)
	}
	r.mu.Lock()
	r.idle = append(r.idle, w)
	r.mu.Unlock()
	return r, nil
}

// dialWire opens one fresh connection. Dials after the first are
// redials (a broken connection being replaced) and are counted.
func (r *RemoteAgent) dialWire() (*wire, error) {
	conn, err := net.Dial("tcp", r.addr)
	if err != nil {
		return nil, err
	}
	if r.dialed.Swap(true) && r.tel != nil {
		r.tel.redials.Inc()
	}
	var rw io.ReadWriter = conn
	if r.tel != nil {
		rw = &countingConn{Conn: conn, in: r.tel.bytesIn, out: r.tel.bytesOut}
	}
	return &wire{conn: conn, enc: gob.NewEncoder(rw), dec: gob.NewDecoder(rw)}, nil
}

// getWire pops an idle connection or dials a new one. The caller must
// hold an in-flight slot.
func (r *RemoteAgent) getWire() (*wire, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, errors.New("client closed")
	}
	var w *wire
	if n := len(r.idle); n > 0 {
		w, r.idle = r.idle[n-1], r.idle[:n-1]
	}
	r.mu.Unlock()
	if w != nil {
		return w, nil
	}
	return r.dialWire()
}

// putWire returns a healthy connection to the pool.
func (r *RemoteAgent) putWire(w *wire) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		w.conn.Close()
		return
	}
	r.idle = append(r.idle, w)
	r.mu.Unlock()
}

// call performs one logical round trip with telemetry. Every error is
// annotated with the op name and the peer address so a multi-agent
// manager can tell which cluster and which call failed. The client
// span's identity rides the wire in req.Trace so the server's span —
// and the remote agent's own spans — become its children; with
// client-side tracing disabled the caller's trace context is forwarded
// unchanged, so the remote spans still join the caller's tree.
func (r *RemoteAgent) call(ctx context.Context, req request) (response, error) {
	var (
		t0          time.Time
		calls, errs *telemetry.Counter
		latency     *telemetry.Histogram
		sp          telemetry.Span
	)
	if r.tel != nil {
		var spanName string
		calls, errs, latency, spanName = r.tel.handles(req.Op)
		calls.Inc()
		sp, _ = r.tel.set.StartCtx(ctx, spanName)
		sp.Attr("peer", r.addr)
		req.Trace = sp.Ref()
		t0 = time.Now()
	} else {
		req.Trace = telemetry.RefFromContext(ctx)
	}
	resp, err := r.do(ctx, req)
	if r.tel != nil {
		latency.ObserveSince(t0)
		if err != nil {
			errs.Inc()
			sp.Attr("error", err.Error())
		}
		sp.End()
	}
	return resp, err
}

// do drives one logical call through the retry loop: transport failures
// get MaxAttempts tries with deterministic jittered backoff, each on a
// clean connection; remote application errors and context
// cancellations are final. The (Src, Seq) idempotency id is fixed
// before the first attempt, so every retry is the same logical call to
// the server.
func (r *RemoteAgent) do(ctx context.Context, req request) (response, error) {
	r.mu.Lock()
	closed := r.closed
	r.mu.Unlock()
	if closed {
		return response{}, fmt.Errorf("agentrpc: %s %s: client closed", req.Op, r.addr)
	}
	req.Src = r.src
	req.Seq = r.seq.Add(1)
	attempts := r.pol.attempts()
	var rng *rand.Rand
	var lastResp response
	var lastErr error
	for a := 0; a < attempts; a++ {
		if a > 0 {
			if rng == nil {
				// The backoff schedule derives from (Seed, Seq), not
				// from shared global state: deterministic under test,
				// uncorrelated across concurrent calls.
				rng = parallel.Rand(r.pol.Seed, req.Seq)
			}
			if !sleepCtx(ctx, r.pol.backoff(a, rng)) {
				return lastResp, fmt.Errorf("agentrpc: %s %s: %w (giving up after %d attempts: %v)",
					req.Op, r.addr, ctx.Err(), a, lastErr)
			}
			if r.tel != nil {
				r.tel.retries.Inc()
			}
		}
		resp, err := r.hedged(ctx, req)
		if err == nil {
			return resp, nil
		}
		lastResp, lastErr = resp, err
		if !retryable(err) || ctx.Err() != nil {
			return resp, err
		}
	}
	return lastResp, lastErr
}

// hedged runs one attempt, racing a second connection after HedgeDelay
// for read-only ops: tail latency from one slow conn or a stalled peer
// loses to the fresh attempt, and the loser is abandoned (its
// connection dies with the cancelled context).
func (r *RemoteAgent) hedged(ctx context.Context, req request) (response, error) {
	if r.pol.HedgeDelay <= 0 || !req.Op.hedgeable() {
		return r.attempt(ctx, req)
	}
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	type result struct {
		resp  response
		err   error
		hedge bool
	}
	ch := make(chan result, 2)
	run := func(hedge bool) {
		resp, err := r.attempt(actx, req)
		ch <- result{resp: resp, err: err, hedge: hedge}
	}
	go run(false)
	timer := time.NewTimer(r.pol.HedgeDelay)
	defer timer.Stop()
	inFlight, hedgedOff := 1, false
	var first *result
	for {
		select {
		case res := <-ch:
			inFlight--
			if res.err == nil {
				if res.hedge && r.tel != nil {
					r.tel.hedgeWins.Inc()
				}
				return res.resp, nil
			}
			if first == nil {
				c := res
				first = &c
			}
			if inFlight == 0 {
				return first.resp, first.err
			}
		case <-timer.C:
			if !hedgedOff {
				hedgedOff = true
				if r.tel != nil {
					r.tel.hedges.Inc()
				}
				inFlight++
				go run(true)
			}
		}
	}
}

// attempt performs one round trip on one pooled connection. The
// attempt's deadline (Policy.Timeout, clipped by the context deadline)
// is enforced as a conn deadline, and a cancelled context pokes the
// deadline into the past so the blocking gob round trip aborts — a
// hung server can no longer block the caller forever. Any transport
// failure closes the connection; the retry layer redials.
func (r *RemoteAgent) attempt(ctx context.Context, req request) (response, error) {
	select {
	case r.slots <- struct{}{}:
	case <-ctx.Done():
		return response{}, fmt.Errorf("agentrpc: %s %s: %w", req.Op, r.addr, ctx.Err())
	}
	defer func() { <-r.slots }()

	w, err := r.getWire()
	if err != nil {
		return response{}, &TransportError{Op: req.Op.String(), Addr: r.addr, Phase: "dial", Err: err}
	}
	var deadline time.Time
	if r.pol.Timeout > 0 {
		deadline = time.Now().Add(r.pol.Timeout)
	}
	if d, ok := ctx.Deadline(); ok && (deadline.IsZero() || d.Before(deadline)) {
		deadline = d
	}
	if !deadline.IsZero() {
		w.conn.SetDeadline(deadline)
	}
	stop := context.AfterFunc(ctx, func() {
		w.conn.SetDeadline(time.Unix(1, 0)) // the distant past: fail in-flight I/O now
	})

	fail := func(phase string, err error) (response, error) {
		stop()
		w.conn.Close()
		if cerr := ctx.Err(); cerr != nil {
			return response{}, fmt.Errorf("agentrpc: %s %s: %s aborted: %w", req.Op, r.addr, phase, cerr)
		}
		if phase == "receive" && errors.Is(err, io.EOF) {
			return response{}, &TransportError{Op: req.Op.String(), Addr: r.addr, Phase: "connection closed", Err: err}
		}
		return response{}, &TransportError{Op: req.Op.String(), Addr: r.addr, Phase: phase, Err: err}
	}

	if err := w.enc.Encode(req); err != nil {
		return fail("send", err)
	}
	var resp response
	if err := w.dec.Decode(&resp); err != nil {
		return fail("receive", err)
	}
	if stop() {
		// The cancel watcher never ran: the conn deadline is ours to
		// clear, and the stream is positioned at a message boundary —
		// safe to pool.
		w.conn.SetDeadline(time.Time{})
		r.putWire(w)
	} else {
		// Cancellation raced our success; the conn deadline state is
		// unknown, so don't pool the wire.
		w.conn.Close()
	}
	if resp.Err != "" {
		return resp, &RemoteError{Op: req.Op.String(), Addr: r.addr, Msg: resp.Err}
	}
	return resp, nil
}

// ClusterID implements cluster.Agent.
func (r *RemoteAgent) ClusterID(ctx context.Context) (model.ClusterID, error) {
	resp, err := r.call(ctx, request{Op: opClusterID})
	return resp.Cluster, err
}

// Reset implements cluster.Agent.
func (r *RemoteAgent) Reset(ctx context.Context) error {
	_, err := r.call(ctx, request{Op: opReset})
	return err
}

// Evaluate implements cluster.Agent.
func (r *RemoteAgent) Evaluate(ctx context.Context, id model.ClientID) (cluster.EvalResult, error) {
	resp, err := r.call(ctx, request{Op: opEvaluate, Client: id})
	return resp.Eval, err
}

// Commit implements cluster.Agent.
func (r *RemoteAgent) Commit(ctx context.Context, id model.ClientID, portions []alloc.Portion) error {
	_, err := r.call(ctx, request{Op: opCommit, Client: id, Portions: portions})
	return err
}

// Remove implements cluster.Agent.
func (r *RemoteAgent) Remove(ctx context.Context, id model.ClientID) error {
	_, err := r.call(ctx, request{Op: opRemove, Client: id})
	return err
}

// Improve implements cluster.Agent.
func (r *RemoteAgent) Improve(ctx context.Context) (cluster.ImproveStats, error) {
	resp, err := r.call(ctx, request{Op: opImprove})
	return resp.Improve, err
}

// Profit implements cluster.Agent.
func (r *RemoteAgent) Profit(ctx context.Context) (float64, error) {
	resp, err := r.call(ctx, request{Op: opProfit})
	return resp.Profit, err
}

// Snapshot implements cluster.Agent.
func (r *RemoteAgent) Snapshot(ctx context.Context) (map[model.ClientID][]alloc.Portion, error) {
	resp, err := r.call(ctx, request{Op: opSnapshot})
	return resp.Snapshot, err
}

// Close implements cluster.Agent: no further calls are accepted and all
// pooled connections are closed. In-flight attempts run to completion
// (their connections are closed on return instead of pooled).
func (r *RemoteAgent) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	idle := r.idle
	r.idle = nil
	r.mu.Unlock()
	var errs []error
	for _, w := range idle {
		errs = append(errs, w.conn.Close())
	}
	return errors.Join(errs...)
}
