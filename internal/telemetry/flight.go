package telemetry

import (
	"encoding/json"
	"sync"
	"time"
)

// The flight recorder is the "why" companion to the span tracer's "how
// long": a bounded ring of typed, structured solver decisions — a
// placement accepted or rejected and for what reason, the bound vs the
// exact gain at a pruning decision, an escalation to a full scan, a
// commit or restore failure, a reconciliation move. At 100k–1M clients
// recording every decision would be both too hot and too big, so events
// that carry a client ID are sampled 1-in-N by a deterministic hash of
// the ID: the same clients are recorded at any worker or shard count,
// so two runs of the same instance produce comparable recordings.

// EventKind types a flight-recorder event.
type EventKind uint8

const (
	// EventPlaceAccept: a client was placed; Cluster is the chosen
	// cluster, Delta the profit gain.
	EventPlaceAccept EventKind = iota + 1
	// EventPlaceReject: no cluster accepted the client; Reason says why
	// (e.g. "no_gain", "admission").
	EventPlaceReject
	// EventPruneBound: the candidate index pruned a cluster scan; Bound
	// is the index's upper bound, Exact the gain of the cluster actually
	// chosen (bound-vs-exact gap at the pruning decision).
	EventPruneBound
	// EventEscalate: the pruned candidate set yielded nothing and the
	// solver fell back to a full exact scan.
	EventEscalate
	// EventCommitFail: a reassignment move failed transactional
	// revalidation at commit time and was dropped.
	EventCommitFail
	// EventRestoreFail: rolling a client back to its previous placement
	// failed — the client is left unassigned (counted, never silent).
	EventRestoreFail
	// EventReconcileMove: the serial whole-cloud reconciliation pass
	// moved a client across shard boundaries; Delta is the gain.
	EventReconcileMove
)

var eventKindNames = [...]string{
	0:                  "unknown",
	EventPlaceAccept:   "place_accept",
	EventPlaceReject:   "place_reject",
	EventPruneBound:    "prune_bound",
	EventEscalate:      "escalate",
	EventCommitFail:    "commit_fail",
	EventRestoreFail:   "restore_fail",
	EventReconcileMove: "reconcile_move",
}

// String returns the snake_case name of the kind.
func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return "unknown"
}

// MarshalJSON encodes the kind by name.
func (k EventKind) MarshalJSON() ([]byte, error) {
	return json.Marshal(k.String())
}

// Event is one recorded solver decision. Client and Cluster are -1 when
// the event is not scoped to one; Trace links the event to the span tree
// it happened under.
type Event struct {
	Seq     uint64    `json:"seq"`
	Time    time.Time `json:"time"`
	Kind    EventKind `json:"kind"`
	Client  int64     `json:"client"`
	Cluster int64     `json:"cluster"`
	Reason  string    `json:"reason,omitempty"`
	Bound   float64   `json:"bound,omitempty"`
	Exact   float64   `json:"exact,omitempty"`
	Delta   float64   `json:"delta,omitempty"`
	Trace   TraceRef  `json:"trace"`
}

// Flight is the bounded event ring. A nil *Flight is a valid disabled
// recorder: SampleClient reports false and Record is an allocation-free
// no-op, so instrumented hot loops pay only a nil check.
type Flight struct {
	mu    sync.Mutex
	buf   []Event
	next  int
	total uint64

	every uint64 // record 1-in-every clients; 1 = record all
	seed  uint64
}

// defaultFlightCapacity bounds the ring when none is given.
const defaultFlightCapacity = 8192

// NewFlight builds a recorder retaining the last capacity events
// (defaultFlightCapacity when capacity <= 0) and sampling 1-in-every
// client-scoped events (every <= 1 records all).
func NewFlight(capacity, every int) *Flight {
	if capacity <= 0 {
		capacity = defaultFlightCapacity
	}
	if every < 1 {
		every = 1
	}
	return &Flight{buf: make([]Event, 0, capacity), every: uint64(every), seed: 1}
}

// sampleEvery returns the 1-in-N sampling stride (0 on nil).
func (f *Flight) sampleEvery() uint64 {
	if f == nil {
		return 0
	}
	return f.every
}

// SampleClient reports whether events for this client should be
// recorded. The decision hashes the client ID with the recorder's seed
// (splitmix64 finalizer), so it is a pure function of the ID — the same
// clients are sampled regardless of worker count, shard layout, or the
// order decisions happen in. Nil and disabled recorders report false.
func (f *Flight) SampleClient(client int64) bool {
	if f == nil {
		return false
	}
	if f.every <= 1 {
		return true
	}
	return uint64(deriveID(ID(f.seed), uint64(client)))%f.every == 0
}

// Record commits an event, stamping Seq and (when zero) Time. Callers
// gate client-scoped events behind SampleClient; rare events (commit or
// restore failures) are recorded unconditionally.
func (f *Flight) Record(e Event) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.total++
	e.Seq = f.total
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	if len(f.buf) < cap(f.buf) {
		f.buf = append(f.buf, e)
	} else {
		f.buf[f.next] = e
		f.next = (f.next + 1) % cap(f.buf)
	}
	f.mu.Unlock()
}

// Snapshot returns the retained events, oldest first.
func (f *Flight) Snapshot() []Event {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]Event, 0, len(f.buf))
	out = append(out, f.buf[f.next:]...)
	out = append(out, f.buf[:f.next]...)
	return out
}

// Total returns the number of events recorded over the recorder's
// lifetime, including those already overwritten in the ring.
func (f *Flight) Total() uint64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.total
}
