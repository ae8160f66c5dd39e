// Package trace provides span-based causal tracing of protocol activity:
// a row's journey from site ingest through bucket maintenance, message
// send, coordinator apply and sketch query, stitched together across
// goroutines (and network connections) by trace/span IDs.
//
// The design follows the same constraints as package obs:
//
//  1. Disabled tracing must cost one nil-check per hook site. A nil
//     *Tracer is valid and inert, and so is the zero Span, so producers
//     guard with `if tr != nil` (or nothing at all — every method
//     tolerates its zero receiver).
//  2. Sampling is head-based: the decision is taken once at the trace
//     root (Start) and inherited by every child span, including remote
//     ones — a sampled site ingest yields a sampled coordinator apply.
//     The default is 1-in-SampleEvery; 0 disables.
//  3. Completed spans go to a bounded lock-free ring (Ring) shared by any
//     number of tracers; old spans are overwritten, never blocked on.
//  4. Standard library only.
//
// Concurrency: a Ring is safe for any number of concurrent tracers and
// readers. A Tracer's sampling counter is atomic, but its current-span
// chain (the implicit parent for Child and Instant) is not — each
// ingesting goroutine must own its own Tracer, exactly like the sink
// fields elsewhere in the repository. Linked spans (StartLinked) do not
// touch the chain and may be recorded from any goroutine.
package trace

import (
	"sync/atomic"
	"time"
)

// Op names the protocol operation a span covers.
type Op uint8

// The span vocabulary, covering the causal chain the protocols execute.
const (
	// OpIngest is one row entering a site (the usual trace root).
	OpIngest Op = iota
	// OpBucketCreate is a sliding-window histogram opening a bucket.
	OpBucketCreate
	// OpBucketMerge is a histogram compaction pass absorbing buckets.
	OpBucketMerge
	// OpBucketExpire is buckets sliding out of the window.
	OpBucketExpire
	// OpSend is a message leaving a site toward the coordinator.
	OpSend
	// OpRecv is a coordinator→site message in the simulated fabric.
	OpRecv
	// OpApply is the coordinator folding one message into its state.
	OpApply
	// OpQuery is a coordinator sketch (or estimate) query.
	OpQuery

	numOps = iota
)

var opNames = [...]string{
	OpIngest:       "ingest",
	OpBucketCreate: "bucket_create",
	OpBucketMerge:  "bucket_merge",
	OpBucketExpire: "bucket_expire",
	OpSend:         "send",
	OpRecv:         "recv",
	OpApply:        "apply",
	OpQuery:        "query",
}

// String returns the op's snake_case name.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return "unknown"
}

// ids allocates span identifiers process-wide; 0 means "none", so the
// first allocated id is 1.
var ids atomic.Uint64

func nextID() uint64 { return ids.Add(1) }

// Context is the wire form of a span: enough to continue its trace on
// the far side of a connection. The zero Context means "untraced".
type Context struct {
	// Trace identifies the whole causal chain (the root span's ID).
	Trace uint64
	// Span is the sending span, i.e. the remote child's parent.
	Span uint64
}

// Valid reports whether the context belongs to a sampled trace.
func (c Context) Valid() bool { return c.Trace != 0 }

// SpanRec is one completed (or instant) span as stored in the ring and
// exported to Chrome trace JSON.
type SpanRec struct {
	// Trace is the root span's ID, shared by the whole causal chain.
	Trace uint64
	// ID is this span's unique identifier.
	ID uint64
	// Parent is the parent span's ID (0 for roots).
	Parent uint64
	// Op is the operation covered.
	Op Op
	// Site is the site index the span concerns, -1 for the coordinator.
	Site int
	// T is the stream timestamp involved, 0 when not applicable.
	T int64
	// N is a generic count (buckets merged, words sent).
	N int64
	// StartNs is the wall-clock start in Unix nanoseconds.
	StartNs int64
	// DurNs is the span duration in nanoseconds.
	DurNs int64
	// Instant marks a zero-duration point event (bucket lifecycle).
	Instant bool
}

// Ring is a bounded lock-free buffer of completed spans. Writers claim
// slots with one atomic add and publish with one atomic pointer store;
// when full, new spans overwrite the oldest. Multiple tracers may share
// one ring, and Snapshot may run concurrently with writers.
type Ring struct {
	slots []atomic.Pointer[SpanRec]
	mask  uint64
	head  atomic.Uint64
}

// DefaultRingSize is the span capacity used when NewRing is given n ≤ 0.
const DefaultRingSize = 4096

// NewRing returns a ring holding the most recent n completed spans
// (rounded up to a power of two; n ≤ 0 means DefaultRingSize).
func NewRing(n int) *Ring {
	if n <= 0 {
		n = DefaultRingSize
	}
	size := 1
	for size < n {
		size <<= 1
	}
	return &Ring{slots: make([]atomic.Pointer[SpanRec], size), mask: uint64(size - 1)}
}

// Recorded returns how many spans have ever been pushed (beyond the
// ring's capacity, the oldest have been overwritten).
func (r *Ring) Recorded() int64 { return int64(r.head.Load()) }

func (r *Ring) push(s *SpanRec) {
	i := r.head.Add(1) - 1
	r.slots[i&r.mask].Store(s)
}

// Snapshot returns the retained spans ordered by start time. It is safe
// to call while tracers record; a span being overwritten concurrently
// appears as either its old or its new value, never as a torn record.
func (r *Ring) Snapshot() []SpanRec {
	out := make([]SpanRec, 0, len(r.slots))
	for i := range r.slots {
		if p := r.slots[i].Load(); p != nil {
			out = append(out, *p)
		}
	}
	// Insertion sort by start time: snapshots are small and mostly
	// ordered already (slots fill in claim order).
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1].StartNs > out[j].StartNs; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

// Tracer makes sampling decisions and records spans into a shared Ring.
// The zero Tracer and the nil Tracer are inert.
type Tracer struct {
	ring *Ring
	// every is the head-sampling rate: one trace per every roots (0 =
	// off, 1 = every root).
	every uint32
	tick  atomic.Uint32
	// cur is the innermost open span — the implicit parent for Child and
	// Instant. Owned by the tracer's single ingesting goroutine.
	cur *SpanRec
}

// New returns a tracer recording 1-in-every root traces into ring
// (every = 0 disables sampling; every = 1 traces everything).
func New(ring *Ring, every int) *Tracer {
	if every < 0 {
		every = 0
	}
	return &Tracer{ring: ring, every: uint32(every)}
}

// Enabled reports whether the tracer can ever record a span.
func (t *Tracer) Enabled() bool { return t != nil && t.every != 0 && t.ring != nil }

// Span is a live handle on an open span. The zero Span (and any span of
// an unsampled trace) is inert: all methods are no-ops and Context
// returns the zero Context.
type Span struct {
	t *Tracer
	// rec is the record under construction; parent is the previously open
	// record, restored as the tracer's current span on End. chained marks
	// spans pushed onto that chain (Start, Child); End of any other span
	// must not read it, because the chain belongs to the ingest goroutine.
	rec, parent *SpanRec
	chained     bool
}

// Sampled reports whether the span is actually being recorded.
func (s Span) Sampled() bool { return s.rec != nil }

// Start opens a root span, taking the head-based sampling decision for
// the whole trace. Unsampled roots cost one atomic add.
func (t *Tracer) Start(op Op, site int, streamT int64) Span {
	if t == nil || t.every == 0 || t.ring == nil {
		return Span{}
	}
	if n := t.tick.Add(1); t.every > 1 && n%t.every != 0 {
		return Span{}
	}
	id := nextID()
	rec := &SpanRec{
		Trace:   id,
		ID:      id,
		Op:      op,
		Site:    site,
		T:       streamT,
		StartNs: time.Now().UnixNano(),
	}
	prev := t.cur
	t.cur = rec
	return Span{t: t, rec: rec, parent: prev, chained: true}
}

// StartDetached opens a sampled root span without touching the tracer's
// current-span chain, so it is safe from any goroutine — the coordinator
// uses it for query spans, which may race with connection handlers.
// Detached spans cannot have children via Child/Instant.
func (t *Tracer) StartDetached(op Op, site int, streamT int64) Span {
	if t == nil || t.every == 0 || t.ring == nil {
		return Span{}
	}
	if n := t.tick.Add(1); t.every > 1 && n%t.every != 0 {
		return Span{}
	}
	id := nextID()
	return Span{t: t, rec: &SpanRec{
		Trace:   id,
		ID:      id,
		Op:      op,
		Site:    site,
		T:       streamT,
		StartNs: time.Now().UnixNano(),
	}}
}

// StartLinked opens a span continuing a remote trace (e.g. a coordinator
// apply under a site's send span). The sampling decision was taken at the
// remote root: an invalid context yields an inert span. StartLinked does
// not alter the tracer's current-span chain, so it is safe from any
// goroutine.
func (t *Tracer) StartLinked(ctx Context, op Op, site int, streamT int64) Span {
	if t == nil || t.ring == nil || !ctx.Valid() {
		return Span{}
	}
	rec := &SpanRec{
		Trace:   ctx.Trace,
		ID:      nextID(),
		Parent:  ctx.Span,
		Op:      op,
		Site:    site,
		T:       streamT,
		StartNs: time.Now().UnixNano(),
	}
	return Span{t: t, rec: rec}
}

// Child opens a span under the tracer's innermost open span. Inert when
// no sampled span is open.
func (t *Tracer) Child(op Op, site int, streamT int64) Span {
	if t == nil || t.cur == nil {
		return Span{}
	}
	rec := &SpanRec{
		Trace:   t.cur.Trace,
		ID:      nextID(),
		Parent:  t.cur.ID,
		Op:      op,
		Site:    site,
		T:       streamT,
		StartNs: time.Now().UnixNano(),
	}
	prev := t.cur
	t.cur = rec
	return Span{t: t, rec: rec, parent: prev, chained: true}
}

// Instant records a zero-duration child event under the innermost open
// span (bucket lifecycle events during an ingest). One nil-check when no
// span is open.
func (t *Tracer) Instant(op Op, site int, streamT int64, n int64) {
	if t == nil || t.cur == nil {
		return
	}
	t.ring.push(&SpanRec{
		Trace:   t.cur.Trace,
		ID:      nextID(),
		Parent:  t.cur.ID,
		Op:      op,
		Site:    site,
		T:       streamT,
		N:       n,
		StartNs: time.Now().UnixNano(),
		Instant: true,
	})
}

// SetN sets the span's generic count (words sent, buckets touched).
func (s Span) SetN(n int64) {
	if s.rec != nil {
		s.rec.N = n
	}
}

// Context returns the span's wire context for propagation in messages.
func (s Span) Context() Context {
	if s.rec == nil {
		return Context{}
	}
	return Context{Trace: s.rec.Trace, Span: s.rec.ID}
}

// End closes the span and publishes it to the ring. For spans opened with
// Start or Child it also pops the tracer's current-span chain; End must
// therefore be called in LIFO order on those (defer does this naturally).
// Linked and detached spans never touch the chain, so they may end on any
// goroutine.
func (s Span) End() {
	if s.rec == nil {
		return
	}
	s.rec.DurNs = time.Now().UnixNano() - s.rec.StartNs
	if s.t != nil {
		if s.chained && s.t.cur == s.rec {
			s.t.cur = s.parent
		}
		s.t.ring.push(s.rec)
	}
}
