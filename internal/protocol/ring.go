package protocol

import (
	"sync"
	"sync/atomic"

	"distwindow/internal/stream"
)

// itemKind tags a ring slot.
type itemKind uint8

const (
	itemRow itemKind = iota
	itemAdvance
	itemFlush
)

// rowBlock is the storage of one row item: the rows' timestamps, and their
// values packed row after row. A block belongs to its lane, not to a ring
// slot: the producer fills it, a slot carries it to the consumer, and pop
// hands it back to the producer for a later row item. A lane therefore
// holds only as many blocks as it has had row items in flight at once,
// not one per slot, and at steady state the blocks have grown to the
// block size and nothing allocates.
type rowBlock struct {
	ts   []int64
	vbuf []float64
}

// laneItem is one slot of a lane's input ring: a block of rows, an advance
// token, or a drain-time flush token. Filling a row item copies the
// caller's timestamps and values into a block, so the caller may reuse its
// backing arrays; tokens carry no block.
//
// Blocks amortize the per-item costs of the pipeline (ring atomics,
// wakeups, progress stores) over up to maxBlock rows: one ring op moves a
// whole per-site run instead of a single row.
type laneItem struct {
	kind itemKind
	// t is the advance timestamp (itemAdvance only).
	t int64
	// n is the number of rows in the block, d the row stride; row r lives
	// at blk.ts[r], blk.vbuf[r*d : (r+1)*d]. All rows of a block share d.
	n   int
	d   int
	blk *rowBlock // itemRow only; nil once popped
}

// fillRows makes the slot a row item holding rows, copied into block b.
func (s *laneItem) fillRows(b *rowBlock, rows []stream.Row) {
	b.ts = b.ts[:0]
	b.vbuf = b.vbuf[:0]
	for _, r := range rows {
		b.ts = append(b.ts, r.T)
		b.vbuf = append(b.vbuf, r.V...)
	}
	s.kind, s.n, s.d, s.blk = itemRow, len(rows), len(rows[0].V), b
}

// row returns the r-th row of a row item; the slice aliases the item's
// block and is only valid until pop.
func (s *laneItem) row(r int) (int64, []float64) {
	b := s.blk
	return b.ts[r], b.vbuf[r*s.d : (r+1)*s.d : (r+1)*s.d]
}

// spscRing is a bounded single-producer/single-consumer ring buffer with
// producer backpressure: push blocks when the ring is full until the
// consumer frees a slot. The producer is the site's feeder goroutine, the
// consumer its worker; neither side locks on the fast path.
//
// The consumer protocol is peek → process → pop: a row item's block may
// be handed to site-local work by reference, and only pop hands it back to
// the producer, so processing never races a producer overwrite. Once
// popped, a block may be refilled by the very next push, so nothing may
// keep a reference into it past pop.
//
// Blocks travel back through free, a second SPSC ring running the other
// way (the consumer appends at freeTail, the producer takes at freeHead),
// the discipline outRing's chunk freelist uses. pop hands a block back
// before it advances head, so when the producer finds free empty every
// block the lane owns sits in a slot between head and tail: the lane never
// owns more blocks than the ring has slots, and free, as long as slots,
// cannot overflow.
type spscRing struct {
	slots []laneItem
	mask  uint64
	// head is the next slot to consume, tail the next to fill. Occupancy
	// is tail−head; both only ever increase.
	head atomic.Uint64
	tail atomic.Uint64

	// free holds popped blocks for the producer. freeTail is written by
	// the consumer only, freeHead is the producer's own.
	free     []*rowBlock
	freeTail atomic.Uint64
	freeHead uint64

	// Producer parking. prodWaiting is checked by the consumer after every
	// pop; the mutex is only touched when the ring actually fills.
	mu          sync.Mutex
	notFull     *sync.Cond
	prodWaiting atomic.Bool
}

func newSPSCRing(size int) *spscRing {
	n := 1
	for n < size {
		n <<= 1
	}
	r := &spscRing{slots: make([]laneItem, n), mask: uint64(n - 1), free: make([]*rowBlock, n)}
	r.notFull = sync.NewCond(&r.mu)
	return r
}

// push fills the next slot via fill (which writes into the slot in place)
// and publishes it. Blocks while the ring is full.
func (r *spscRing) push(fill func(*laneItem)) {
	for {
		t := r.tail.Load()
		if t-r.head.Load() < uint64(len(r.slots)) {
			fill(&r.slots[t&r.mask])
			r.tail.Store(t + 1)
			return
		}
		// Full: park until the consumer frees a slot. The re-check under
		// the mutex pairs with the consumer's prodWaiting test after its
		// head store, so the wakeup cannot be lost.
		r.mu.Lock()
		r.prodWaiting.Store(true)
		if r.tail.Load()-r.head.Load() == uint64(len(r.slots)) {
			r.notFull.Wait()
		}
		r.prodWaiting.Store(false)
		r.mu.Unlock()
	}
}

// block returns a block for the row item being filled: one the consumer
// has handed back if any is waiting, else a new one. Producer only, and
// only from inside push's fill: the ownership bound above counts on the
// slot check's head load coming first.
func (r *spscRing) block() *rowBlock {
	if r.freeHead == r.freeTail.Load() {
		return new(rowBlock)
	}
	b := r.free[r.freeHead&r.mask]
	r.freeHead++
	return b
}

// peek returns the next slot to process without consuming it. The slot
// stays owned by the consumer until pop.
func (r *spscRing) peek() (*laneItem, bool) {
	h := r.head.Load()
	if h == r.tail.Load() {
		return nil, false
	}
	return &r.slots[h&r.mask], true
}

// pop hands the block of the slot returned by the last peek back to the
// producer, recycles the slot and unparks a blocked producer.
//
// head.Add is not a single-writer hazard: the ring is single-consumer by
// contract (only the lane's worker calls peek/pop), so no other goroutine
// ever writes head and the load-modify-store cannot lose an increment. Add
// is still used over Store(Load()+1) so the invariant holds mechanically
// even if a future refactor introduced a second popper — the RMW is then
// atomic instead of silently dropping increments.
func (r *spscRing) pop() {
	s := &r.slots[r.head.Load()&r.mask]
	if b := s.blk; b != nil {
		s.blk = nil
		ft := r.freeTail.Load()
		r.free[ft&r.mask] = b
		r.freeTail.Store(ft + 1)
	}
	r.head.Add(1)
	if r.prodWaiting.Load() {
		r.mu.Lock()
		r.notFull.Broadcast()
		r.mu.Unlock()
	}
}

// empty reports whether the ring currently holds no items.
func (r *spscRing) empty() bool { return r.head.Load() == r.tail.Load() }
