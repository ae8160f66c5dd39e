package protocol

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"distwindow/internal/stream"
)

// EmitAt receives a coordinator update produced during site-local work,
// stamped with its emission time. Within one lane, emission times must be
// non-decreasing and never less than the progress value the lane handler
// last returned — the merge relies on both to order applies globally.
type EmitAt func(t int64, scale float64, v []float64)

// LaneHandler runs all site-local work for one pipeline item. The pipeline
// calls it from the lane's worker goroutine: calls for one site are
// serialized, calls for distinct sites run concurrently, so the handler's
// per-site state needs no locking but anything shared (counters, the
// tracker's site array) must be safe for concurrent sites.
//
// The v slice passed to HandleRow aliases the block of rows the lane's
// ring slot carries; once the slot is popped the block goes back to the
// producer, and the very next enqueue may refill it — the handler must
// copy anything it retains (the trackers already honor this no-retention
// contract).
//
// Each call returns the lane's new progress: a promise that every future
// emission from this site has emission time ≥ progress. For a plain lane
// this is the item's timestamp; a lane holding a skew buffer returns its
// release floor instead, since buffered rows may still come out earlier
// than the newest arrival.
type LaneHandler interface {
	HandleRow(site int, t int64, v []float64, emit EmitAt) (progress int64)
	HandleAdvance(site int, now int64, emit EmitAt) (progress int64)
	HandleFlush(site int, emit EmitAt) (progress int64)
}

// PipelineConfig sizes the pipeline.
type PipelineConfig struct {
	// Workers is the number of site-work goroutines; lanes are sharded
	// round-robin across them. ≤0 means GOMAXPROCS.
	Workers int
	// RingSize is the per-lane input ring capacity in blocks (rounded up
	// to a power of two). ≤0 means 256. When a lane's ring fills, enqueues
	// block — backpressure, not loss. The depth bounds the blocks a lane
	// may have in flight; a lane's row buffers follow the blocks it has
	// actually had in flight at once, not the depth.
	RingSize int
	// MaxBlock caps the rows per ring block. ≤0 means 64. EnqueueRows
	// splits longer runs into MaxBlock-row blocks, each one ring op.
	MaxBlock int
	// PostApply, if non-nil, is called from the coordinator goroutine at
	// the end of every apply pass with the number of updates the pass
	// applied (possibly zero). It runs before the pass's updates are
	// subtracted from the pending count, so Drain's pending==0 barrier
	// also covers the hook: once Drain returns, no PostApply call is in
	// flight for pre-drain work. The hook must not block for long — it
	// stalls the apply loop, not ingest — and must not call back into the
	// pipeline.
	PostApply func(applied int)
}

// pendQueue is a lane's worker-local FIFO of emitted-but-unreleased
// updates. Only the lane's worker touches it (emit during handling,
// pop during the release pass), so it needs no locking. It is unbounded
// for the same reason the out-rings are: a lagging lane must not block
// the merge.
type pendQueue struct {
	items []Update
	head  int
}

func (q *pendQueue) push(u Update) { q.items = append(q.items, u) }

func (q *pendQueue) peek() (Update, bool) {
	if q.head == len(q.items) {
		return Update{}, false
	}
	return q.items[q.head], true
}

func (q *pendQueue) pop() Update {
	u := q.items[q.head]
	q.items[q.head] = Update{}
	q.head++
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	return u
}

// lane is one site's slice of the pipeline: its input ring, its pending
// emissions, and its merge bookkeeping.
type lane struct {
	site int
	ring *spscRing
	pend pendQueue

	// progress is the lane's emission floor (see LaneHandler). Written by
	// the worker after each block, read for virtual merge keys and
	// MinProgress. Starts at minInt64: an unstarted lane blocks everything.
	progress atomic.Int64

	// enq counts blocks pushed to the ring, done blocks fully processed;
	// enq == done means the lane's input is drained (its emissions, if
	// any, are in pend or further along).
	enq  atomic.Int64
	done atomic.Int64

	emitFn EmitAt
	w      *workerState
}

func (ln *lane) emit(t int64, scale float64, v []float64) {
	ln.pend.push(Update{T: t, Site: ln.site, Scale: scale, V: v})
	ln.w.localPend.Add(1)
}

func (ln *lane) idle() bool { return ln.done.Load() == ln.enq.Load() }

// localKey is the lane's merge key inside its worker's pre-merge: the head
// pending emission if one exists, else +inf when a drain has proven the
// lane cannot emit again, else a virtual key from its progress.
func (ln *lane) localKey(draining bool) mergeKey {
	if u, ok := ln.pend.peek(); ok {
		return mergeKey{t: u.T, site: u.Site, real: true}
	}
	if draining && ln.idle() {
		return mergeKey{t: maxInt64, site: ln.site}
	}
	return mergeKey{t: ln.progress.Load(), site: ln.site}
}

// workerState is one worker goroutine's shard of the pipeline: the lanes
// it owns, the local tournament that pre-merges their emissions into one
// (T, site)-ordered run, the SPSC out-ring carrying that run to the
// coordinator, and the published floor that gates the final merge while
// the out-ring is empty.
type workerState struct {
	id    int
	lanes []*lane
	tour  *tournament // leaf i ↔ lanes[i]; worker-only
	out   *outRing

	// floor is the worker's released-emission floor: a promise that every
	// update the worker has not yet pushed to its out-ring has merge key
	// ≥ floor (same "strictly after, except the same-key real" reading as
	// lane progress). Published under a seqlock: torn (t, site) pairs are
	// order-unsafe — a new t paired with a stale smaller site would let a
	// candidate through that must still wait — so readers retry until they
	// observe a consistent pair.
	floorSeq  atomic.Uint64
	floorT    atomic.Int64
	floorSite atomic.Int64

	// localPend counts emitted-but-unreleased updates across the worker's
	// lanes. Written only by the worker, read by Drain and the coordinator
	// to detect true idleness.
	localPend atomic.Int64

	// dirty tells the coordinator to re-read this worker's merge key.
	dirty atomic.Bool
	wake  chan struct{}
}

func (w *workerState) publishFloor(k mergeKey) {
	w.floorSeq.Add(1) // odd: write in progress
	w.floorT.Store(k.t)
	w.floorSite.Store(int64(k.site))
	w.floorSeq.Add(1) // even: consistent
}

func (w *workerState) readFloor() mergeKey {
	for {
		s := w.floorSeq.Load()
		if s&1 == 0 {
			t := w.floorT.Load()
			site := w.floorSite.Load()
			if w.floorSeq.Load() == s {
				return mergeKey{t: t, site: int(site)}
			}
		}
		runtime.Gosched()
	}
}

// idle reports whether the worker has fully digested its input: every
// owned lane's ring drained and every emission released to the out-ring.
func (w *workerState) idle() bool {
	if w.localPend.Load() != 0 {
		return false
	}
	for _, ln := range w.lanes {
		if !ln.idle() {
			return false
		}
	}
	return true
}

// Pipeline is the parallel ingestion fabric for the one-way protocol
// family: one lane per site, lanes sharded over worker goroutines that run
// all site-local work and pre-merge their lanes' emissions into per-worker
// (T, site)-ordered runs, and a single coordinator goroutine that applies
// updates in global (T, site) order via a final k-way tournament merge
// over k = workers out-rings.
//
// Concurrency contract: at most one goroutine may enqueue per site (the
// rings are single-producer), and Advance/Drain/MinProgress/Close must not
// run concurrently with any enqueue.
type Pipeline struct {
	lanes     []*lane
	workers   []*workerState
	h         LaneHandler
	apply     func(Update)
	postApply func(applied int)

	maxBlock int

	tour *tournament // leaf i ↔ workers[i]; coordinator-only
	// pending counts updates released to out-rings but not yet applied.
	pending  atomic.Int64
	draining atomic.Bool
	// kick wakes the coordinator; buffered so a kick during a pass is
	// never lost.
	kick  chan struct{}
	stopc chan struct{}
	wg    sync.WaitGroup
}

const maxInt64 = 1<<63 - 1

// NewPipeline starts the workers and coordinator for sites lanes. apply is
// called only from the coordinator goroutine, in global (T, site) order
// with per-site FIFO.
func NewPipeline(sites int, h LaneHandler, apply func(Update), cfg PipelineConfig) *Pipeline {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > sites {
		workers = sites
	}
	ringSize := cfg.RingSize
	if ringSize <= 0 {
		ringSize = 256
	}
	maxBlock := cfg.MaxBlock
	if maxBlock <= 0 {
		maxBlock = 64
	}
	p := &Pipeline{
		h:         h,
		apply:     apply,
		postApply: cfg.PostApply,
		maxBlock:  maxBlock,
		tour:      newTournament(workers),
		kick:      make(chan struct{}, 1),
		stopc:     make(chan struct{}),
	}
	p.lanes = make([]*lane, sites)
	for i := range p.lanes {
		ln := &lane{site: i, ring: newSPSCRing(ringSize)}
		ln.progress.Store(minInt64)
		ln.emitFn = ln.emit
		p.lanes[i] = ln
	}
	p.workers = make([]*workerState, workers)
	for wk := 0; wk < workers; wk++ {
		w := &workerState{
			id:   wk,
			out:  newOutRing(),
			wake: make(chan struct{}, 1),
		}
		for i := wk; i < sites; i += workers {
			p.lanes[i].w = w
			w.lanes = append(w.lanes, p.lanes[i])
		}
		w.tour = newTournament(len(w.lanes))
		w.publishFloor(mergeKey{t: minInt64, site: w.lanes[0].site})
		p.workers[wk] = w
		p.wg.Add(1)
		go p.worker(w)
	}
	p.wg.Add(1)
	go p.coordinator()
	return p
}

// EnqueueRow hands a single row to its site's lane as a one-row block. v
// is copied into the lane's ring, so the caller may reuse its backing
// array. Blocks while the lane's ring is full (backpressure).
func (p *Pipeline) EnqueueRow(site int, t int64, v []float64) {
	ln := p.lanes[site]
	ln.enq.Add(1)
	ln.ring.push(func(s *laneItem) { s.fillRows(ln.ring.block(), []stream.Row{{T: t, V: v}}) })
	p.wakeWorker(site)
}

// EnqueueRows hands a run of rows to its site's lane in blocks of up to
// MaxBlock rows — one ring op and one (non-blocking) worker wakeup per
// block, amortizing the per-row atomics and parks of EnqueueRow. All rows
// must share a dimension. Values are copied; blocks while the ring is
// full.
func (p *Pipeline) EnqueueRows(site int, rows []stream.Row) {
	ln := p.lanes[site]
	for len(rows) > 0 {
		n := len(rows)
		if n > p.maxBlock {
			n = p.maxBlock
		}
		blk := rows[:n]
		rows = rows[n:]
		ln.enq.Add(1)
		ln.ring.push(func(s *laneItem) { s.fillRows(ln.ring.block(), blk) })
		// Wake per block, not once after the loop: if the worker is parked
		// and this call carries more blocks than the ring holds, push would
		// block on a full ring with no one ever told to drain it.
		p.wakeWorker(site)
	}
}

// Advance broadcasts a clock-advance token to every lane. Caller must be
// quiesced (no concurrent enqueues anywhere).
func (p *Pipeline) Advance(now int64) {
	for _, ln := range p.lanes {
		ln.enq.Add(1)
		ln.ring.push(func(s *laneItem) { s.t, s.kind = now, itemAdvance })
	}
	for _, w := range p.workers {
		p.wake(w)
	}
}

// Workers returns the number of worker goroutines the pipeline runs.
func (p *Pipeline) Workers() int { return len(p.workers) }

func (p *Pipeline) wakeWorker(site int) { p.wake(p.lanes[site].w) }

func (p *Pipeline) wake(w *workerState) {
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

func (p *Pipeline) kickCoord() {
	select {
	case p.kick <- struct{}{}:
	default:
	}
}

// worker drains its lanes' rings, running the handler in-place on each
// block (peek → handle → pop, so a block's rows are stable during the
// calls), then releases its lanes' pending emissions through the local
// pre-merge before parking.
func (p *Pipeline) worker(w *workerState) {
	defer p.wg.Done()
	for {
		progressed := false
		for _, ln := range w.lanes {
			for {
				it, ok := ln.ring.peek()
				if !ok {
					break
				}
				progressed = true
				var prog int64
				switch it.kind {
				case itemRow:
					for r := 0; r < it.n; r++ {
						t, v := it.row(r)
						prog = p.h.HandleRow(ln.site, t, v, ln.emitFn)
					}
				case itemAdvance:
					prog = p.h.HandleAdvance(ln.site, it.t, ln.emitFn)
				case itemFlush:
					prog = p.h.HandleFlush(ln.site, ln.emitFn)
				}
				if prog > ln.progress.Load() {
					ln.progress.Store(prog)
				}
				ln.ring.pop()
				ln.done.Add(1)
			}
		}
		if progressed || p.draining.Load() {
			p.release(w)
		}
		if !progressed {
			select {
			case <-w.wake:
			case <-p.stopc:
				return
			}
		}
	}
}

// release runs the worker's pre-merge: pop pending emissions in (T, site)
// order into the out-ring while the local tournament's winner is real,
// then publish the worker's new floor and hand the coordinator the
// refreshed key. The local gate mirrors the global one — a virtual local
// winner means one of this worker's own lanes could still emit earlier, so
// later pending updates must be held back to keep the out-ring run sorted.
func (p *Pipeline) release(w *workerState) {
	draining := p.draining.Load()
	for i, ln := range w.lanes {
		w.tour.setKey(i, ln.localKey(draining))
	}
	w.tour.rebuild()
	released := false
	for {
		li, real := w.tour.min()
		if !real {
			break
		}
		ln := w.lanes[li]
		u := ln.pend.pop()
		// Order matters: the update must be visible in out-ring + pending
		// before localPend drops, or Drain/leafKey could observe a moment
		// where it is counted nowhere and conclude the worker is idle.
		w.out.push(u)
		p.pending.Add(1)
		w.localPend.Add(-1)
		released = true
		w.tour.replayWinner(ln.localKey(draining))
	}
	// Publish the progress-based floor even mid-drain: the coordinator
	// derives the drain-time +inf at read time (draining && idle), so the
	// stored floor never goes stale when the drain ends. With the pend
	// queues just emptied under drain keys, the released-emission promise
	// reduces to the lanes' progress floors.
	if draining {
		floor := mergeKey{t: maxInt64, site: w.lanes[0].site}
		for _, ln := range w.lanes {
			if k := (mergeKey{t: ln.progress.Load(), site: ln.site}); k.less(floor) {
				floor = k
			}
		}
		w.publishFloor(floor)
	} else {
		w.publishFloor(w.tour.rootKey())
	}
	w.dirty.Store(true)
	// The coordinator only needs this worker's new key if an update is
	// waiting somewhere: our own releases, or a stalled update from
	// another worker that our floor advance may unblock. With pending == 0
	// the dirty flag just accumulates until the next release's kick.
	if released || p.pending.Load() > 0 {
		p.kickCoord()
	}
}

// coordinator applies updates in global (T, site) order: on each kick it
// re-reads the merge keys of dirty workers, then pops and applies while
// the tournament winner is a real key. A virtual winner means some worker
// could still release something earlier — stall until that worker's floor
// advances (or Drain marks it finished).
func (p *Pipeline) coordinator() {
	defer p.wg.Done()
	for {
		select {
		case <-p.kick:
		case <-p.stopc:
			return
		}
		changed := false
		for i, w := range p.workers {
			if w.dirty.Swap(false) {
				p.tour.setKey(i, p.leafKey(w))
				changed = true
			}
		}
		if changed {
			p.tour.rebuild()
		}
		applied := 0
		for {
			wi, real := p.tour.min()
			if !real {
				break
			}
			w := p.workers[wi]
			u := w.out.pop()
			p.apply(u)
			applied++
			p.tour.replayWinner(p.leafKey(w))
		}
		// The hook runs between the applies and the pending decrement so
		// Drain's pending==0 barrier proves the hook has seen (and, e.g.,
		// published) everything drained — a reader after Drain can rely on
		// the snapshot covering the drained prefix.
		if p.postApply != nil {
			p.postApply(applied)
		}
		if applied > 0 {
			p.pending.Add(-int64(applied))
		}
	}
}

// leafKey computes a worker's current merge key: the head of its out-ring
// if an update is waiting, else +inf during a drain once the worker is
// fully idle (a drained worker cannot release again), else its published
// floor.
//
// The floor and the idle test are read before the out-ring. A worker
// pushes an update before it publishes a floor above it, and before its
// pending count drops, so an out-ring found empty after those reads holds
// nothing they do not cover. Peeking first would let a push and a floor
// publish land between the two reads: the coordinator would then apply
// other workers' later updates past the one just pushed.
func (p *Pipeline) leafKey(w *workerState) mergeKey {
	floor := w.readFloor()
	drained := p.draining.Load() && w.idle()
	if u, ok := w.out.peek(); ok {
		return mergeKey{t: u.T, site: u.Site, real: true}
	}
	if drained {
		return mergeKey{t: maxInt64, site: w.id}
	}
	return floor
}

// Drain blocks until every enqueued block has been processed, every
// emission released, and every released update applied. If flush is true
// it first sends each lane a flush token (releasing skew-buffered rows)
// once the lanes go idle. Caller must be quiesced; afterwards Sketch-style
// reads of the coordinator state are safe.
func (p *Pipeline) Drain(flush bool) {
	waitUntil(p.lanesIdle)
	if flush {
		for _, ln := range p.lanes {
			ln.enq.Add(1)
			ln.ring.push(func(s *laneItem) { s.kind = itemFlush })
		}
		for _, w := range p.workers {
			p.wake(w)
		}
		waitUntil(p.lanesIdle)
	}
	p.draining.Store(true)
	// Every worker runs a release pass under drain keys (+inf for idle
	// lanes), emptying its pend queues into its out-ring.
	for _, w := range p.workers {
		p.wake(w)
	}
	p.markAllDirty()
	p.kickCoord()
	waitUntil(func() bool {
		for _, w := range p.workers {
			if w.localPend.Load() != 0 {
				return false
			}
		}
		return p.pending.Load() == 0
	})
	p.draining.Store(false)
	// The +inf drain keys are stale now: re-dirty every worker so the next
	// pass restores floor-based keys before new items arrive.
	p.markAllDirty()
	p.kickCoord()
}

func (p *Pipeline) lanesIdle() bool {
	for _, ln := range p.lanes {
		if !ln.idle() {
			return false
		}
	}
	return true
}

func (p *Pipeline) markAllDirty() {
	for _, w := range p.workers {
		w.dirty.Store(true)
	}
}

// MinProgress returns the smallest lane progress — a safe lower bound on
// the emission time of anything the pipeline could still produce. A lane
// that never processed an item reports minInt64.
func (p *Pipeline) MinProgress() int64 {
	min := int64(maxInt64)
	for _, ln := range p.lanes {
		if v := ln.progress.Load(); v < min {
			min = v
		}
	}
	return min
}

// Close stops the workers and coordinator. It does not drain: call Drain
// first if unapplied work matters. No enqueue may be in flight or follow.
func (p *Pipeline) Close() {
	close(p.stopc)
	p.wg.Wait()
}

// waitUntil spins briefly then backs off to short sleeps; the waits it
// serves (drain barriers) are bounded by in-flight work.
func waitUntil(cond func() bool) {
	for i := 0; !cond(); i++ {
		if i < 100 {
			runtime.Gosched()
		} else {
			time.Sleep(50 * time.Microsecond)
		}
	}
}
