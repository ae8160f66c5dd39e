// Package meh implements a matrix exponential histogram (mEH) after Wei et
// al. (SIGMOD 2016): a per-site structure that maintains, over a
// time-based sliding window, (1) an O(ε)-covariance sketch of the window
// matrix and (2) an ε-relative estimate of its squared Frobenius norm, in
// O(d/ε² · log(NR)) words.
//
// The structure is an exponential histogram whose buckets carry Frequent
// Directions sketches instead of scalar sums. Buckets merge under the same
// suffix rule as the scalar gEH (package eh): two adjacent buckets merge
// only when their combined Frobenius mass is at most (ε/2)× the mass of
// all strictly newer buckets — an invariant that holds for the merged
// bucket's whole lifetime because newer mass only grows while it lives.
// Merging FD sketches adds their error bounds, but also their masses, so
// each bucket's sketch stays within F_b²/ℓ covariance error. At query time
// only the oldest bucket can straddle the window boundary; including it
// wholesale adds at most its mass ≤ (ε/2)‖A_w‖_F² of covariance error,
// giving O(ε)‖A_w‖_F² total.
//
// The histogram also keeps the window Gram Σ_b B_bᵀB_b in step with its
// buckets, so a caller that needs C = BᵀB (DA1's spectral trigger and
// report) reads one d×d matrix instead of every stored bucket row.
//
// The histogram recycles its transient storage: single-row buffers and FD
// sketches released by bucket merges and expiries go to freelists,
// the compaction pass double-buffers its bucket slice, and every bucket
// sketch shrinks in the histogram's one workspace, so at steady state Add
// performs no heap allocations.
package meh

import (
	"math"

	"distwindow/internal/fd"
	"distwindow/internal/obs"
	"distwindow/internal/trace"
	"distwindow/mat"
)

// Histogram is an mEH. Add must be called with non-decreasing timestamps.
// Construct with New.
type Histogram struct {
	w       int64
	d       int
	eps2    float64 // ε/2 merge threshold factor
	ell     int     // FD sketch size per bucket
	buckets []bucket
	pending int
	// newer is Σ F_b² over every bucket but the oldest, folded oldest to
	// newest: the part of FrobSqEstimate that needs no look at the window
	// edge. Add extends it — the same left-to-right sum, so the same bits —
	// and compaction, expiry and Restore refold it.
	newer float64
	// rows is the number of sketch rows the live buckets store, kept in
	// step on add, merge and expiry so SpaceWords costs O(1).
	rows int

	// gram is Σ_b B_bᵀB_b over the live buckets. Add adds vvᵀ, an expired
	// bucket subtracts its Gram, and a merge whose FD sketch shrinks swaps
	// the parts' Grams for the merged sketch's; a merge that only stacks
	// rows leaves the sum unchanged. sub is the mass subtracted from gram
	// since it was last rebuilt from the buckets: once it exceeds twice the
	// live mass, settle rebuilds gram, so cancellation drift stays bounded
	// by the live window whatever the stream's history (THEORY.md).
	gram *mat.Dense
	sub  float64
	// ws is the shrink workspace lent to every bucket sketch; all of them
	// shrink on the histogram's goroutine.
	ws *mat.Workspace

	// scratch is compact's output double-buffer: compact builds the merged
	// bucket list here, then swaps it with buckets, so neither slice is
	// reallocated at steady state.
	scratch []bucket
	// freeSk and freeRow recycle bucket sketches and single-row buffers
	// released by merges and expiries. They are not capped: they hold only
	// buffers that were live together, so live plus free never exceeds the
	// histogram's peak, and a stream whose bucket count swings (regime
	// shifts merge and expire buckets in bursts) reuses every buffer
	// instead of handing some to the GC and allocating them again.
	freeSk  []*fd.Sketch
	freeRow [][]float64
	// slab is the backing store fresh row buffers are carved from when
	// the freelist misses. A cold histogram's warm-up (nothing released
	// yet) would otherwise pay one allocation per Add; the slab amortizes
	// that to one per slabRows rows, growing geometrically to maxSlabRows.
	slab     []float64
	slabRows int

	// sink receives bucket lifecycle events (created/merged/expired); nil
	// — the default — costs one branch per structural change. site tags
	// the events with the owning site's index.
	sink obs.Sink
	site int
	// tracer records bucket lifecycle instants under the caller's open
	// ingest span; nil — the default — costs one nil-check per event.
	tracer *trace.Tracer
}

// Invariant: a live bucket holds exactly one of row (a single lazy row) or
// sk (a materialized FD sketch).
type bucket struct {
	sk     *fd.Sketch
	row    []float64 // set while the bucket holds exactly one row (lazy sketch)
	frobSq float64
	newest int64
	oldest int64
}

// compactEvery bounds the raw buckets accumulated between compaction
// passes, keeping amortized cost constant.
const compactEvery = 32

// New returns an mEH for d-dimensional rows over a window of w ticks with
// error parameter eps in (0, 1). Per-bucket FD size is ⌈1/eps⌉ so the
// summed FD error across buckets is at most eps·‖A_w‖_F².
func New(w int64, d int, eps float64) *Histogram {
	if w <= 0 {
		panic("meh: window must be positive")
	}
	if eps <= 0 || eps >= 1 {
		panic("meh: eps must be in (0,1)")
	}
	if d < 1 {
		panic("meh: d must be positive")
	}
	return &Histogram{
		w: w, d: d, eps2: eps / 2, ell: int(math.Ceil(1 / eps)),
		gram: mat.NewDense(d, d), ws: mat.NewWorkspace(), site: -1,
	}
}

// SetSink installs an event sink for bucket lifecycle events, tagging them
// with the given site index (-1 for "no site"). A nil sink disables
// events. Install before feeding data; the field is not synchronized.
func (h *Histogram) SetSink(s obs.Sink, site int) {
	h.sink = s
	h.site = site
}

// SetTracer installs a causal tracer for bucket lifecycle instants
// (created/merged/expired), tagged with the given site index. The events
// attach under whatever span the tracer currently has open — the ingest
// root — and are dropped when none is. Install before feeding data; nil
// disables.
func (h *Histogram) SetTracer(tr *trace.Tracer, site int) {
	h.tracer = tr
	h.site = site
}

// D returns the row dimension.
func (h *Histogram) D() int { return h.d }

// getRow returns a copy of v in a (possibly recycled) buffer.
func (h *Histogram) getRow(v []float64) []float64 {
	if n := len(h.freeRow); n > 0 {
		r := h.freeRow[n-1]
		h.freeRow = h.freeRow[:n-1]
		copy(r, v)
		return r
	}
	if len(h.slab) < len(v) {
		switch {
		case h.slabRows == 0:
			h.slabRows = minSlabRows
		case h.slabRows < maxSlabRows:
			h.slabRows *= 2
		}
		h.slab = make([]float64, h.slabRows*len(v))
	}
	r := h.slab[:len(v):len(v)]
	h.slab = h.slab[len(v):]
	copy(r, v)
	return r
}

// minSlabRows and maxSlabRows bound the row-slab growth: small first slab
// so a near-empty stream wastes little, doubling to a cap that keeps the
// steady warm-up cost below one allocation per 64 rows.
const (
	minSlabRows = 8
	maxSlabRows = 64
)

// putRow recycles a released single-row buffer.
func (h *Histogram) putRow(r []float64) {
	if r != nil {
		h.freeRow = append(h.freeRow, r)
	}
}

// getSketch returns an empty sketch, recycled when possible.
func (h *Histogram) getSketch() *fd.Sketch {
	if n := len(h.freeSk); n > 0 {
		sk := h.freeSk[n-1]
		h.freeSk = h.freeSk[:n-1]
		return sk
	}
	sk := fd.New(h.ell, h.d)
	sk.UseWorkspace(h.ws)
	return sk
}

// putSketch recycles a released bucket sketch.
func (h *Histogram) putSketch(sk *fd.Sketch) {
	if sk != nil {
		sk.Reset()
		h.freeSk = append(h.freeSk, sk)
	}
}

// Add inserts a row with timestamp t and expires out-of-window buckets.
// Zero rows are ignored (they carry no covariance mass).
func (h *Histogram) Add(t int64, v []float64) {
	w := mat.VecNormSq(v)
	if w == 0 {
		h.Advance(t)
		return
	}
	if len(h.buckets) > 0 {
		h.newer += w
	}
	h.buckets = append(h.buckets, bucket{row: h.getRow(v), frobSq: w, newest: t, oldest: t})
	h.rows++
	mat.OuterAdd(h.gram, v, 1)
	h.pending++
	if h.sink != nil {
		h.sink.OnEvent(obs.Event{Kind: obs.EvBucketCreated, Site: h.site, T: t})
	}
	h.tracer.Instant(trace.OpBucketCreate, h.site, t, 1)
	if h.pending >= compactEvery {
		h.compact()
	}
	h.Advance(t)
}

// sketch materializes b's FD sketch, absorbing (and recycling) a lazy
// single row.
func (h *Histogram) sketch(b *bucket) *fd.Sketch {
	if b.sk == nil {
		b.sk = h.getSketch()
	}
	if b.row != nil {
		b.sk.Update(b.row)
		h.putRow(b.row)
		b.row = nil
	}
	return b.sk
}

// single reports whether the bucket still holds exactly one row.
func (b *bucket) single() bool { return b.row != nil && b.sk == nil }

// rows returns the number of sketch rows the bucket stores.
func (b *bucket) rows() int {
	if b.single() {
		return 1
	}
	return b.sk.NumRows()
}

// addGram accumulates s·B_bᵀB_b of bucket b into gram.
func (h *Histogram) addGram(b *bucket, s float64) {
	if b.single() {
		mat.OuterAdd(h.gram, b.row, s)
	} else {
		b.sk.GramAddTo(h.gram, s)
	}
}

// settle follows a compaction or an expiry: it refolds newer, and it
// rebuilds gram from the buckets once the mass subtracted from it since
// the last rebuild exceeds twice the live mass. A histogram that has
// emptied therefore always ends with gram exactly zero.
func (h *Histogram) settle() {
	if h.sub > 2*h.refold() {
		h.rebuildGram()
	}
}

// refold recomputes newer from the buckets and returns the live mass
// Σ_b F_b², both folded oldest to newest.
func (h *Histogram) refold() (live float64) {
	var newer float64
	for i := range h.buckets {
		f := h.buckets[i].frobSq
		live += f
		if i > 0 {
			newer += f
		}
	}
	h.newer = newer
	return live
}

// rebuildGram recomputes gram exactly from the live buckets.
func (h *Histogram) rebuildGram() {
	h.gram.Zero()
	for i := range h.buckets {
		h.addGram(&h.buckets[i], 1)
	}
	h.sub = 0
}

func (h *Histogram) compact() {
	h.pending = 0
	n := len(h.buckets)
	if n < 2 {
		return
	}
	out := h.scratch[:0]
	suffix := 0.0
	cur := h.buckets[n-1]
	for i := n - 2; i >= 0; i-- {
		b := h.buckets[i]
		if cur.frobSq+b.frobSq <= h.eps2*suffix {
			// Merge older bucket b into cur, recycling b's storage. A
			// merge past 2ℓ rows shrinks, rewriting the rows, so the
			// parts' Grams leave gram and the merged sketch's enters it.
			cs := h.sketch(&cur)
			stacked := cs.NumRows() + b.rows()
			shrinks := stacked > 2*h.ell
			if shrinks {
				h.addGram(&cur, -1)
				h.addGram(&b, -1)
				h.sub += cur.frobSq + b.frobSq
			}
			if b.single() {
				cs.Update(b.row)
				h.putRow(b.row)
			} else {
				b.sk.MergeInto(cs)
				h.putSketch(b.sk)
			}
			if shrinks {
				h.addGram(&cur, 1)
			}
			h.rows += cs.NumRows() - stacked
			cur.frobSq += b.frobSq
			cur.oldest = b.oldest
			continue
		}
		out = append(out, cur)
		suffix += cur.frobSq
		cur = b
	}
	out = append(out, cur)
	for l, r := 0, len(out)-1; l < r; l, r = l+1, r-1 {
		out[l], out[r] = out[r], out[l]
	}
	if merged := n - len(out); merged > 0 {
		if h.sink != nil {
			h.sink.OnEvent(obs.Event{Kind: obs.EvBucketMerged, Site: h.site, N: merged})
		}
		h.tracer.Instant(trace.OpBucketMerge, h.site, 0, int64(merged))
	}
	// Swap the double buffers: the old bucket array becomes next pass's
	// scratch. Its entries were copied by value into out or merged away,
	// so truncating to zero length drops every stale pointer reference on
	// the next append pass.
	h.scratch = h.buckets[:0]
	h.buckets = out
	h.settle()
}

// Advance expires buckets whose newest row timestamp is ≤ now−w.
func (h *Histogram) Advance(now int64) {
	cut := now - h.w
	i := 0
	for i < len(h.buckets) && h.buckets[i].newest <= cut {
		// Take the expired bucket's Gram out of the sum, then recycle its
		// storage.
		b := &h.buckets[i]
		h.addGram(b, -1)
		h.sub += b.frobSq
		h.rows -= b.rows()
		h.putRow(b.row)
		h.putSketch(b.sk)
		i++
	}
	if i > 0 {
		// Copy the survivors down so the slice keeps its backing array
		// (re-slicing forward would leak capacity and force reallocation
		// on future appends), and clear the vacated tail so recycled
		// buffers are not referenced twice.
		n := copy(h.buckets, h.buckets[i:])
		tail := h.buckets[n:]
		for j := range tail {
			tail[j] = bucket{}
		}
		h.buckets = h.buckets[:n]
		if h.sink != nil {
			h.sink.OnEvent(obs.Event{Kind: obs.EvBucketExpired, Site: h.site, T: now, N: i})
		}
		h.tracer.Instant(trace.OpBucketExpire, h.site, now, int64(i))
		h.settle()
	}
}

// FrobSqEstimate returns the gEH-style estimate of ‖A_w‖_F²: full mass of
// all buckets except a straddling (multi-row) oldest bucket, which
// contributes half. It costs O(1): the newer buckets' mass is kept.
func (h *Histogram) FrobSqEstimate() float64 {
	if len(h.buckets) == 0 {
		return 0
	}
	s := h.newer
	ob := &h.buckets[0]
	if ob.single() || ob.oldest == ob.newest {
		s += ob.frobSq
	} else {
		s += ob.frobSq / 2
	}
	return s
}

// SketchRows returns the stacked rows of all bucket sketches — a matrix B
// with ‖A_wᵀA_w − BᵀB‖₂ = O(ε)·‖A_w‖_F². The rows are copied into the
// result in one pass without intermediate per-bucket copies.
func (h *Histogram) SketchRows() *mat.Dense {
	total := 0
	for i := range h.buckets {
		b := &h.buckets[i]
		if b.single() {
			total++
		} else {
			total += b.sk.NumRows()
		}
	}
	out := mat.NewDense(total, h.d)
	at := 0
	for i := range h.buckets {
		b := &h.buckets[i]
		if b.single() {
			out.SetRow(at, b.row)
			at++
		} else {
			at += b.sk.AppendRowsTo(out, at)
		}
	}
	return out
}

// GramView returns the Gram the histogram keeps, BᵀB of the stacked
// sketch, without copying it. The result aliases the histogram: callers
// only read it, and it changes in place with the next Add or Advance.
func (h *Histogram) GramView() *mat.Dense { return h.gram }

// Buckets returns the number of live buckets.
func (h *Histogram) Buckets() int { return len(h.buckets) }

// SpaceWords estimates the structure's space usage in words: sketch rows
// plus per-bucket bookkeeping. It costs O(1) and allocates nothing —
// protocols charge it per ingested row.
func (h *Histogram) SpaceWords() int { return h.rows*h.d + 4*len(h.buckets) }
