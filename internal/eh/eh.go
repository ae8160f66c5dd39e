// Package eh implements a generalized exponential histogram (gEH) in the
// spirit of Datar, Gionis, Indyk and Motwani (SICOMP 2002) for maintaining
// an ε-relative estimate of the sum of positive weights over a time-based
// sliding window in O(1/ε · log(NR)) buckets.
//
// Buckets cover contiguous time ranges (oldest first) and store exact
// subsums. The merge rule generalizes the power-of-two levels to arbitrary
// weights: two adjacent buckets may merge only when their combined mass is
// at most (ε/2)× the total mass of all strictly newer buckets. Because
// newer buckets can only be joined by even newer arrivals — never removed
// before the merged bucket expires — the invariant
//
//	bucket.sum ≤ (ε/2) · (mass newer than bucket)
//
// established at merge time holds for the bucket's whole lifetime. Only
// the oldest bucket can straddle the window boundary; the estimator counts
// half of it (all of it when it holds a single item, which is then exact),
// so the relative error is at most ε/2 of the true window sum.
//
// Space: walking newest→oldest, every surviving merged bucket grows the
// suffix mass by a (1+ε/2) factor, so there are O(1/ε · log(NR)) buckets
// for weight ratio R and window count N.
package eh

import (
	"math"

	"distwindow/internal/obs"
	"distwindow/internal/trace"
)

// Histogram is a gEH over positive-weight items. Insert must be called
// with non-decreasing timestamps. The zero value is not usable; construct
// with New.
type Histogram struct {
	w       int64
	eps2    float64  // ε/2, the merge threshold factor
	buckets []bucket // oldest first
	pending int      // inserts since last compaction
	version uint64   // bumped on every structural change
	// scratch is compact's output double-buffer: compact builds the merged
	// bucket list here, then swaps it with buckets, so neither slice is
	// reallocated at steady state.
	scratch []bucket

	// sink receives bucket lifecycle events (created/merged/expired); nil
	// — the default — costs one branch per structural change. site tags
	// the events with the owning site's index.
	sink obs.Sink
	site int
	// tracer records bucket lifecycle instants under the caller's open
	// ingest span; nil — the default — costs one nil-check per event.
	tracer *trace.Tracer
}

type bucket struct {
	sum    float64
	newest int64 // timestamp of the most recent item merged in
	oldest int64 // timestamp of the earliest item merged in
}

// compactEvery bounds how many raw inserts accumulate between compaction
// passes; compaction is O(buckets), so this keeps amortized insert cost
// constant without letting the bucket list grow past O(1/ε·log NR)+32.
const compactEvery = 32

// New returns a histogram for a window of w ticks with error parameter
// eps in (0, 1).
func New(w int64, eps float64) *Histogram {
	if w <= 0 {
		panic("eh: window must be positive")
	}
	if eps <= 0 || eps >= 1 {
		panic("eh: eps must be in (0,1)")
	}
	return &Histogram{w: w, eps2: eps / 2, site: -1}
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

// Insert adds an item with the given positive weight and timestamp, then
// expires buckets that fall out of the window ending at t.
func (h *Histogram) Insert(t int64, weight float64) {
	if weight <= 0 {
		panic("eh: weight must be positive")
	}
	if math.IsNaN(weight) || math.IsInf(weight, 0) {
		panic("eh: weight must be finite")
	}
	h.buckets = append(h.buckets, bucket{sum: weight, newest: t, oldest: t})
	h.version++
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

// compact greedily merges adjacent buckets from newest to oldest whenever
// the merge rule allows, restoring the space bound.
func (h *Histogram) compact() {
	h.pending = 0
	n := len(h.buckets)
	if n < 2 {
		return
	}
	out := h.scratch[:0]
	// Walk newest → oldest accumulating into out (newest first).
	suffix := 0.0 // mass strictly newer than cur
	cur := h.buckets[n-1]
	for i := n - 2; i >= 0; i-- {
		b := h.buckets[i]
		if cur.sum+b.sum <= h.eps2*suffix {
			// Merge the older bucket into cur.
			cur.sum += b.sum
			cur.oldest = b.oldest
			continue
		}
		out = append(out, cur)
		suffix += cur.sum
		cur = b
	}
	out = append(out, cur)
	// Reverse into oldest-first order.
	for l, r := 0, len(out)-1; l < r; l, r = l+1, r-1 {
		out[l], out[r] = out[r], out[l]
	}
	if merged := n - len(out); merged > 0 {
		if h.sink != nil {
			h.sink.OnEvent(obs.Event{Kind: obs.EvBucketMerged, Site: h.site, N: merged})
		}
		h.tracer.Instant(trace.OpBucketMerge, h.site, 0, int64(merged))
	}
	h.scratch = h.buckets[:0]
	h.buckets = out
}

// Advance expires buckets whose newest item is outside the window at now.
func (h *Histogram) Advance(now int64) {
	cut := now - h.w
	i := 0
	for i < len(h.buckets) && h.buckets[i].newest <= cut {
		i++
	}
	if i > 0 {
		// Copy the survivors down so the slice keeps its backing array:
		// re-slicing forward would shed capacity, and Insert would
		// reallocate.
		h.buckets = h.buckets[:copy(h.buckets, h.buckets[i:])]
		h.version++
		if h.sink != nil {
			h.sink.OnEvent(obs.Event{Kind: obs.EvBucketExpired, Site: h.site, T: now, N: i})
		}
		h.tracer.Instant(trace.OpBucketExpire, h.site, now, int64(i))
	}
}

// Version returns a counter that changes whenever the histogram's contents
// change — callers can skip recomputation while it is stable.
func (h *Histogram) Version() uint64 { return h.version }

// Query returns the window-sum estimate: the full mass of every bucket
// except the oldest, plus half of the oldest when it merged more than one
// item (only that bucket can straddle the window boundary; a single-item
// bucket is exact). Call Advance(now) first if time moved without inserts.
func (h *Histogram) Query() float64 {
	if len(h.buckets) == 0 {
		return 0
	}
	var s float64
	for _, b := range h.buckets[1:] {
		s += b.sum
	}
	ob := h.buckets[0]
	if ob.oldest == ob.newest {
		s += ob.sum
	} else {
		s += ob.sum / 2
	}
	return s
}

// Exact returns the total mass currently held in buckets, an upper bound
// on the true window sum (expired items inside the straddling bucket are
// still counted).
func (h *Histogram) Exact() float64 {
	var s float64
	for _, b := range h.buckets {
		s += b.sum
	}
	return s
}

// Buckets returns the current bucket count — the histogram's space usage
// in O(1)-word units.
func (h *Histogram) Buckets() int {
	return len(h.buckets)
}
