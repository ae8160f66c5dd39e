package distwindow

import (
	"math"
	"sync"

	"distwindow/internal/obs"
	"distwindow/internal/protocol"
	"distwindow/mat"
)

// This file holds the one query path: immutable, versioned copies of the
// coordinator's small state, swapped in via an atomic pointer, so every
// read is a read of a published version and never touches live state.
//
// Every tracker publishes version 1 at construction, so a reader never
// finds "no snapshot yet". After that a version is published
//
//   - at every drain point (Drain, FlushSkew, Close) and every exact read
//     (Sketch, SketchGram), under the exclusive gate, when the state moved
//     since the current version;
//   - on a parallel tracker, also by the pipeline's coordinator goroutine
//     every publishEvery applied updates, because its feeders have no
//     consistent point to stop at mid-stream.
//
// The sequential ingest path publishes nothing per row: a copy per 256
// rows cost PWOR half its ingest rate. Lock-free readers of a sequential
// tracker therefore see the state as of the last drain or exact read.

// publishEvery is the parallel coordinator's publication cadence in
// applied updates. The d×d copy a publish performs is amortized to a few
// floats per update.
const publishEvery = 256

// Snapshot is one immutable published version of the coordinator's sketch
// state. All methods are safe for concurrent use by any number of
// goroutines, and a Snapshot stays valid indefinitely — across later
// publications, Drain, Close and even Registry eviction (it owns copies
// of everything it reads, never the tracker's live buffers).
//
// Derived results are computed lazily once per snapshot and cached, so N
// concurrent queriers of one version share a single O(d³) factorization.
// The protocol.CoordSnapshot underneath caches the factored sketch; PCA
// bases and anomaly scorers are cached here.
type Snapshot struct {
	version     uint64
	deliveredAt int64
	rows        int64
	proto       string
	coord       protocol.CoordSnapshot

	mu      sync.Mutex
	pca     map[int]PCA
	scorers map[int]*AnomalyScorer
}

// Version is the snapshot's publication sequence number, starting at 1
// (the state published at construction). Versions increase by exactly 1
// per publication.
func (s *Snapshot) Version() uint64 { return s.version }

// DeliveredAt is the stream timestamp watermark the snapshot reflects: the
// highest timestamp delivered to the protocol (sequential mode) or applied
// at the coordinator (parallel mode) when the snapshot was taken.
// math.MinInt64 until anything was delivered.
func (s *Snapshot) DeliveredAt() int64 { return s.deliveredAt }

// Rows is the tracker's delivered-row count when the snapshot was taken.
// In parallel mode rows are counted at the sites while the snapshot cuts
// at the coordinator's apply order, so the figure is approximate there.
func (s *Snapshot) Rows() int64 { return s.rows }

// Protocol is the display name of the protocol that produced the snapshot.
func (s *Snapshot) Protocol() string { return s.proto }

// Sketch returns the snapshot's covariance sketch B (see Tracker.Sketch).
// The result is a fresh copy owned by the caller; the underlying
// factorization is computed once per snapshot and cached.
func (s *Snapshot) Sketch() *mat.Dense { return s.coord.Sketch() }

// SketchGram returns a copy of the snapshot's coordinator Gram estimate
// Ĉ ≈ A_wᵀA_w when the protocol maintains one (the deterministic family;
// see Tracker.SketchGram). The copy is owned by the caller.
func (s *Snapshot) SketchGram() (*mat.Dense, bool) {
	g, ok := s.coord.Gram()
	if !ok {
		return nil, false
	}
	return g.Clone(), true
}

// PCA returns the snapshot's approximate top-k principal component basis
// (see SketchPCA). The basis is computed once per (snapshot, k) and
// cached; the returned PCA is a copy owned by the caller.
func (s *Snapshot) PCA(k int) PCA {
	p := s.cachedPCA(k)
	return PCA{
		Components: p.Components.Clone(),
		Values:     append([]float64(nil), p.Values...),
	}
}

// AnomalyScorer returns a scorer over the snapshot's top-k subspace (see
// NewAnomalyScorer). The scorer is cached per (snapshot, k) and shared:
// Score only reads the basis, so one scorer may serve any number of
// concurrent callers.
func (s *Snapshot) AnomalyScorer(k int) *AnomalyScorer {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sc, ok := s.scorers[k]; ok {
		return sc
	}
	sc := &AnomalyScorer{basis: s.pcaLocked(k).Components}
	if s.scorers == nil {
		s.scorers = make(map[int]*AnomalyScorer)
	}
	s.scorers[k] = sc
	return sc
}

func (s *Snapshot) cachedPCA(k int) PCA {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pcaLocked(k)
}

func (s *Snapshot) pcaLocked(k int) PCA {
	if p, ok := s.pca[k]; ok {
		return p
	}
	p := SketchPCA(s.coord.Sketch(), k)
	if s.pca == nil {
		s.pca = make(map[int]PCA)
	}
	s.pca[k] = p
	return p
}

// publishAt freezes the coordinator state into a new snapshot version and
// swaps it in. It must run on the goroutine that owns coordinator applies,
// or with that goroutine provably idle: during construction, or under the
// exclusive gate (after a drain barrier, on a parallel tracker).
func (t *Tracker) publishAt(at int64) {
	s := &Snapshot{
		version:     t.snapVer.Add(1),
		deliveredAt: at,
		rows:        t.rows.Load(),
		proto:       t.inner.Name(),
		coord:       t.inner.SnapshotCoord(),
	}
	t.snap.Store(s)
	if t.sink != nil {
		t.sink.OnEvent(obs.Event{Kind: obs.EvSnapshotPublish, Site: -1, T: clampT(at), N: int(s.version)})
	}
}

// catchUp brings the published snapshot level with the live coordinator
// state and returns it; flush also empties a parallel tracker's skew
// buffers. The caller holds the gate exclusively, so no ingest call is in
// flight.
//
// A sequential tracker publishes only when rows or the delivered
// watermark moved since the current version: those are the only ways its
// coordinator state changes. A parallel tracker drains the pipeline — after
// the barrier its coordinator goroutine can only run empty passes, which
// touch no state — then lets the coordinator clock catch up to the sites'
// emission floor (a no-op for the clock-free protocols), refreshes the
// bucket gauge and publishes the fully-applied state. A closed tracker's
// state cannot move, so its final snapshot is returned as is.
func (t *Tracker) catchUp(flush bool) *Snapshot {
	if t.closed.Load() {
		return t.snap.Load()
	}
	if t.pipe == nil {
		if s := t.snap.Load(); s.rows != t.rows.Load() || s.deliveredAt != t.delivered {
			t.publishAt(t.delivered)
		}
		return t.snap.Load()
	}
	t.pipe.Drain(flush)
	at := t.lastAppliedT
	if mp := t.pipe.MinProgress(); mp != math.MinInt64 {
		t.ow.AdvanceCoord(mp)
		at = max(at, mp)
	}
	if t.buckets != nil {
		t.liveBuckets.Set(int64(t.buckets.LiveBuckets()))
	}
	t.publishAt(at)
	return t.snap.Load()
}

// exactQuery is catchUp under the exclusive gate — in-flight ingest calls
// finish first, new ones wait — plus the query's accounting, done under
// the gate too so a sequential tracker's sink never runs concurrently with
// ingest. The caller reads the returned snapshot after the gate is
// released.
func (t *Tracker) exactQuery() *Snapshot {
	t.gate.Lock()
	defer t.gate.Unlock()
	s := t.catchUp(false)
	t.queries.Inc()
	if t.sink != nil {
		t.sink.OnEvent(obs.Event{Kind: obs.EvSketchQuery, Site: -1, T: clampT(s.deliveredAt)})
	}
	return s
}

// Snapshot returns the latest published version of the coordinator state:
// one atomic load, safe from any goroutine while ingestion runs. It never
// blocks and never fails; the error is always nil and remains in the
// signature for compatibility.
//
// The version reflects the state as of the last publication (see Drain,
// Sketch and, on a parallel tracker, the coordinator's cadence of 256
// applied updates). Call Drain first for an exact, fully-caught-up
// version, or use Sketch/SketchGram, which catch up themselves.
func (t *Tracker) Snapshot() (*Snapshot, error) { return t.snap.Load(), nil }

// SnapshotVersion returns the latest published snapshot's version (≥1).
// Safe from any goroutine.
func (t *Tracker) SnapshotVersion() uint64 { return t.snap.Load().version }

// Closed reports whether Close was called. Queries (and snapshots taken
// earlier) remain usable on a closed tracker; ingest returns ErrClosed. Safe
// from any goroutine — serving tiers use it to turn queries against an
// evicted stream into an error instead of undefined behavior.
func (t *Tracker) Closed() bool { return t.closed.Load() }
