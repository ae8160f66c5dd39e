package protocol

import "distwindow/mat"

// CoordSnapshot is a frozen, immutable copy of a tracker's coordinator
// state, taken at a single point in the global (T, site) apply order. Its
// methods may be called from any goroutine, any number of times, with no
// synchronization: the snapshot owns its storage and never mutates it.
//
// Matrices returned by Gram are shared with the snapshot and must be
// treated as read-only by callers. Sketch returns a fresh, caller-owned
// copy of a factorization computed at most once per snapshot, so any
// number of readers of one snapshot share a single O(d³) factorization.
type CoordSnapshot interface {
	// Sketch returns the sketch B with BᵀB ≈ AᵀA as of the snapshot
	// point — the same value the tracker's own Sketch would have returned
	// had it been queried (quiesced) at that point. The result is a copy
	// owned by the caller.
	Sketch() *mat.Dense

	// Gram returns the coordinator's Gram estimate Ĉ when the protocol
	// maintains one (the one-way deterministic family), or (nil, false)
	// for sketch-only protocols (the sampling family). The returned
	// matrix is shared snapshot storage: read-only.
	Gram() (*mat.Dense, bool)
}

// Snapshotter freezes a tracker's coordinator state into a CoordSnapshot;
// every Tracker implements it. SnapshotCoord must be called only from the
// goroutine that owns coordinator applies (the sequential ingest goroutine,
// or the pipeline's coordinator goroutine via PipelineConfig.PostApply), or
// while that goroutine is held off by a lock it also takes; it copies the
// small coordinator state (O(d²) for the Gram family) and never mutates
// the tracker.
type Snapshotter interface {
	SnapshotCoord() CoordSnapshot
}
