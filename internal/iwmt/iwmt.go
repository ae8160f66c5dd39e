// Package iwmt implements infinite-window matrix tracking for a single
// stream — the one-way "significant direction" emitter of Ghashami,
// Phillips and Li (PVLDB 2014, protocol P2) that DA2 composes into a
// sliding-window tracker.
//
// The tracker maintains a Frequent Directions sketch of the content it has
// received but not yet emitted. Whenever the unsent raw mass since the
// last compaction reaches half the current threshold θ, the sketch is
// compacted (its rows become orthogonal, scaled singular vectors) and
// every row with squared norm ≥ θ is emitted and removed. Consequently:
//
//   - at any time, the unsent content's Gram matrix has spectral norm at
//     most θ + θ/2 plus the accumulated FD shrink mass — the covariance
//     error between any input prefix and the corresponding output prefix
//     is O(θ + ‖input‖_F²/ℓ);
//   - every emitted row carries at least θ of squared mass, so the number
//     of messages is at most ‖input‖_F²/θ plus flushes.
//
// The threshold is supplied by a callback so callers can grow it with the
// stream (DA2 uses ε·F̂² of the relevant window).
package iwmt

import (
	"distwindow/internal/fd"
	"distwindow/mat"
)

// Msg is one emitted direction with the timestamp of the input row that
// triggered it.
type Msg struct {
	T int64
	V []float64
}

// Tracker is a single-stream IWMT instance. Construct with New.
type Tracker struct {
	d         int
	sk        *fd.Sketch
	threshold func() float64
	// rawSince accumulates input mass since the last compaction.
	rawSince float64
	// lastT is the newest input timestamp; flushes are stamped with it so
	// emitted residue never outlives the content it summarizes.
	lastT int64
	// emittedGram tracks Σ mᵀm of everything emitted (off by default; DA2's
	// compressed variant enables it to drain residues at window ends).
	emitted int
	// kept is emit's scratch list of the compacted rows it keeps, reused
	// across compactions.
	kept []int
}

// New returns a tracker for d-dimensional rows. ell is the FD sketch size
// of the unsent buffer (⌈1/ε⌉ gives the O(ε) drift term); threshold
// returns the current emission threshold θ and may grow over time.
func New(ell, d int, threshold func() float64) *Tracker {
	if ell < 1 || d < 1 {
		panic("iwmt: invalid ell or d")
	}
	if threshold == nil {
		panic("iwmt: nil threshold")
	}
	return &Tracker{d: d, sk: fd.New(ell, d), threshold: threshold}
}

// Input feeds one row and returns any directions emitted as a result.
func (tr *Tracker) Input(t int64, v []float64) []Msg {
	if t > tr.lastT {
		tr.lastT = t
	}
	tr.sk.Update(v)
	tr.rawSince += mat.VecNormSq(v)
	theta := tr.threshold()
	if theta <= 0 {
		// Degenerate threshold (empty window estimate): emit everything to
		// stay correct.
		return tr.Flush(t)
	}
	if tr.rawSince < theta/2 {
		return nil
	}
	return tr.emit(t, theta)
}

// emit compacts the unsent sketch and ships rows with squared norm ≥ θ.
// Emitted rows are copied (they escape into messages); kept rows are
// re-fed from the compacted buffer view. Re-feeding is alias-safe: kept
// row k comes from view row j_k ≥ k, and Update writes rows in increasing
// order, so a source row is never overwritten before it is read.
func (tr *Tracker) emit(t int64, theta float64) []Msg {
	rows := tr.sk.CompactView()
	tr.rawSince = 0
	var out []Msg
	tr.kept = tr.kept[:0]
	for i := 0; i < rows.Rows(); i++ {
		if mat.VecNormSq(rows.Row(i)) >= theta {
			out = append(out, Msg{T: t, V: append([]float64(nil), rows.Row(i)...)})
			tr.emitted++
		} else {
			tr.kept = append(tr.kept, i)
		}
	}
	if len(out) > 0 {
		tr.sk.Reset()
		for _, i := range tr.kept {
			tr.sk.Update(rows.Row(i))
		}
	}
	return out
}

// Flush compacts and emits every remaining unsent row regardless of the
// threshold, leaving the tracker empty. DA2 calls this at window
// boundaries so no residue outlives its window. Emitted rows are stamped
// with the newest input timestamp when it is older than t: the buffered
// content is no newer than the last input, so the earlier stamp lets it
// expire with the rows it summarizes instead of a window later.
func (tr *Tracker) Flush(t int64) []Msg {
	if tr.lastT > 0 && tr.lastT < t {
		t = tr.lastT
	}
	rows := tr.sk.CompactView()
	var out []Msg
	for i := 0; i < rows.Rows(); i++ {
		if mat.VecNormSq(rows.Row(i)) > 0 {
			out = append(out, Msg{T: t, V: append([]float64(nil), rows.Row(i)...)})
			tr.emitted++
		}
	}
	tr.sk.Reset()
	tr.rawSince = 0
	return out
}

// UnsentFrobSq returns the Frobenius mass currently buffered (unsent).
func (tr *Tracker) UnsentFrobSq() float64 { return tr.sk.FrobSq() }

// Emitted returns the number of directions emitted so far.
func (tr *Tracker) Emitted() int { return tr.emitted }

// SpaceWords returns the tracker's storage cost in words. It allocates
// nothing — DA2 charges it per ingested row.
func (tr *Tracker) SpaceWords() int64 {
	return int64(tr.sk.NumRows()) * int64(tr.d)
}

// Reset empties the tracker without emitting.
func (tr *Tracker) Reset() {
	tr.sk.Reset()
	tr.rawSince = 0
	tr.lastT = 0
}
