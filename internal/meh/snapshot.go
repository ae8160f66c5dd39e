package meh

import (
	"fmt"
	"math"

	"distwindow/internal/fd"
	"distwindow/mat"
)

// BucketSnapshot is one serialized mEH bucket: either a single lazy row or
// a full FD sketch.
type BucketSnapshot struct {
	Row            []float64 // non-nil for single-row buckets
	Sketch         *fd.Snapshot
	FrobSq         float64
	Newest, Oldest int64
}

// Snapshot is a serializable copy of a Histogram.
type Snapshot struct {
	W       int64
	D       int
	Eps2    float64
	Ell     int
	Buckets []BucketSnapshot
	Pending int
	// Gram is the kept Σ BᵀB (row-major D×D) and GramSub the mass
	// subtracted from it since its last rebuild; carrying both keeps a
	// restored histogram bit-identical to the live one. A snapshot without
	// a Gram, as written before the histogram kept one, restores by
	// rebuilding it from the buckets.
	Gram    []float64
	GramSub float64
}

// Snapshot captures the histogram's state.
func (h *Histogram) Snapshot() Snapshot {
	bs := make([]BucketSnapshot, len(h.buckets))
	for i := range h.buckets {
		b := &h.buckets[i]
		snap := BucketSnapshot{FrobSq: b.frobSq, Newest: b.newest, Oldest: b.oldest}
		if b.row != nil {
			snap.Row = append([]float64(nil), b.row...)
		}
		if b.sk != nil {
			s := b.sk.Snapshot()
			snap.Sketch = &s
		}
		bs[i] = snap
	}
	return Snapshot{
		W: h.w, D: h.d, Eps2: h.eps2, Ell: h.ell, Buckets: bs, Pending: h.pending,
		Gram: append([]float64(nil), h.gram.Data()...), GramSub: h.sub,
	}
}

// Restore rebuilds a histogram from a snapshot. It refuses state that
// breaks the histogram's invariants: buckets in time order, each holding
// positive finite mass in exactly one of a row or a sketch of the
// histogram's ℓ and d, and a finite kept Gram.
func Restore(sn Snapshot) (*Histogram, error) {
	if sn.W <= 0 || sn.D < 1 || sn.Ell < 1 || !(sn.Eps2 > 0 && sn.Eps2 < 0.5) || sn.Pending < 0 {
		return nil, fmt.Errorf("meh: invalid snapshot w=%d d=%d ℓ=%d eps2=%v pending=%d", sn.W, sn.D, sn.Ell, sn.Eps2, sn.Pending)
	}
	if sn.Gram != nil && len(sn.Gram) != sn.D*sn.D {
		return nil, fmt.Errorf("meh: snapshot Gram length %d, want %d", len(sn.Gram), sn.D*sn.D)
	}
	if !mat.AllFinite(sn.Gram...) || !mat.AllFinite(sn.GramSub) || sn.GramSub < 0 {
		return nil, fmt.Errorf("meh: snapshot Gram not finite, or GramSub %v not finite and ≥ 0", sn.GramSub)
	}
	h := &Histogram{
		w: sn.W, d: sn.D, eps2: sn.Eps2, ell: sn.Ell, pending: sn.Pending,
		gram: mat.NewDense(sn.D, sn.D), ws: mat.NewWorkspace(),
	}
	h.buckets = make([]bucket, len(sn.Buckets))
	prev := int64(math.MinInt64)
	for i, b := range sn.Buckets {
		if !(b.FrobSq > 0) || math.IsInf(b.FrobSq, 0) || b.Oldest > b.Newest || b.Newest < prev {
			return nil, fmt.Errorf("meh: invalid snapshot bucket %d", i)
		}
		prev = b.Newest
		if b.Row != nil && b.Sketch != nil {
			return nil, fmt.Errorf("meh: snapshot bucket %d holds both a row and a sketch", i)
		}
		nb := bucket{frobSq: b.FrobSq, newest: b.Newest, oldest: b.Oldest}
		if b.Row != nil {
			if len(b.Row) != sn.D || !mat.AllFinite(b.Row...) {
				return nil, fmt.Errorf("meh: snapshot bucket %d row is not %d finite values", i, sn.D)
			}
			nb.row = append([]float64(nil), b.Row...)
		}
		if b.Sketch != nil {
			sk, err := fd.Restore(*b.Sketch)
			if err != nil {
				return nil, fmt.Errorf("meh: snapshot bucket %d: %w", i, err)
			}
			if sk.D() != sn.D || sk.L() != sn.Ell {
				return nil, fmt.Errorf("meh: snapshot bucket %d sketch ℓ=%d d=%d, want ℓ=%d d=%d", i, sk.L(), sk.D(), sn.Ell, sn.D)
			}
			sk.UseWorkspace(h.ws)
			nb.sk = sk
		}
		if nb.row == nil && nb.sk == nil {
			return nil, fmt.Errorf("meh: snapshot bucket %d empty", i)
		}
		h.buckets[i] = nb
		h.rows += nb.rows()
	}
	if sn.Gram == nil {
		h.rebuildGram()
	} else {
		copy(h.gram.Data(), sn.Gram)
		h.sub = sn.GramSub
	}
	return h, nil
}
