package meh

import (
	"fmt"

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

// Restore rebuilds a histogram from a snapshot.
func Restore(sn Snapshot) (*Histogram, error) {
	if sn.W <= 0 || sn.D < 1 || sn.Ell < 1 || sn.Eps2 <= 0 {
		return nil, fmt.Errorf("meh: invalid snapshot w=%d d=%d ℓ=%d", sn.W, sn.D, sn.Ell)
	}
	if sn.Gram != nil && len(sn.Gram) != sn.D*sn.D {
		return nil, fmt.Errorf("meh: snapshot Gram length %d, want %d", len(sn.Gram), sn.D*sn.D)
	}
	h := &Histogram{
		w: sn.W, d: sn.D, eps2: sn.Eps2, ell: sn.Ell, pending: sn.Pending,
		gram: mat.NewDense(sn.D, sn.D), ws: mat.NewWorkspace(),
	}
	h.buckets = make([]bucket, len(sn.Buckets))
	for i, b := range sn.Buckets {
		nb := bucket{frobSq: b.FrobSq, newest: b.Newest, oldest: b.Oldest}
		if b.Row != nil {
			if len(b.Row) != sn.D {
				return nil, fmt.Errorf("meh: snapshot bucket %d row length %d", i, len(b.Row))
			}
			nb.row = append([]float64(nil), b.Row...)
		}
		if b.Sketch != nil {
			sk, err := fd.Restore(*b.Sketch)
			if err != nil {
				return nil, fmt.Errorf("meh: snapshot bucket %d: %w", i, err)
			}
			if sk.D() != sn.D {
				return nil, fmt.Errorf("meh: snapshot bucket %d sketch d=%d, want %d", i, sk.D(), sn.D)
			}
			sk.UseWorkspace(h.ws)
			nb.sk = sk
		}
		if nb.row == nil && nb.sk == nil {
			return nil, fmt.Errorf("meh: snapshot bucket %d empty", i)
		}
		h.buckets[i] = nb
	}
	if sn.Gram == nil {
		h.rebuildGram()
	} else {
		copy(h.gram.Data(), sn.Gram)
		h.sub = sn.GramSub
	}
	return h, nil
}
