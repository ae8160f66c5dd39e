// Package fd implements Liberty's Frequent Directions matrix sketch
// (KDD 2013; Ghashami et al., SICOMP 2016): a deterministic, mergeable
// ℓ×d sketch B of a row stream A with covariance error
// ‖AᵀA − BᵀB‖₂ ≤ ‖A‖_F²/ℓ.
//
// The implementation uses the standard doubled-buffer trick: rows are
// appended into a 2ℓ×d buffer and a single SVD-shrink step runs every ℓ
// appends, giving O(dℓ) amortized update time. Each sketch owns one
// persistent decomposition workspace, so at steady state Update (and the
// amortized shrinks behind it) performs no heap allocations.
package fd

import (
	"fmt"
	"math"

	"distwindow/mat"
)

// Sketch is a Frequent Directions sketch. The zero value is not usable;
// construct with New.
type Sketch struct {
	ell    int
	d      int
	buf    *mat.Dense // 2ℓ×d working buffer
	n      int        // occupied rows of buf
	frobSq float64    // exact ‖A‖_F² of everything fed in
	shrunk float64    // total spectral mass removed by shrinking (Σ δ)
	// ws is the persistent shrink workspace, allocated on the first shrink
	// and reused (dirty) forever after; shrink dimensions never change, so
	// its buffers stabilize after one use.
	ws *mat.Workspace
}

// New returns an empty sketch with ℓ rows of capacity for d-dimensional
// input rows. The covariance error guarantee is ‖A‖_F²/ℓ, so choose
// ℓ ≥ ⌈1/ε⌉ for an ε-covariance sketch.
func New(ell, d int) *Sketch {
	if ell < 1 || d < 1 {
		panic(fmt.Sprintf("fd: invalid sketch size ℓ=%d d=%d", ell, d))
	}
	return &Sketch{ell: ell, d: d, buf: mat.NewDense(2*ell, d)}
}

// L returns the sketch size parameter ℓ.
func (s *Sketch) L() int { return s.ell }

// D returns the row dimension.
func (s *Sketch) D() int { return s.d }

// FrobSq returns the exact squared Frobenius norm of all input so far.
func (s *Sketch) FrobSq() float64 { return s.frobSq }

// ShrunkMass returns the total squared mass removed by shrink steps; it
// upper-bounds the sketch's covariance error ‖AᵀA − BᵀB‖₂.
func (s *Sketch) ShrunkMass() float64 { return s.shrunk }

// Update feeds one row into the sketch.
func (s *Sketch) Update(v []float64) {
	if len(v) != s.d {
		panic(fmt.Sprintf("fd: row length %d != d %d", len(v), s.d))
	}
	if s.n == 2*s.ell {
		s.shrink()
	}
	s.buf.SetRow(s.n, v)
	s.n++
	s.frobSq += mat.VecNormSq(v)
}

// shrink compacts the buffer to at most ℓ nonzero rows by SVD and
// subtracting σ_ℓ² from every squared singular value.
func (s *Sketch) shrink() {
	if s.n <= s.ell {
		return
	}
	if s.ws == nil {
		s.ws = mat.NewWorkspace()
	}
	// Every Update and Merge shrink runs on a full buffer, decomposed in
	// place; only Compact's partial shrinks build a row-slice header.
	a := s.buf
	if s.n < 2*s.ell {
		a = s.buf.SliceRows(0, s.n)
	}
	svd := mat.ThinSVDNoU(a, s.ws)
	delta := 0.0
	if len(svd.S) > s.ell {
		delta = svd.S[s.ell] * svd.S[s.ell]
	}
	// Rows at index ≥ the new count are never read before being fully
	// overwritten (Update/Merge copy whole rows), so the stale tail of the
	// buffer needs no zeroing.
	kept := 0
	for i := 0; i < len(svd.S) && i < s.ell; i++ {
		sq := svd.S[i]*svd.S[i] - delta
		if sq <= 0 {
			break
		}
		row := s.buf.Row(kept)
		vt := svd.Vt.Row(i)
		scale := math.Sqrt(sq)
		for j := range row {
			row[j] = scale * vt[j]
		}
		kept++
	}
	s.n = kept
	s.shrunk += delta
}

// Rows returns the current sketch matrix B (k×d with k ≤ 2ℓ−1 between
// shrinks; call Compact first for k ≤ ℓ). The result copies storage.
func (s *Sketch) Rows() *mat.Dense {
	out := mat.NewDense(s.n, s.d)
	out.CopyFrom(s.buf.SliceRows(0, s.n))
	return out
}

// RowsView returns the current sketch matrix as a view sharing the
// sketch's buffer — no copy. The view is invalidated (and its contents
// rewritten) by the next Update/Merge/Reset; callers must not retain it
// across mutations or mutate it themselves.
func (s *Sketch) RowsView() *mat.Dense { return s.buf.SliceRows(0, s.n) }

// NumRows returns the number of live sketch rows without copying them.
func (s *Sketch) NumRows() int { return s.n }

// AppendRowsTo copies the sketch's live rows into dst starting at row at,
// and returns the number of rows written. It is the bulk no-allocation
// alternative to Rows() for callers stacking several sketches.
func (s *Sketch) AppendRowsTo(dst *mat.Dense, at int) int {
	if dst.Cols() != s.d {
		panic(fmt.Sprintf("fd: AppendRowsTo dst cols %d != d %d", dst.Cols(), s.d))
	}
	if at < 0 || at+s.n > dst.Rows() {
		panic(fmt.Sprintf("fd: AppendRowsTo rows [%d,%d) out of dst range %d", at, at+s.n, dst.Rows()))
	}
	copy(dst.Data()[at*s.d:(at+s.n)*s.d], s.buf.Data()[:s.n*s.d])
	return s.n
}

// GramAddTo accumulates dst += scale · BᵀB over the sketch's live rows
// without copying them or allocating. dst must be d×d.
func (s *Sketch) GramAddTo(dst *mat.Dense, scale float64) {
	for i := 0; i < s.n; i++ {
		mat.OuterAdd(dst, s.buf.Row(i), scale)
	}
}

// ApplyGramAdd accumulates y += Bᵀ(B·x) over the sketch's current rows
// without materializing them — the cheap mat-vec the protocols' power
// iterations are built on.
func (s *Sketch) ApplyGramAdd(x, y []float64) {
	for i := 0; i < s.n; i++ {
		row := s.buf.Row(i)
		c := mat.Dot(row, x)
		if c != 0 {
			mat.Axpy(c, row, y)
		}
	}
}

// Compact forces a shrink so the sketch has at most ℓ rows, then returns
// a copy of it. Hot paths should prefer CompactView.
func (s *Sketch) Compact() *mat.Dense {
	s.shrink()
	return s.Rows()
}

// CompactView forces a shrink and returns the sketch rows as a view
// sharing the sketch's buffer — no copy. The same aliasing rules as
// RowsView apply.
func (s *Sketch) CompactView() *mat.Dense {
	s.shrink()
	return s.buf.SliceRows(0, s.n)
}

// Reset empties the sketch without releasing its buffers.
func (s *Sketch) Reset() {
	// No zeroing: rows are fully overwritten before they are ever read
	// (see shrink), so clearing the count and ledgers suffices.
	s.n = 0
	s.frobSq = 0
	s.shrunk = 0
}

// Merge folds the other sketch into s (the FD merge operation: append the
// other sketch's rows and shrink). The error guarantees add. The other
// sketch is not modified. Rows are copied in whole blocks between shrinks;
// the shrink schedule (and hence the result) is identical to appending the
// rows one at a time. s and other must be distinct.
func (s *Sketch) Merge(other *Sketch) {
	if other.d != s.d {
		panic(fmt.Sprintf("fd: merge dimension mismatch %d vs %d", other.d, s.d))
	}
	for i := 0; i < other.n; {
		if s.n == 2*s.ell {
			s.shrink()
		}
		take := 2*s.ell - s.n
		if rem := other.n - i; rem < take {
			take = rem
		}
		copy(s.buf.Data()[s.n*s.d:(s.n+take)*s.d], other.buf.Data()[i*s.d:(i+take)*s.d])
		s.n += take
		i += take
	}
	s.frobSq += other.frobSq
	s.shrunk += other.shrunk
}

// MergeInto folds s into dst and resets s — the destructive-source merge.
// Callers recycling sketch buffers (the mEH bucket freelist) use it so the
// source is immediately reusable.
func (s *Sketch) MergeInto(dst *Sketch) {
	dst.Merge(s)
	s.Reset()
}

// Clone returns a deep copy of the sketch. The decomposition workspace is
// not shared; the clone allocates its own on first shrink.
func (s *Sketch) Clone() *Sketch {
	return &Sketch{
		ell:    s.ell,
		d:      s.d,
		buf:    s.buf.Clone(),
		n:      s.n,
		frobSq: s.frobSq,
		shrunk: s.shrunk,
	}
}
