// Package window maintains the exact contents of a time-based sliding
// window over a row stream. It is the ground truth against which every
// protocol's sketch is evaluated; no protocol keeps its raw window.
package window

import (
	"distwindow/internal/stream"
	"distwindow/mat"
)

// Exact is a deque of the active rows of one stream together with
// incrementally maintained squared Frobenius mass. Add must be called with
// non-decreasing timestamps.
type Exact struct {
	w      int64
	rows   []stream.Row // rows[head:] are live, in timestamp order
	head   int
	frobSq float64
}

// NewExact returns an empty window of size w ticks.
func NewExact(w int64) *Exact {
	if w <= 0 {
		panic("window: size must be positive")
	}
	return &Exact{w: w}
}

// W returns the window length in ticks.
func (e *Exact) W() int64 { return e.w }

// Add inserts a row and expires rows that fall out of (r.T−w, r.T].
func (e *Exact) Add(r stream.Row) {
	e.rows = append(e.rows, r)
	e.frobSq += r.NormSq()
	e.Advance(r.T)
}

// Advance expires every row with timestamp ≤ now−w.
func (e *Exact) Advance(now int64) {
	cut := now - e.w
	for e.head < len(e.rows) && e.rows[e.head].T <= cut {
		e.frobSq -= e.rows[e.head].NormSq()
		e.head++
	}
	// Reclaim the dead prefix once it dominates the slice.
	if e.head > 1024 && e.head*2 > len(e.rows) {
		n := copy(e.rows, e.rows[e.head:])
		e.rows = e.rows[:n]
		e.head = 0
	}
	if e.frobSq < 0 {
		e.frobSq = 0
	}
}

// Len returns the number of active rows.
func (e *Exact) Len() int { return len(e.rows) - e.head }

// FrobSq returns ‖A_w‖_F², maintained incrementally.
func (e *Exact) FrobSq() float64 { return e.frobSq }

// Rows returns the active rows in timestamp order. The returned slice
// aliases internal storage and is invalidated by the next Add/Advance.
func (e *Exact) Rows() []stream.Row { return e.rows[e.head:] }

// Matrix materializes A_w as a dense matrix with one row per active row.
// d is required so an empty window still has the right column count.
func (e *Exact) Matrix(d int) *mat.Dense {
	live := e.Rows()
	m := mat.NewDense(len(live), d)
	for i, r := range live {
		m.SetRow(i, r.V)
	}
	return m
}

// Gram returns A_wᵀA_w computed from scratch.
func (e *Exact) Gram(d int) *mat.Dense {
	g := mat.NewDense(d, d)
	for _, r := range e.Rows() {
		mat.OuterAdd(g, r.V, 1)
	}
	return g
}

// CovErr returns the covariance error of sketch b against the window
// contents: ‖A_wᵀA_w − bᵀb‖₂/‖A_w‖_F².
func (e *Exact) CovErr(d int, b *mat.Dense) float64 {
	return mat.CovErrGram(e.Gram(d), e.frobSq, b)
}

// Union tracks the exact union window across sites: one Exact fed by every
// event regardless of site, used for global ground truth.
type Union struct {
	Exact
	d int
}

// NewUnion returns a union window of size w for d-dimensional rows.
func NewUnion(w int64, d int) *Union {
	return &Union{Exact: *NewExact(w), d: d}
}

// D returns the row dimension.
func (u *Union) D() int { return u.d }

// ErrOf evaluates a sketch against the current union window.
func (u *Union) ErrOf(b *mat.Dense) float64 { return u.CovErr(u.d, b) }
