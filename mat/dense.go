// Package mat implements the dense linear algebra needed by the
// distributed sliding-window matrix-tracking protocols: a row-major dense
// matrix type, BLAS-like operations, Householder QR, a symmetric
// eigendecomposition (Householder tridiagonalization plus implicit-shift
// QL, in full or values first with eigenvectors formed on request), thin
// SVD, spectral norms via power iteration, and PSD matrix square roots.
//
// The package is self-contained (standard library only) and deterministic:
// nothing in it draws randomness except functions that take an explicit
// *rand.Rand.
//
// The inner loops under the solvers and the Gram updates (the QL
// rotations, the axpys and rank-1 updates, four-row dot products, the
// Householder rank-2 update, elementwise subtraction) have amd64 assembly
// kernels, four-lane AVX2 with separate multiplies and adds (no FMA, no
// reassociation), so each returns the bits of the Go loop it replaces: a
// lane rounds exactly like the scalar statement, and the four
// accumulators of Dot are the four lanes of one register, reduced as
// (s0+s1)+(s2+s3). The kernels run when CPUID reports OSXSAVE, AVX and
// AVX2 and XGETBV shows the XMM and YMM state enabled, checked once at
// package initialization; otherwise, and on every other GOARCH, the Go
// loops run. No option selects between them, and no result depends on
// which runs.
package mat

import (
	"fmt"
	"math"
	"strings"
)

// Dense is a row-major dense matrix of float64 values.
//
// The zero value is an empty (0×0) matrix. Dense values are not safe for
// concurrent mutation.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense returns a zero-initialized r×c matrix.
// It panics if r or c is negative.
func NewDense(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimension %d×%d", r, c))
	}
	return &Dense{rows: r, cols: c, data: make([]float64, r*c)}
}

// NewDenseData wraps the given backing slice as an r×c matrix without
// copying. It panics if len(data) != r*c.
func NewDenseData(r, c int, data []float64) *Dense {
	if len(data) != r*c {
		panic(fmt.Sprintf("mat: data length %d does not match %d×%d", len(data), r, c))
	}
	return &Dense{rows: r, cols: c, data: data}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// FromRows builds a matrix whose rows are copies of the given slices.
// All rows must have equal length; an empty input yields a 0×0 matrix.
func FromRows(rows [][]float64) *Dense {
	if len(rows) == 0 {
		return NewDense(0, 0)
	}
	c := len(rows[0])
	m := NewDense(len(rows), c)
	for i, r := range rows {
		if len(r) != c {
			panic(fmt.Sprintf("mat: ragged rows: row 0 has %d cols, row %d has %d", c, i, len(r)))
		}
		copy(m.data[i*c:(i+1)*c], r)
	}
	return m
}

// Dims returns the number of rows and columns.
func (m *Dense) Dims() (r, c int) { return m.rows, m.cols }

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns v to the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Dense) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range %d×%d", i, j, m.rows, m.cols))
	}
}

// Row returns row i as a slice sharing the matrix's backing storage.
// Mutating the returned slice mutates the matrix.
func (m *Dense) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("mat: row %d out of range %d", i, m.rows))
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// RowCopy returns a copy of row i.
func (m *Dense) RowCopy(i int) []float64 {
	r := m.Row(i)
	out := make([]float64, len(r))
	copy(out, r)
	return out
}

// SetRow copies v into row i. It panics if len(v) != Cols().
func (m *Dense) SetRow(i int, v []float64) {
	if len(v) != m.cols {
		panic(fmt.Sprintf("mat: SetRow length %d != cols %d", len(v), m.cols))
	}
	copy(m.Row(i), v)
}

// Col returns a copy of column j.
func (m *Dense) Col(j int) []float64 {
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: col %d out of range %d", j, m.cols))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// Clone returns a deep copy of the matrix.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// reshape resizes m to r×c, reusing the backing slice when its capacity
// suffices (the contents are then stale — callers must fully overwrite).
// Workspace-backed decompositions use this to stay allocation-free at
// steady state.
func (m *Dense) reshape(r, c int) {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimension %d×%d", r, c))
	}
	n := r * c
	if cap(m.data) < n {
		m.data = make([]float64, n)
	}
	m.rows, m.cols, m.data = r, c, m.data[:n]
}

// CopyFrom overwrites m with the contents of src. Dimensions must match.
func (m *Dense) CopyFrom(src *Dense) {
	if m.rows != src.rows || m.cols != src.cols {
		panic(fmt.Sprintf("mat: CopyFrom dims %d×%d != %d×%d", src.rows, src.cols, m.rows, m.cols))
	}
	copy(m.data, src.data)
}

// Zero sets every element of m to zero.
func (m *Dense) Zero() {
	for i := range m.data {
		m.data[i] = 0
	}
}

// Data returns the backing slice in row-major order without copying.
func (m *Dense) Data() []float64 { return m.data }

// SliceRows returns a view of rows [i, j) sharing backing storage.
func (m *Dense) SliceRows(i, j int) *Dense {
	if i < 0 || j < i || j > m.rows {
		panic(fmt.Sprintf("mat: SliceRows [%d,%d) out of range %d", i, j, m.rows))
	}
	return &Dense{rows: j - i, cols: m.cols, data: m.data[i*m.cols : j*m.cols]}
}

// Stack returns a new matrix formed by concatenating the rows of the given
// matrices in order, i.e. the paper's [A; B] notation. All inputs must have
// the same number of columns; nil and 0-row inputs are skipped. Stacking
// nothing yields a 0×0 matrix.
func Stack(ms ...*Dense) *Dense {
	rows, cols := 0, -1
	for _, m := range ms {
		if m == nil || m.rows == 0 {
			continue
		}
		if cols == -1 {
			cols = m.cols
		} else if m.cols != cols {
			panic(fmt.Sprintf("mat: Stack column mismatch %d vs %d", m.cols, cols))
		}
		rows += m.rows
	}
	if cols == -1 {
		return NewDense(0, 0)
	}
	out := NewDense(rows, cols)
	at := 0
	for _, m := range ms {
		if m == nil || m.rows == 0 {
			continue
		}
		copy(out.data[at:], m.data)
		at += len(m.data)
	}
	return out
}

// T returns the transpose as a new matrix.
func (m *Dense) T() *Dense {
	out := NewDense(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols:]
		for j := 0; j < m.cols; j++ {
			out.data[j*m.rows+i] = row[j]
		}
	}
	return out
}

// Equal reports whether m and n have the same shape and elements.
func (m *Dense) Equal(n *Dense) bool {
	if m.rows != n.rows || m.cols != n.cols {
		return false
	}
	for i, v := range m.data {
		if v != n.data[i] {
			return false
		}
	}
	return true
}

// EqualApprox reports whether m and n have the same shape and all elements
// within tol of each other.
func (m *Dense) EqualApprox(n *Dense, tol float64) bool {
	if m.rows != n.rows || m.cols != n.cols {
		return false
	}
	for i, v := range m.data {
		if math.Abs(v-n.data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders the matrix for debugging; large matrices are elided.
func (m *Dense) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Dense(%d×%d)", m.rows, m.cols)
	if m.rows > 8 || m.cols > 8 {
		return b.String()
	}
	for i := 0; i < m.rows; i++ {
		b.WriteString("\n[")
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%.4g", m.At(i, j))
		}
		b.WriteByte(']')
	}
	return b.String()
}
