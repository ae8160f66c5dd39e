package mat

import "fmt"

// Add returns a + b as a new matrix. Dimensions must match.
func Add(a, b *Dense) *Dense {
	checkSame(a, b, "Add")
	out := NewDense(a.rows, a.cols)
	for i, v := range a.data {
		out.data[i] = v + b.data[i]
	}
	return out
}

// Sub returns a - b as a new matrix. Dimensions must match.
func Sub(a, b *Dense) *Dense {
	out := NewDense(a.rows, a.cols)
	SubInto(out, a, b)
	return out
}

// SubInto sets dst = a - b without allocating. All three must have the
// same dimensions; dst may alias a or b.
func SubInto(dst, a, b *Dense) {
	checkSame(a, b, "SubInto")
	checkSame(dst, a, "SubInto")
	subVec(dst.data, a.data, b.data)
}

// Scale returns s*a as a new matrix.
func Scale(s float64, a *Dense) *Dense {
	out := NewDense(a.rows, a.cols)
	for i, v := range a.data {
		out.data[i] = s * v
	}
	return out
}

// ScaleInPlace sets a *= s.
func ScaleInPlace(a *Dense, s float64) {
	for i := range a.data {
		a.data[i] *= s
	}
}

func checkSame(a, b *Dense, op string) {
	if a.rows != b.rows || a.cols != b.cols {
		panic(fmt.Sprintf("mat: %s dimension mismatch %d×%d vs %d×%d", op, a.rows, a.cols, b.rows, b.cols))
	}
}

// Mul returns the matrix product a*b as a new matrix.
// It panics unless a.Cols() == b.Rows().
func Mul(a, b *Dense) *Dense {
	out := NewDense(a.rows, b.cols)
	MulInto(out, a, b)
	return out
}

// MulInto sets dst = a*b without allocating. dst must be a.Rows()×b.Cols()
// and must not alias a or b. The previous contents of dst are overwritten.
//
// The kernel streams b's rows (ikj order) and register-blocks two output
// rows at a time so each row of b is read once per pair of output rows.
func MulInto(dst, a, b *Dense) {
	if a.cols != b.rows {
		panic(fmt.Sprintf("mat: Mul inner dimension mismatch %d×%d · %d×%d", a.rows, a.cols, b.rows, b.cols))
	}
	if dst.rows != a.rows || dst.cols != b.cols {
		panic(fmt.Sprintf("mat: MulInto dst %d×%d, want %d×%d", dst.rows, dst.cols, a.rows, b.cols))
	}
	dst.Zero()
	n, m := a.rows, b.cols
	i := 0
	for ; i+2 <= n; i += 2 {
		a0 := a.data[i*a.cols : (i+1)*a.cols]
		a1 := a.data[(i+1)*a.cols : (i+2)*a.cols]
		o0 := dst.data[i*m : (i+1)*m]
		o1 := dst.data[(i+1)*m : (i+2)*m]
		for k := range a0 {
			brow := b.data[k*m : (k+1)*m]
			axpy2(a0[k], a1[k], brow, o0, o1)
		}
	}
	if i < n {
		arow := a.data[i*a.cols : (i+1)*a.cols]
		orow := dst.data[i*m : (i+1)*m]
		for k, av := range arow {
			axpyKernel(av, b.data[k*m:(k+1)*m], orow)
		}
	}
}

// MulVec returns the matrix-vector product a*x.
// It panics unless len(x) == a.Cols().
func MulVec(a *Dense, x []float64) []float64 {
	out := make([]float64, a.rows)
	MulVecInto(out, a, x)
	return out
}

// MulVecInto sets dst = a*x without allocating. dst must have length
// a.Rows() and must not alias x.
func MulVecInto(dst []float64, a *Dense, x []float64) {
	if len(x) != a.cols {
		panic(fmt.Sprintf("mat: MulVec length %d != cols %d", len(x), a.cols))
	}
	if len(dst) != a.rows {
		panic(fmt.Sprintf("mat: MulVecInto dst length %d != rows %d", len(dst), a.rows))
	}
	dotRows(dst, x, a.data, a.cols)
}

// MulTVec returns aᵀ*x. It panics unless len(x) == a.Rows().
func MulTVec(a *Dense, x []float64) []float64 {
	out := make([]float64, a.cols)
	MulTVecInto(out, a, x)
	return out
}

// MulTVecInto sets dst = aᵀ*x without allocating. dst must have length
// a.Cols() and must not alias x.
func MulTVecInto(dst []float64, a *Dense, x []float64) {
	if len(x) != a.rows {
		panic(fmt.Sprintf("mat: MulTVec length %d != rows %d", len(x), a.rows))
	}
	if len(dst) != a.cols {
		panic(fmt.Sprintf("mat: MulTVecInto dst length %d != cols %d", len(dst), a.cols))
	}
	for i := range dst {
		dst[i] = 0
	}
	for i, xv := range x {
		axpyKernel(xv, a.data[i*a.cols:(i+1)*a.cols], dst)
	}
}

// Gram returns aᵀa, the d×d covariance (Gram) matrix of the rows of a.
// The result is symmetric positive semidefinite.
func Gram(a *Dense) *Dense {
	out := NewDense(a.cols, a.cols)
	GramAdd(out, a, 1)
	return out
}

// GramInto sets dst = aᵀa without allocating. dst must be
// a.Cols()×a.Cols(); its previous contents are overwritten.
func GramInto(dst *Dense, a *Dense) {
	d := a.cols
	if dst.rows != d || dst.cols != d {
		panic(fmt.Sprintf("mat: GramInto dst %d×%d, want %d×%d", dst.rows, dst.cols, d, d))
	}
	dst.Zero()
	GramAdd(dst, a, 1)
}

// GramAdd accumulates dst += s · aᵀa. dst must be a.Cols()×a.Cols().
func GramAdd(dst *Dense, a *Dense, s float64) {
	d := a.cols
	if dst.rows != d || dst.cols != d {
		panic(fmt.Sprintf("mat: GramAdd dst %d×%d, want %d×%d", dst.rows, dst.cols, d, d))
	}
	for i := 0; i < a.rows; i++ {
		row := a.data[i*d : (i+1)*d]
		addOuter(dst.data, row, s)
	}
}

// OuterAdd accumulates dst += s · vᵀv for a row vector v.
// dst must be len(v)×len(v).
func OuterAdd(dst *Dense, v []float64, s float64) {
	if dst.rows != len(v) || dst.cols != len(v) {
		panic(fmt.Sprintf("mat: OuterAdd dst %d×%d, want %d×%d", dst.rows, dst.cols, len(v), len(v)))
	}
	addOuter(dst.data, v, s)
}

// Dot returns the inner product of x and y. Lengths must match.
//
// The sum runs in four interleaved accumulators, reduced as
// (s0+s1)+(s2+s3) (dotGo; under AVX2 the accumulators are the lanes of
// one register, with the same bits); the result is deterministic but
// differs from a naive left-to-right sum by O(ε) rounding.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mat: Dot length mismatch %d vs %d", len(x), len(y)))
	}
	if useAVX2 {
		var s [1]float64
		dotRowsAVX2(s[:], x, y, 0)
		return s[0]
	}
	return dotGo(x, y)
}

// Axpy sets y += a*x. Lengths must match.
func Axpy(a float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mat: Axpy length mismatch %d vs %d", len(x), len(y)))
	}
	axpyKernel(a, x, y)
}

// axpy2 sets y0 += c0*x and y1 += c1*x in one pass over x, the 2-row
// register block MulInto is built on.
func axpy2(c0, c1 float64, x, y0, y1 []float64) {
	i := 0
	for ; i+4 <= len(x); i += 4 {
		x4 := x[i : i+4 : i+4]
		a4 := y0[i : i+4 : i+4]
		b4 := y1[i : i+4 : i+4]
		a4[0] += c0 * x4[0]
		b4[0] += c1 * x4[0]
		a4[1] += c0 * x4[1]
		b4[1] += c1 * x4[1]
		a4[2] += c0 * x4[2]
		b4[2] += c1 * x4[2]
		a4[3] += c0 * x4[3]
		b4[3] += c1 * x4[3]
	}
	for ; i < len(x); i++ {
		y0[i] += c0 * x[i]
		y1[i] += c1 * x[i]
	}
}

// ScaleVec multiplies x by s in place.
func ScaleVec(s float64, x []float64) {
	for i := range x {
		x[i] *= s
	}
}
