package mat

import "math"

// Eigen holds the eigendecomposition of a symmetric matrix S = VᵀΛV where
// the rows of Vectors are orthonormal eigenvectors: S = Σᵢ λᵢ·vᵢᵀvᵢ.
// Values are sorted by decreasing value (not absolute value).
type Eigen struct {
	// Values are the eigenvalues in decreasing order.
	Values []float64
	// Vectors has the eigenvector for Values[i] in row i.
	Vectors *Dense
}

// qlItersPerValue bounds the implicit QL iteration at this many sweeps per
// eigenvalue, summed over the matrix (LAPACK dsteqr's budget). Finite input
// converges in about two sweeps per eigenvalue; the bound exists so that no
// input, NaN and ±Inf included, can keep the iteration running.
const qlItersPerValue = 30

// EigSym computes the full eigendecomposition of the symmetric matrix s by
// Householder reduction to tridiagonal form followed by the implicit-shift
// QL algorithm (EISPACK's tred2/tql2; Golub & Van Loan, Matrix
// Computations, §8.3). Asymmetric input is treated as its symmetrized
// part. The cost is about 9n³ flops: about 4/3·n³ for the reduction, as
// much again to accumulate its reflectors into the eigenvector matrix, and
// 6n for each of the K ≈ n² QL rotations applied to it; the scalar QL
// sweeps themselves cost O(K). EigSymValuesInto shares the reduction and
// the sweeps and forms only the eigenvectors asked for.
//
// The solver is backward stable: the computed factors are an exact
// eigendecomposition of S + E with ‖E‖ = O(u·‖S‖), u the unit roundoff, so
// each eigenvalue is accurate to O(u·‖S‖) in absolute terms. Eigenvalues
// much smaller than ‖S‖ therefore carry less relative accuracy than a
// Jacobi method would give them. No caller in this module needs more: FD
// shrinks subtract σ_ℓ², DA1 and Decay report only directions with
// |λ| ≥ ε·F̂², PSDSqrt and DA2-C's residual drain clip at zero, and the
// covariance error that checks the guarantee is measured by power
// iteration (CovErr), not by EigSym. Callers that need small singular
// values to high relative accuracy should use JacobiSVD.
//
// EigSym allocates its working buffers fresh on every call; hot paths that
// decompose repeatedly should hold a Workspace and call EigSymInto.
func EigSym(s *Dense) Eigen {
	return EigSymInto(s, NewWorkspace())
}

// householderReduce reduces the symmetric n×n matrix w (n ≥ 1) to
// tridiagonal form T = QᵀSQ by Householder reflectors (tred2's reduction
// loop). It returns T's subdiagonal in e[1:] (e[0] = 0) and leaves T's
// diagonal on w's diagonal, reflector k (k ≥ 1) in the first k entries of
// row k of w, and its scale h_k in d[k]: Q = P_{n−1}⋯P_1 with
// P_k = I − u_k·u_kᵀ/h_k, the identity where h_k = 0. It is tred2 with
// every index pair swapped, which leaves the symmetric input unchanged and
// puts the Householder updates on contiguous rows of w instead of strided
// columns.
func householderReduce(w *Dense, d, e []float64) {
	n := w.rows
	a := w.data
	for j := 0; j < n; j++ {
		d[j] = a[j*n+n-1]
	}
	for i := n - 1; i > 0; i-- {
		// d[:i] holds row i's entries left of the diagonal. Scale them
		// to avoid under- and overflow in the reflector's norm.
		var scale, h float64
		for _, x := range d[:i] {
			scale += math.Abs(x)
		}
		if scale == 0 {
			// Row i is already reduced: no reflector.
			e[i] = d[i-1]
			for j := 0; j < i; j++ {
				d[j] = a[j*n+i-1]
				a[j*n+i] = 0
				a[i*n+j] = 0
			}
			d[i] = 0
			continue
		}
		v := d[:i]
		for k := range v {
			v[k] /= scale
			h += v[k] * v[k]
		}
		f := v[i-1]
		g := math.Sqrt(h)
		if f > 0 {
			g = -g
		}
		e[i] = scale * g
		h -= f * g
		v[i-1] = f - g
		// p = S·v/h − (vᵀS·v/2h²)·v over the leading i×i block, stored in
		// e[:i]; the block's upper triangle is the live half.
		p := e[:i]
		for j := range p {
			p[j] = 0
		}
		copy(a[i*n:i*n+i], v) // keep the reflector in row i
		j := 0
		for ; j+2 <= i; j += 2 {
			// Rows j and j+1 in one pass: two independent g chains. Each
			// p[k] still receives row j's term before row j+1's, and row
			// j's term for k = j+1 lands before row j+1's chain starts
			// from p[j+1].
			f, f1 := v[j], v[j+1]
			ajj1 := a[j*n+j+1]
			g = p[j] + a[j*n+j]*f
			g += ajj1 * v[j+1]
			p[j+1] += ajj1 * f
			g1 := p[j+1] + a[(j+1)*n+j+1]*f1
			row, row1 := a[j*n+j+2:j*n+i], a[(j+1)*n+j+2:(j+1)*n+i]
			vr, pr := v[j+2:i], p[j+2:i]
			row1, vr, pr = row1[:len(row)], vr[:len(row)], pr[:len(row)] // lets the compiler drop bounds checks
			for k, ajk := range row {
				ajk1 := row1[k]
				g += ajk * vr[k]
				g1 += ajk1 * vr[k]
				pr[k] += ajk * f
				pr[k] += ajk1 * f1
			}
			p[j], p[j+1] = g, g1
		}
		if j < i {
			// The last row of an odd block: its upper triangle past the
			// diagonal is empty.
			p[j] += a[j*n+j] * v[j]
		}
		f = 0
		for j := range p {
			p[j] /= h
			f += p[j] * v[j]
		}
		hh := f / (h + h)
		for j := range p {
			p[j] -= hh * v[j]
		}
		// Rank-2 update S ← S − v·pᵀ − p·vᵀ of the upper triangle.
		rank2Update(a, n, v, p)
		for j := 0; j < i; j++ {
			d[j] = a[j*n+i-1]
			a[j*n+i] = 0
		}
		d[i] = h
	}
	e[0] = 0
}

// accumulateReflectors finishes householderReduce for the full solve: it
// overwrites w with the transpose Qᵀ of the reducing transformation, one
// leading block at a time, and moves T's diagonal into d.
func accumulateReflectors(w *Dense, d []float64) {
	n := w.rows
	a := w.data
	for i := 0; i < n-1; i++ {
		a[i*n+n-1] = a[i*n+i]
		a[i*n+i] = 1
		ri := a[(i+1)*n : (i+1)*n+i+1] // reflector i+1
		if h := d[i+1]; h != 0 {
			for k, x := range ri {
				d[k] = x / h
			}
			// Row j of the leading block loses Dot(ri, row j)·d[:i+1],
			// four rows at a time: the rows are distinct from ri and d,
			// so forming four dots before the four updates changes no bit.
			var g [4]float64
			for j := 0; j <= i; j += 4 {
				gj := g[:min(4, i+1-j)]
				dotRows(gj, ri, a[j*n:], n)
				subRows(a[j*n:], n, gj, d[:i+1])
			}
		}
		for k := range ri {
			ri[k] = 0
		}
	}
	for j := 0; j < n; j++ {
		d[j] = a[j*n+n-1]
		a[j*n+n-1] = 0
	}
	a[n*n-1] = 1
}

// keepReflectors finishes householderReduce for the values-first solve:
// it swaps T's diagonal on w's diagonal with the reflector scales in d, so
// that d holds T's diagonal, bit for bit what accumulateReflectors leaves
// there, and w keeps every reflector for LazyEigen.VectorInto.
func keepReflectors(w *Dense, d []float64) {
	n := w.rows
	a := w.data
	for j := 0; j < n; j++ {
		d[j], a[j*n+j] = a[j*n+j], d[j]
	}
}

// tridiagonalQL diagonalizes the symmetric tridiagonal matrix with
// diagonal d and subdiagonal e[1:] by implicit-shift QL sweeps (tql2),
// leaving the eigenvalues in d, unsorted. e is destroyed. Each plane
// rotation either goes to two adjacent rows of the transposed accumulator
// acc, so that on return row i of acc is the eigenvector for d[i], or,
// when acc is nil, is recorded in log for LazyEigen.VectorInto to replay.
// The scalar recurrence is the same either way, so are the eigenvalues.
func tridiagonalQL(d, e []float64, acc *Dense, log *qlLog) {
	n := len(d)
	for i := 1; i < n; i++ {
		e[i-1] = e[i]
	}
	e[n-1] = 0

	// A subdiagonal entry is negligible below eps times the norm of the
	// whole matrix. EISPACK compares against the leading block seen so far
	// instead, which on badly scaled input lets the shift's quotient
	// overflow. Here every entry still being iterated on exceeds eps·‖T‖,
	// so the quotient stays below about 1/eps, each eigenvalue's absolute
	// error is O(u·‖T‖), and, with the input scaled near 1 by EigSymInto,
	// p² + e² needs no Hypot guard.
	var tst1 float64
	for i := 0; i < n; i++ {
		if t := math.Abs(d[i]) + math.Abs(e[i]); t > tst1 {
			tst1 = t
		}
	}
	tol := 0x1p-52 * tst1
	var f float64
	iters, maxIters := 0, qlItersPerValue*n
	for l := 0; l < n; l++ {
		// Find the first negligible subdiagonal entry at or after l. The
		// m < n−1 bound also stops the scan on NaN input.
		m := l
		for m < n-1 && math.Abs(e[m]) > tol {
			m++
		}
		start := iters
		for m > l && iters < maxIters {
			iters++
			// Wilkinson-style shift from the leading 2×2 block.
			g := d[l]
			p := (d[l+1] - g) / (2 * e[l])
			r := math.Sqrt(p*p + 1)
			if p < 0 {
				r = -r
			}
			d[l] = e[l] / (p + r)
			d[l+1] = e[l] * (p + r)
			dl1 := d[l+1]
			h := g - d[l]
			for i := l + 2; i < n; i++ {
				d[i] -= h
			}
			f += h

			// Chase the bulge from m up to l.
			p = d[m]
			c, c2, c3 := 1.0, 1.0, 1.0
			el1 := e[l+1]
			var s, s2 float64
			for i := m - 1; i >= l; i-- {
				c3 = c2
				c2 = c
				s2 = s
				g = c * e[i]
				h = c * p
				r = math.Sqrt(p*p + e[i]*e[i])
				e[i+1] = s * r
				s = e[i] / r
				c = p / r
				p = c*d[i] - s*g
				d[i+1] = h + s*(c*g+s*d[i])
				if acc != nil {
					a := acc.data
					rotateRows(a[i*n:(i+1)*n], a[(i+1)*n:(i+2)*n], c, s)
				} else {
					log.rot = append(log.rot, c, s)
				}
			}
			p = -s * s2 * c3 * el1 * e[l] / dl1
			e[l] = s * p
			d[l] = c * p
			if !(math.Abs(e[l]) > tol) {
				break
			}
		}
		if log != nil {
			log.runs[l] = qlRun{m: m, sweeps: iters - start}
		}
		d[l] += f
		e[l] = 0
	}
}

// qlLog is the record tridiagonalQL keeps in place of an accumulator: the
// (c, s) pair of every plane rotation in the order applied, and for each
// l the block [l, m] its sweeps ran on and how many there were. Every
// sweep for l rotates rows m−1 down to l, so the pairs alone, read back
// in reverse, replay the whole product.
type qlLog struct {
	rot  []float64
	runs []qlRun
}

type qlRun struct{ m, sweeps int }

// reset empties the log for an n×n solve. The first solve at n sizes it
// for 1.5·n² rotations: the QL runs about two sweeps per eigenvalue over
// shrinking blocks, n² to 1.3·n² rotations on DA1 and Decay reports and on
// random input at n ≥ 16. A run that needs more grows the log, which then
// keeps the larger capacity.
func (l *qlLog) reset(n int) {
	if want := 3 * n * n; cap(l.rot) < want {
		l.rot = make([]float64, 0, want)
	}
	l.rot = l.rot[:0]
	if cap(l.runs) < n {
		l.runs = make([]qlRun, n)
	}
	l.runs = l.runs[:n]
}

// LazyEigen is the values-first eigendecomposition of a symmetric matrix
// that EigSymValuesInto returns: the eigenvalues, and each eigenvector
// formed only when VectorInto asks for it. It aliases the workspace that
// produced it and is valid until the next Into call on that workspace.
type LazyEigen struct {
	// Values are the eigenvalues in decreasing order, bit for bit those
	// EigSymInto returns for the same input.
	Values []float64
	ws     *Workspace
}

// VectorInto writes the unit eigenvector for Values[i] into dst, which
// must have one entry per eigenvalue. It replays the logged QL rotations
// backwards on the unit vector e_k, k the eigenvalue's place before the
// sort, and then applies the stored Householder reflectors: the
// orthogonal product EigSymInto accumulates for every vector at once,
// grouped to serve one, at O(K + n²) flops for K logged rotations. The
// result agrees with EigSymInto's row i to O(n·u), u the unit roundoff.
func (e LazyEigen) VectorInto(dst []float64, i int) {
	n := len(e.Values)
	if len(dst) != n {
		panic("mat: LazyEigen.VectorInto length mismatch")
	}
	ws := e.ws
	clear(dst)
	dst[ws.idx[i]] = 1
	rot, pos := ws.ql.rot, len(ws.ql.rot)
	for l := n - 1; l >= 0; l-- {
		run := ws.ql.runs[l]
		for range run.sweeps {
			// The sweep rotated rows m−1 down to l; replay it from l up.
			for k := l; k < run.m; k++ {
				pos -= 2
				c, s := rot[pos], rot[pos+1]
				xk, xk1 := dst[k], dst[k+1]
				dst[k] = c*xk + s*xk1
				dst[k+1] = c*xk1 - s*xk
			}
		}
	}
	// dst ← P_{n−1}⋯P_1·dst, P_1 first: the reflectors in the order
	// accumulateReflectors multiplies them into Qᵀ.
	a := ws.eigA.data
	for k := 1; k < n; k++ {
		if h := a[k*n+k]; h != 0 {
			u, x := a[k*n:k*n+k], dst[:k]
			Axpy(-Dot(u, x)/h, u, x)
		}
	}
}

// Reconstruct returns Σᵢ values[i]·vᵢᵀvᵢ for the rows vᵢ of vectors —
// the inverse of EigSym up to floating-point error.
func (e Eigen) Reconstruct() *Dense {
	n := e.Vectors.cols
	out := NewDense(n, n)
	for i, lam := range e.Values {
		if lam == 0 {
			continue
		}
		addOuter(out.data, e.Vectors.Row(i), lam)
	}
	return out
}
