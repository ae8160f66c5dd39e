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
// part. The cost is about 9n³ flops.
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

// tridiagonalize overwrites the symmetric n×n matrix w (n ≥ 1) with the
// transpose Qᵀ of the orthogonal Q that reduces it to tridiagonal form
// T = QᵀSQ, and returns T's diagonal in d and its subdiagonal in e[1:]
// (e[0] = 0). It is tred2 with every index pair swapped, which leaves the
// symmetric input unchanged and puts the Householder updates and their
// accumulation on contiguous rows of w instead of strided columns.
func tridiagonalize(w *Dense, d, e []float64) {
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
		for j := 0; j < i; j++ {
			f = v[j]
			a[i*n+j] = f // keep the reflector in row i for accumulation
			row := a[j*n+j+1 : j*n+i]
			vr, pr := v[j+1:i], p[j+1:i]
			vr, pr = vr[:len(row)], pr[:len(row)] // lets the compiler drop bounds checks
			g = p[j] + a[j*n+j]*f
			for k, ajk := range row {
				g += ajk * vr[k]
				pr[k] += ajk * f
			}
			p[j] = g
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
		for j := 0; j < i; j++ {
			f = v[j]
			g = p[j]
			row := a[j*n+j : j*n+i]
			vj, pj := v[j:i], p[j:i]
			vj, pj = vj[:len(row)], pj[:len(row)]
			for k := range row {
				row[k] -= f*pj[k] + g*vj[k]
			}
			d[j] = a[j*n+i-1]
			a[j*n+i] = 0
		}
		d[i] = h
	}

	// Accumulate the reflectors into Qᵀ, one leading block at a time.
	for i := 0; i < n-1; i++ {
		a[i*n+n-1] = a[i*n+i]
		a[i*n+i] = 1
		ri := a[(i+1)*n : (i+1)*n+i+1] // reflector i+1
		if h := d[i+1]; h != 0 {
			for k, x := range ri {
				d[k] = x / h
			}
			for j := 0; j <= i; j++ {
				rj := a[j*n : j*n+i+1]
				g := Dot(ri, rj)
				dk := d[:len(rj)]
				for k := range rj {
					rj[k] -= g * dk[k]
				}
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
	e[0] = 0
}

// tridiagonalQL diagonalizes the symmetric tridiagonal matrix with
// diagonal d and subdiagonal e[1:] by implicit-shift QL sweeps (tql2),
// leaving the eigenvalues in d, unsorted. Each plane rotation is applied
// to two adjacent rows of the transposed accumulator w, so on return row
// i of w is the eigenvector for d[i]. e is destroyed.
func tridiagonalQL(w *Dense, d, e []float64) {
	n := w.rows
	a := w.data
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
				rotateRows(a[i*n:(i+1)*n], a[(i+1)*n:(i+2)*n], c, s)
			}
			p = -s * s2 * c3 * el1 * e[l] / dl1
			e[l] = s * p
			d[l] = c * p
			if !(math.Abs(e[l]) > tol) {
				break
			}
		}
		d[l] += f
		e[l] = 0
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
