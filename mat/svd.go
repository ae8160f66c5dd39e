package mat

import (
	"math"
	"sort"
)

// SVD holds a thin singular value decomposition A = U·diag(S)·Vt where U is
// n×k, Vt is k×d, k = min(n, d), and S is sorted in decreasing order. The
// rows of Vt are the right singular vectors.
type SVD struct {
	U  *Dense
	S  []float64
	Vt *Dense
}

// ThinSVD computes a thin SVD of a via the Gram matrix of the smaller side:
// for n ≤ d it eigendecomposes A·Aᵀ (n×n), otherwise Aᵀ·A (d×d). This is
// the standard choice for sketching workloads where one side is small
// (FD sketches are ℓ×d with ℓ ≪ d, covariance differences are d×d).
//
// The Gram route squares the condition number, so singular values below
// about 1e-8·σ_max lose accuracy; sketch shrinking only consumes σ², for
// which this is exact enough. Use JacobiSVD when full relative accuracy of
// small singular values matters.
// ThinSVD allocates its factors and working buffers fresh on every call;
// hot paths that decompose repeatedly should hold a Workspace and call
// ThinSVDInto (or ThinSVDNoU when the left singular vectors are unused).
func ThinSVD(a *Dense) SVD {
	return ThinSVDInto(a, NewWorkspace())
}

func svdCutoff(s []float64) float64 {
	var max float64
	for _, v := range s {
		if v > max {
			max = v
		}
	}
	return max * 1e-12
}

// jacobiSweepsMax bounds JacobiSVD's sweeps over all row pairs;
// convergence is quadratic, so well under this for any practical dimension.
const jacobiSweepsMax = 60

// JacobiSVD computes a thin SVD of a using one-sided Jacobi rotations on
// the rows of a, which orthogonalizes all row pairs. It delivers high
// relative accuracy for small singular values at higher cost than ThinSVD.
// Requires n ≤ d is NOT required; for n > d it falls back to ThinSVD
// (Jacobi on the n² row pairs would be wasteful).
func JacobiSVD(a *Dense) SVD {
	n, d := a.rows, a.cols
	if n == 0 || d == 0 {
		return SVD{U: NewDense(n, 0), S: nil, Vt: NewDense(0, d)}
	}
	if n > d {
		return ThinSVD(a)
	}
	// Work on W = a copy of A; rotate pairs of ROWS until mutually
	// orthogonal: W = Σ·Vt with accumulated rotations forming Uᵀ.
	w := a.Clone()
	ut := Identity(n) // accumulates rotations; rows of ut are rows of Uᵀ
	for sweep := 0; sweep < jacobiSweepsMax; sweep++ {
		converged := true
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				wp, wq := w.Row(p), w.Row(q)
				alpha := VecNormSq(wp)
				beta := VecNormSq(wq)
				gamma := Dot(wp, wq)
				if math.Abs(gamma) <= 1e-15*math.Sqrt(alpha*beta)+1e-300 {
					continue
				}
				converged = false
				zeta := (beta - alpha) / (2 * gamma)
				t := math.Copysign(1, zeta) / (math.Abs(zeta) + math.Sqrt(1+zeta*zeta))
				c := 1 / math.Sqrt(1+t*t)
				s := c * t
				rotateRows(wp, wq, c, s)
				rotateRows(ut.Row(p), ut.Row(q), c, s)
			}
		}
		if converged {
			break
		}
	}
	type rowS struct {
		idx int
		s   float64
	}
	rs := make([]rowS, n)
	for i := 0; i < n; i++ {
		rs[i] = rowS{i, VecNorm(w.Row(i))}
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].s > rs[j].s })
	out := SVD{U: NewDense(n, n), S: make([]float64, n), Vt: NewDense(n, d)}
	cut := rs[0].s * 1e-14
	for k, r := range rs {
		out.S[k] = r.s
		if r.s > cut {
			inv := 1 / r.s
			wr := w.Row(r.idx)
			vk := out.Vt.Row(k)
			for j := range wr {
				vk[j] = wr[j] * inv
			}
		} else {
			out.S[k] = 0
		}
		// Column k of U = row r.idx of ut.
		for i := 0; i < n; i++ {
			out.U.data[i*n+k] = ut.data[r.idx*n+i]
		}
	}
	return out
}

// Reconstruct returns U·diag(S)·Vt, the matrix the decomposition factors.
func (s SVD) Reconstruct() *Dense {
	k := len(s.S)
	us := NewDense(s.U.rows, k)
	for i := 0; i < s.U.rows; i++ {
		for j := 0; j < k; j++ {
			us.data[i*k+j] = s.U.data[i*s.U.cols+j] * s.S[j]
		}
	}
	return Mul(us, s.Vt.SliceRows(0, k))
}

// PSDSqrt returns a matrix square root B of the symmetric positive
// semidefinite matrix c, i.e. a k×d matrix with BᵀB = c, where k is the
// numerical rank. Negative eigenvalues (from accumulated floating-point or
// protocol drift) are clipped to zero, matching the paper's QUERY step
// B = Σ^{1/2}·Vᵀ.
func PSDSqrt(c *Dense) *Dense {
	if c.rows != c.cols {
		panic("mat: PSDSqrt of non-square matrix")
	}
	eig := EigSym(c)
	d := c.rows
	k := 0
	for _, lam := range eig.Values {
		if lam > 0 {
			k++
		}
	}
	out := NewDense(k, d)
	r := 0
	for i, lam := range eig.Values {
		if lam <= 0 {
			continue
		}
		s := math.Sqrt(lam)
		vi := eig.Vectors.Row(i)
		oi := out.Row(r)
		for j := range vi {
			oi[j] = s * vi[j]
		}
		r++
	}
	return out
}
