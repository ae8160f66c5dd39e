package mat

import "math"

// Workspace holds reusable scratch buffers for the decomposition entry
// points (EigSymInto, EigSymValuesInto, ThinSVDInto, ThinSVDNoU) and the
// warm-started power iteration (OpSymNormWarmWS). A Workspace may be
// reused dirty — every Into call fully initializes the buffers it reads —
// and grows its buffers monotonically, so a caller that decomposes
// fixed-size matrices (an FD sketch shrinking its 2ℓ×d buffer, a protocol
// site eigendecomposing d×d differences) reaches a steady state with zero
// allocations per call. The workspace owns the QL rotation log of
// EigSymValuesInto, sized once per dimension (1.5·n² rotations, 24 KB at
// n = 32).
//
// Ownership rules:
//
//   - The Eigen/LazyEigen/SVD values returned by the Into functions alias
//     the workspace; they are valid only until the next Into call on the
//     same workspace. Callers that need the factors longer must copy them;
//     a LazyEigen's vectors must be formed before that call.
//   - A Workspace is not safe for concurrent use. Give each goroutine (in
//     the parallel pipeline: each site, since one site's work is
//     serialized on one lane) its own Workspace.
//   - The zero value is ready to use; NewWorkspace exists for symmetry.
type Workspace struct {
	// Symmetric eigendecomposition scratch (EigSymInto,
	// EigSymValuesInto). eigA starts as the scaled, symmetrized input. For
	// EigSymInto it ends as the transposed rotation accumulator, whose
	// rows are the eigenvectors; for EigSymValuesInto it keeps the
	// Householder reflectors below its diagonal and their scales on it,
	// and ql keeps the QL rotations, which LazyEigen.VectorInto replays.
	eigA Dense
	eigD []float64 // tridiagonal diagonal, then the unsorted eigenvalues
	eigE []float64 // tridiagonal subdiagonal
	idx  []int     // eigenvalue sort permutation
	ql   qlLog

	// Eigendecomposition outputs, aliased by the returned Eigen (vals also
	// by LazyEigen).
	vals []float64
	vecs Dense

	// Thin-SVD scratch and outputs, aliased by the returned SVD.
	gram Dense
	u    Dense
	s    []float64
	vt   Dense

	// Power-iteration scratch (OpSymNormWarmWS).
	pw    []float64
	pseed []float64
}

// NewWorkspace returns an empty workspace. Buffers are allocated lazily on
// first use and reused afterwards.
func NewWorkspace() *Workspace { return &Workspace{} }

// growFloats returns s resized to n, reusing its backing array when the
// capacity suffices. Contents are stale; callers must overwrite.
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// growInts is growFloats for int slices.
func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// EigSymInto computes the eigendecomposition of the symmetric matrix s
// like EigSym, but decomposes into ws-owned buffers: at steady state (same
// dimension as the previous call) it performs no allocations. The returned
// Eigen aliases ws and is valid until the next Into call on ws.
//
// The result is bit-for-bit identical to EigSym(s): EigSym is this
// function run on a fresh workspace, and every buffer read is fully
// initialized first, so prior contents cannot leak into the output.
func EigSymInto(s *Dense, ws *Workspace) Eigen {
	exp := ws.eigReduce(s)
	n, a := s.rows, &ws.eigA
	if n > 0 {
		accumulateReflectors(a, ws.eigD)
		tridiagonalQL(ws.eigD, ws.eigE, a, nil)
	}
	vals := ws.eigSort(exp)
	ws.vecs.reshape(n, n)
	for r, i := range ws.idx {
		copy(ws.vecs.Row(r), a.Row(i))
	}
	return Eigen{Values: vals, Vectors: &ws.vecs}
}

// EigSymValuesInto is the values-first EigSymInto: it returns the
// eigenvalues of the symmetric s, bit for bit those EigSymInto returns,
// and forms an eigenvector only when LazyEigen.VectorInto asks for it. It
// skips the two stages that exist only to build vectors — accumulating
// the Householder reflectors into Qᵀ (about 4/3·n³ flops) and applying
// each QL rotation to every row of Qᵀ (6·n flops per rotation) — and
// keeps the reflectors and a log of the rotations in ws instead. What
// remains is the reduction (about 4/3·n³), the scalar QL sweeps, and
// O(K + n²) per vector asked for, K ≈ n² the number of rotations, against
// about 9·n³ for the full solve. A caller that needs a few of n vectors
// should use it.
//
// The values, and the reflectors and rotation log VectorInto replays,
// live in ws: the values may be read, and vectors formed, only until the
// next Into call on ws. At steady state it performs no allocations.
func EigSymValuesInto(s *Dense, ws *Workspace) LazyEigen {
	exp := ws.eigReduce(s)
	if n := s.rows; n > 0 {
		keepReflectors(&ws.eigA, ws.eigD)
		ws.ql.reset(n)
		tridiagonalQL(ws.eigD, ws.eigE, nil, &ws.ql)
	}
	return LazyEigen{Values: ws.eigSort(exp), ws: ws}
}

// eigReduce is the front both symmetric solvers share: it writes the
// scaled, symmetrized s into ws.eigA and reduces it to tridiagonal form
// (householderReduce), returning the power of two the eigenvalues must be
// scaled back by.
func (ws *Workspace) eigReduce(s *Dense) (exp int) {
	if s.rows != s.cols {
		panic("mat: EigSym of non-square matrix")
	}
	n := s.rows
	ws.eigA.reshape(n, n)
	a := &ws.eigA
	// Symmetrize to guard against drift in accumulated covariance updates,
	// and divide by a power of two, exactly, so that the largest entry is
	// near 1: the QL sweeps then form their rotations without under- or
	// overflow guards. The eigenvalues are scaled back by eigSort. The
	// exponent is clamped so that 2^±exp stay finite for subnormal and
	// huge input.
	var mx float64
	for _, x := range s.data {
		if ax := math.Abs(x); ax > mx {
			mx = ax
		}
	}
	_, exp = math.Frexp(mx)
	exp = min(max(exp, -1021), 1021)
	inv := math.Ldexp(1, -exp)
	for i := 0; i < n; i++ {
		a.data[i*n+i] = s.data[i*n+i] * inv
		for j := i + 1; j < n; j++ {
			v := 0.5 * (s.data[i*n+j]*inv + s.data[j*n+i]*inv)
			a.data[i*n+j] = v
			a.data[j*n+i] = v
		}
	}
	ws.eigD = growFloats(ws.eigD, n)
	ws.eigE = growFloats(ws.eigE, n)
	if n > 0 {
		householderReduce(a, ws.eigD, ws.eigE)
	}
	return exp
}

// eigSort orders the eigenvalues in ws.eigD by decreasing value into
// ws.idx and returns them, scaled back by 2^exp, in ws.vals.
func (ws *Workspace) eigSort(exp int) []float64 {
	d := ws.eigD
	n := len(d)
	ws.idx = growInts(ws.idx, n)
	idx := ws.idx
	for i := range idx {
		idx[i] = i
	}
	// Insertion sort by decreasing eigenvalue: n is small (sketch and
	// covariance dimensions), and unlike sort.Slice this allocates nothing.
	for i := 1; i < n; i++ {
		k := idx[i]
		key := d[k]
		j := i - 1
		for j >= 0 && d[idx[j]] < key {
			idx[j+1] = idx[j]
			j--
		}
		idx[j+1] = k
	}
	ws.vals = growFloats(ws.vals, n)
	scale := math.Ldexp(1, exp)
	for r, i := range idx {
		ws.vals[r] = d[i] * scale
	}
	return ws.vals
}

// ThinSVDInto computes the thin SVD of a like ThinSVD, but decomposes into
// ws-owned buffers: at steady state it performs no allocations. The
// returned SVD aliases ws and is valid until the next Into call on ws.
// The result is bit-for-bit identical to ThinSVD(a).
func ThinSVDInto(a *Dense, ws *Workspace) SVD {
	return thinSVDInto(a, ws, true)
}

// ThinSVDNoU is ThinSVDInto without the left singular vectors: for n > d
// inputs it skips the n×d U = A·V·Σ⁺ solve (the dominant cost for tall
// inputs) and returns U == nil. For n ≤ d inputs U falls out of the Gram
// route for free and is returned as usual. S and Vt are bit-for-bit
// identical to ThinSVD's. FD shrinking consumes only S and Vt, which is
// exactly what this variant serves.
func ThinSVDNoU(a *Dense, ws *Workspace) SVD {
	return thinSVDInto(a, ws, false)
}

func thinSVDInto(a *Dense, ws *Workspace, needU bool) SVD {
	n, d := a.rows, a.cols
	if n == 0 || d == 0 {
		ws.u.reshape(n, 0)
		ws.vt.reshape(0, d)
		return SVD{U: &ws.u, S: nil, Vt: &ws.vt}
	}
	if n <= d {
		// G = A·Aᵀ = U·Σ²·Uᵀ, then Vt = Σ⁺·Uᵀ·A.
		ws.gram.reshape(n, n)
		g := &ws.gram
		for i := 0; i < n; i++ {
			gi := g.data[i*n+i : i*n+n]
			dotRows(gi, a.Row(i), a.data[i*d:], d)
			for j := i + 1; j < n; j++ {
				g.data[j*n+i] = gi[j-i]
			}
		}
		eig := EigSymInto(g, ws)
		ws.s = growFloats(ws.s, n)
		s := ws.s
		ws.u.reshape(n, n)
		u := &ws.u
		for k := 0; k < n; k++ {
			lam := eig.Values[k]
			if lam < 0 {
				lam = 0
			}
			s[k] = math.Sqrt(lam)
			// Column k of U is eigenvector k.
			for i := 0; i < n; i++ {
				u.data[i*n+k] = eig.Vectors.data[k*n+i]
			}
		}
		ws.vt.reshape(n, d)
		vt := &ws.vt
		vt.Zero() // rows below the cutoff stay zero, and Axpy accumulates
		cutoff := svdCutoff(s)
		for k := 0; k < n; k++ {
			if s[k] <= cutoff {
				s[k] = 0
				continue // leave a zero row in Vt
			}
			// Vt row k = Σ_i (U_ik/σ_k)·A row i; column k of U is
			// eigenvector k.
			axpyRows(vt.Row(k), a.data, eig.Vectors.Row(k), 1/s[k])
		}
		return SVD{U: u, S: s, Vt: vt}
	}
	// n > d: G = Aᵀ·A = V·Σ²·Vᵀ, then U = A·V·Σ⁺.
	ws.gram.reshape(d, d)
	GramInto(&ws.gram, a)
	eig := EigSymInto(&ws.gram, ws)
	ws.s = growFloats(ws.s, d)
	s := ws.s
	ws.vt.reshape(d, d)
	vt := &ws.vt
	for k := 0; k < d; k++ {
		lam := eig.Values[k]
		if lam < 0 {
			lam = 0
		}
		s[k] = math.Sqrt(lam)
		copy(vt.Row(k), eig.Vectors.Row(k))
	}
	cutoff := svdCutoff(s)
	for k := 0; k < d; k++ {
		if s[k] <= cutoff {
			s[k] = 0
		}
	}
	if !needU {
		return SVD{U: nil, S: s, Vt: vt}
	}
	ws.u.reshape(n, d)
	u := &ws.u
	u.Zero() // columns with s[k] == 0 stay zero
	for i := 0; i < n; i++ {
		ai := a.Row(i)
		ui := u.Row(i)
		for k := 0; k < d; k++ {
			if s[k] == 0 {
				continue
			}
			ui[k] = Dot(ai, vt.Row(k)) / s[k]
		}
	}
	return SVD{U: u, S: s, Vt: vt}
}

// OpSymNormWarmWS is OpSymNormWarm with workspace-owned iteration scratch:
// at steady state it performs no allocations. See OpSymNormWarm for the
// warm-start semantics; v is still caller-owned and updated in place.
func OpSymNormWarmWS(d int, v []float64, iters int, apply func(x, y []float64), ws *Workspace) float64 {
	if d == 0 {
		return 0
	}
	if len(v) != d {
		panic("mat: OpSymNormWarm vector length mismatch")
	}
	if VecNorm(v) == 0 {
		seedVec(v)
	} else {
		// Blend in a full-support component so a stale v that happens to
		// be an exact eigenvector of the new operator (orthogonal to the
		// dominant direction) cannot trap the iteration.
		ws.pseed = growFloats(ws.pseed, d)
		seed := ws.pseed
		seedVec(seed)
		for i := range v {
			v[i] = 0.95*v[i] + 0.05*seed[i]
		}
		n := VecNorm(v)
		for i := range v {
			v[i] /= n
		}
	}
	ws.pw = growFloats(ws.pw, d)
	w := ws.pw
	var nrm float64
	for iter := 0; iter < iters; iter++ {
		apply(v, w)
		nrm = VecNorm(w)
		if nrm == 0 {
			perturb(v, iter)
			continue
		}
		for i := range v {
			v[i] = w[i] / nrm
		}
	}
	return nrm
}
