package mat

import "math"

// VecNorm returns the Euclidean (ℓ₂) norm of x, guarding against
// overflow/underflow by scaling.
func VecNorm(x []float64) float64 {
	var scale, ssq float64
	ssq = 1
	for _, v := range x {
		if v == 0 {
			continue
		}
		av := math.Abs(v)
		if scale < av {
			r := scale / av
			ssq = 1 + ssq*r*r
			scale = av
		} else {
			r := av / scale
			ssq += r * r
		}
	}
	if scale == 0 {
		return 0
	}
	return scale * math.Sqrt(ssq)
}

// VecNormSq returns the squared Euclidean norm of x.
func VecNormSq(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return s
}

// AllFinite reports whether every value is finite (no NaN, no ±Inf). It is
// the admission check on every ingest path: a single non-finite value
// folded into a sketch poisons every later estimate.
func AllFinite(xs ...float64) bool {
	for _, v := range xs {
		// v−v is 0 for every finite v and NaN for NaN and ±Inf.
		if v-v != 0 {
			return false
		}
	}
	return true
}

// FrobSq returns the squared Frobenius norm ‖m‖_F².
func FrobSq(m *Dense) float64 {
	var s float64
	for _, v := range m.data {
		s += v * v
	}
	return s
}

// Frob returns the Frobenius norm ‖m‖_F.
func Frob(m *Dense) float64 { return math.Sqrt(FrobSq(m)) }

// Trace returns the trace of a square matrix.
func Trace(m *Dense) float64 {
	if m.rows != m.cols {
		panic("mat: Trace of non-square matrix")
	}
	var s float64
	for i := 0; i < m.rows; i++ {
		s += m.data[i*m.cols+i]
	}
	return s
}

// powerIterTol and powerIterMax bound the power-iteration loops below.
// The tolerance is relative; sketching error targets are ≥1e-3 so 1e-9
// leaves ample headroom.
const (
	powerIterTol = 1e-9
	powerIterMax = 2000
)

// SymSpectralNorm returns ‖s‖₂ = max|λᵢ| of a symmetric matrix s using
// power iteration with a deterministic start vector. For a symmetric
// matrix the spectral norm equals the largest absolute eigenvalue, to
// which power iteration converges directly.
//
// A zero matrix returns 0. The result is accurate to a relative tolerance
// of about 1e-9 for well-separated spectra; when the top two |λ| are
// nearly equal, power iteration still converges to the shared magnitude.
func SymSpectralNorm(s *Dense) float64 {
	if s.rows != s.cols {
		panic("mat: SymSpectralNorm of non-square matrix")
	}
	n := s.rows
	if n == 0 {
		return 0
	}
	// Deterministic pseudo-random start avoids orthogonal-start stalls
	// without requiring a rand source.
	v := make([]float64, n)
	seedVec(v)
	w := make([]float64, n)
	var prev float64
	for iter := 0; iter < powerIterMax; iter++ {
		symMulVec(s, v, w)
		nrm := VecNorm(w)
		if nrm == 0 {
			// v is (numerically) in the kernel; perturb deterministically.
			perturb(v, iter)
			continue
		}
		for i := range v {
			v[i] = w[i] / nrm
		}
		if iter > 2 && math.Abs(nrm-prev) <= powerIterTol*math.Max(nrm, 1e-300) {
			return nrm
		}
		prev = nrm
	}
	return prev
}

// SpectralNorm returns ‖a‖₂, the largest singular value of a general
// matrix, via power iteration on aᵀa applied as two mat-vec products
// (never forming the Gram matrix).
func SpectralNorm(a *Dense) float64 {
	if a.rows == 0 || a.cols == 0 {
		return 0
	}
	v := make([]float64, a.cols)
	seedVec(v)
	var prev float64
	for iter := 0; iter < powerIterMax; iter++ {
		u := MulVec(a, v)
		w := MulTVec(a, u)
		nrm := VecNorm(w)
		if nrm == 0 {
			perturb(v, iter)
			continue
		}
		for i := range v {
			v[i] = w[i] / nrm
		}
		if iter > 2 && math.Abs(nrm-prev) <= powerIterTol*math.Max(nrm, 1e-300) {
			prev = nrm
			break
		}
		prev = nrm
	}
	return math.Sqrt(prev)
}

// CovErr returns the covariance error of sketch b against target a:
// ‖aᵀa − bᵀb‖₂ / ‖a‖_F². An empty a with an empty b has error 0; an empty
// a with a nonzero b returns +Inf.
func CovErr(a, b *Dense) float64 {
	fa := FrobSq(a)
	d := a.cols
	if d == 0 {
		d = b.cols
	}
	diff := NewDense(d, d)
	if a.rows > 0 {
		GramAdd(diff, a, 1)
	}
	if b.rows > 0 {
		GramAdd(diff, b, -1)
	}
	nrm := SymSpectralNorm(diff)
	if fa == 0 {
		if nrm == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return nrm / fa
}

// CovErrGram is CovErr given the precomputed Gram matrix aGram = aᵀa and
// its squared Frobenius mass frobSq = ‖a‖_F².
func CovErrGram(aGram *Dense, frobSq float64, b *Dense) float64 {
	diff := aGram.Clone()
	if b.rows > 0 {
		GramAdd(diff, b, -1)
	}
	nrm := SymSpectralNorm(diff)
	if frobSq == 0 {
		if nrm == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return nrm / frobSq
}

// OpSymNorm returns the spectral norm (largest |eigenvalue|) of a
// symmetric linear operator on ℝᵈ given only as a mat-vec closure:
// apply must set y = Op·x. It runs the same power iteration as
// SymSpectralNorm without materializing the operator — the DA1 sites use
// it to test ‖C − Ĉ‖₂ against the reporting threshold without forming the
// d×d difference on every row.
func OpSymNorm(d int, apply func(x, y []float64)) float64 {
	return OpSymNormTol(d, powerIterTol, apply)
}

// OpSymNormTol is OpSymNorm with a caller-chosen relative convergence
// tolerance. Threshold tests that only need to compare the norm against a
// trigger value can pass a loose tolerance (e.g. 1e-3) and converge in a
// handful of iterations.
func OpSymNormTol(d int, tol float64, apply func(x, y []float64)) float64 {
	if d == 0 {
		return 0
	}
	v := make([]float64, d)
	seedVec(v)
	w := make([]float64, d)
	var prev float64
	for iter := 0; iter < powerIterMax; iter++ {
		apply(v, w)
		nrm := VecNorm(w)
		if nrm == 0 {
			perturb(v, iter)
			continue
		}
		for i := range v {
			v[i] = w[i] / nrm
		}
		if iter > 2 && math.Abs(nrm-prev) <= tol*math.Max(nrm, 1e-300) {
			return nrm
		}
		prev = nrm
	}
	return prev
}

// OpSymNormWarm runs `iters` power-iteration steps on a symmetric
// operator starting from (and updating in place) the caller-supplied unit
// vector v — a warm start. It returns the final Rayleigh-quotient norm
// estimate, which lower-bounds the true spectral norm. Protocols that
// re-test the same slowly-moving operator (DA1's ‖C − Ĉ‖₂ trigger) keep v
// across tests: the dominant eigenvector moves little between tests, so a
// handful of iterations recovers the norm to within a few percent at a
// fraction of a cold start's cost.
// OpSymNormWarm allocates its iteration scratch fresh on every call;
// repeated threshold tests should hold a Workspace and call
// OpSymNormWarmWS.
func OpSymNormWarm(d int, v []float64, iters int, apply func(x, y []float64)) float64 {
	return OpSymNormWarmWS(d, v, iters, apply, NewWorkspace())
}

// symMulVec computes w = s·v for symmetric s without allocating.
func symMulVec(s *Dense, v, w []float64) {
	n := s.rows
	for i := 0; i < n; i++ {
		w[i] = Dot(s.data[i*n:(i+1)*n], v)
	}
}

// seedVec fills v with a fixed full-support pattern of unit norm.
func seedVec(v []float64) {
	// A simple LCG gives a deterministic start with no zero coordinates.
	x := uint64(88172645463325252)
	for i := range v {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		v[i] = 0.5 + float64(x%1000)/1000.0
	}
	n := VecNorm(v)
	for i := range v {
		v[i] /= n
	}
}

// perturb nudges v deterministically, used when power iteration lands in a
// kernel direction.
func perturb(v []float64, iter int) {
	v[iter%len(v)] += 1
	n := VecNorm(v)
	for i := range v {
		v[i] /= n
	}
}
