package mat

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// jacobiEig is the cyclic Jacobi eigensolver, kept as the reference oracle
// EigSym is checked against: slow, but with high relative accuracy. It
// runs cyclic Jacobi sweeps on the symmetric matrix a in place,
// accumulating the rotations into v (whose columns become eigenvectors).
func jacobiEig(a, v *Dense) {
	n := a.rows
	offDiag := func() float64 {
		var s float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				s += a.data[i*n+j] * a.data[i*n+j]
			}
		}
		return s
	}
	var frob float64
	for _, x := range a.data {
		frob += x * x
	}
	tol := 1e-28 * (frob + 1e-300)

	for sweep := 0; sweep < jacobiSweepsMax && offDiag() > tol; sweep++ {
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := a.data[p*n+q]
				if apq == 0 {
					continue
				}
				app := a.data[p*n+p]
				aqq := a.data[q*n+q]
				theta := (aqq - app) / (2 * apq)
				var t float64
				if math.Abs(theta) > 1e150 {
					t = 1 / (2 * theta)
				} else {
					t = math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				}
				c := 1 / math.Sqrt(t*t+1)
				sn := t * c
				rotate(a, v, p, q, c, sn)
			}
		}
	}
}

// rotate applies the Jacobi rotation J(p,q,θ) to a (two-sided) and
// accumulates it into v (one-sided, columns).
func rotate(a, v *Dense, p, q int, c, s float64) {
	n := a.rows
	for i := 0; i < n; i++ {
		aip := a.data[i*n+p]
		aiq := a.data[i*n+q]
		a.data[i*n+p] = c*aip - s*aiq
		a.data[i*n+q] = s*aip + c*aiq
	}
	for j := 0; j < n; j++ {
		apj := a.data[p*n+j]
		aqj := a.data[q*n+j]
		a.data[p*n+j] = c*apj - s*aqj
		a.data[q*n+j] = s*apj + c*aqj
	}
	for i := 0; i < n; i++ {
		vip := v.data[i*n+p]
		viq := v.data[i*n+q]
		v.data[i*n+p] = c*vip - s*viq
		v.data[i*n+q] = s*vip + c*viq
	}
}

// jacobiEigSym is the oracle's EigSym: it symmetrizes s, diagonalizes it
// with jacobiEig and returns the values in decreasing order with their
// eigenvectors as rows.
func jacobiEigSym(s *Dense) Eigen {
	n := s.rows
	a := Scale(0.5, Add(s, s.T()))
	v := Identity(n)
	jacobiEig(a, v)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(x, y int) bool { return a.At(idx[x], idx[x]) > a.At(idx[y], idx[y]) })
	out := Eigen{Values: make([]float64, n), Vectors: NewDense(n, n)}
	for r, i := range idx {
		out.Values[r] = a.At(i, i)
		for j := 0; j < n; j++ {
			out.Vectors.Set(r, j, v.At(j, i))
		}
	}
	return out
}

// eigCase is one named symmetric input.
type eigCase struct {
	name string
	a    *Dense
}

// eigCases returns n×n inputs shaped like the matrices the protocols
// decompose, plus the structures that exercise the solver's special
// branches. At n = 32 the Grams are of 40×32 buffers, FD's 2ℓ×d shrink at
// ε = 0.05.
func eigCases(n int, rng *rand.Rand) []eigCase {
	buf := func() *Dense { return randMat(n+8, n, rng) }
	rank := n / 4
	lowRank := Mul(randMat(n+8, rank, rng), randMat(rank, n, rng))
	v := randMat(1, n, rng)

	identityPlusRank1 := Gram(v)
	for i := 0; i < n; i++ {
		identityPlusRank1.data[i*n+i]++
	}
	repeated := NewDense(n, n)
	for i := 0; i < n; i++ {
		repeated.Set(i, i, []float64{3, 1, -2, 3, 1}[i%5])
	}
	// Blocks of n/2, n/4 and n/4: the zero block and the zero coupling
	// make rows reach tridiagonalize already reduced.
	blocks := NewDense(n, n)
	for _, blk := range [][2]int{{0, n / 2}, {n - n/4, n}} {
		r := randSym(blk[1]-blk[0], rng)
		for i := blk[0]; i < blk[1]; i++ {
			for j := blk[0]; j < blk[1]; j++ {
				blocks.Set(i, j, r.At(i-blk[0], j-blk[0]))
			}
		}
	}
	tridiagonal := NewDense(n, n)
	for i := 0; i < n; i++ {
		tridiagonal.Set(i, i, rng.NormFloat64())
		if i > 0 {
			x := rng.NormFloat64()
			tridiagonal.Set(i, i-1, x)
			tridiagonal.Set(i-1, i, x)
		}
	}
	// Entries graded over 16 decades: aᵢⱼ = gᵢ·gⱼ·rᵢⱼ with gᵢ from 1e-4 to 1e4.
	graded := randSym(n, rng)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			gi := math.Pow(10, -4+8*float64(i)/float64(max(n-1, 1)))
			gj := math.Pow(10, -4+8*float64(j)/float64(max(n-1, 1)))
			graded.data[i*n+j] *= gi * gj
		}
	}
	return []eigCase{
		{"gram rank n/4", Gram(lowRank)},
		{"gram full rank", Gram(buf())},
		{"gram difference", Sub(Gram(buf()), Gram(buf()))},
		{"identity plus rank-1", identityPlusRank1},
		{"2I", Scale(2, Identity(n))},
		{"repeated diagonal", repeated},
		{"block diagonal with zero block", blocks},
		{"tridiagonal", tridiagonal},
		{"graded 1e-8 to 1e8", graded},
		{"scaled 1e-150", Scale(1e-150, randSym(n, rng))},
		{"scaled 1e150", Scale(1e150, randSym(n, rng))},
		{"rank-1", Gram(v)},
		{"zero", NewDense(n, n)},
	}
}

// eigErrors measures the decomposition e of the symmetric s: the Frobenius
// norm of s, the reconstruction error ‖Σᵢ λᵢ·vᵢᵀvᵢ − s‖_F, and the
// orthonormality error ‖VVᵀ − I‖_F. The first two are computed on copies
// divided by a power of two near max|sᵢⱼ|, which is exact, and scaled
// back, so neither tiny nor huge inputs under- or overflow.
func eigErrors(s *Dense, e Eigen) (frob, recon, orth float64) {
	n := s.rows
	var mx float64
	for _, x := range s.data {
		mx = math.Max(mx, math.Abs(x))
	}
	scale := 1.0
	if mx > 0 {
		_, exp := math.Frexp(mx)
		scale = math.Ldexp(1, exp)
	}
	r := NewDense(n, n)
	for i, lam := range e.Values {
		addOuter(r.data, e.Vectors.Row(i), lam/scale)
	}
	for i, x := range s.data {
		frob += (x / scale) * (x / scale)
		recon += (r.data[i] - x/scale) * (r.data[i] - x/scale)
	}
	g := Mul(e.Vectors, e.Vectors.T())
	for i := 0; i < n; i++ {
		g.data[i*n+i]--
	}
	return scale * math.Sqrt(frob), scale * math.Sqrt(recon), Frob(g)
}

// checkEig asserts the decomposition e of s is an eigendecomposition to
// within tol: reconstruction within tol·‖s‖_F, rows of Vectors
// orthonormal within tol (the error is scale-free), values in
// decreasing order and vectors finite.
func checkEig(t *testing.T, name string, s *Dense, e Eigen, tol float64) {
	t.Helper()
	for i := 1; i < len(e.Values); i++ {
		if e.Values[i] > e.Values[i-1] {
			t.Fatalf("%s: values not descending at %d: %v > %v", name, i, e.Values[i], e.Values[i-1])
		}
	}
	for _, x := range e.Vectors.data {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Fatalf("%s: non-finite eigenvector entry %v", name, x)
		}
	}
	frob, recon, orth := eigErrors(s, e)
	if !(recon <= tol*frob) {
		t.Fatalf("%s: reconstruction error %.3g > %.0e·‖A‖_F (‖A‖_F = %.3g)", name, recon, tol, frob)
	}
	if !(orth <= tol) {
		t.Fatalf("%s: orthonormality error %.3g > %.0e", name, orth, tol)
	}
}

// TestEigSymMatchesJacobiOracle compares EigSym with the cyclic Jacobi
// oracle on random symmetric matrices and on the structured inputs of
// eigCases: eigenvalues must agree within 1e-12·‖A‖_F, and the
// decomposition must reconstruct A and be orthonormal within 1e-12.
func TestEigSymMatchesJacobiOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	var cases []eigCase
	for _, n := range []int{1, 2, 16, 32, 40, 64} {
		cases = append(cases, eigCase{fmt.Sprintf("random n=%d", n), randSym(n, rng)})
	}
	cases = append(cases, eigCases(32, rng)...)
	const tol = 1e-12
	for _, c := range cases {
		got := EigSym(c.a)
		want := jacobiEigSym(c.a)
		checkEig(t, c.name, c.a, got, tol)
		frob, _, _ := eigErrors(c.a, got)
		var worst float64
		for i := range want.Values {
			worst = math.Max(worst, math.Abs(got.Values[i]-want.Values[i]))
		}
		if !(worst <= tol*frob) {
			t.Fatalf("%s: eigenvalues differ from the oracle by %.3g > %.0e·‖A‖_F (‖A‖_F = %.3g)", c.name, worst, tol, frob)
		}
	}
}

// encodeSym is the inverse of decodeSym for the fuzz corpus: one byte for
// n−1, then the lower triangle row by row as little-endian float64 bits.
func encodeSym(a *Dense) []byte {
	n := a.rows
	b := []byte{byte(n - 1)}
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(a.At(i, j)))
		}
	}
	return b
}

// decodeSym reads n ∈ [1, 24] from the first byte and the lower triangle
// of a symmetric n×n matrix from the float64 bits that follow; entries the
// input runs out before are zero. It returns nil for empty input.
func decodeSym(b []byte) *Dense {
	if len(b) == 0 {
		return nil
	}
	n := 1 + int(b[0])%24
	b = b[1:]
	a := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			if len(b) < 8 {
				return a
			}
			x := math.Float64frombits(binary.LittleEndian.Uint64(b))
			b = b[8:]
			a.Set(i, j, x)
			a.Set(j, i, x)
		}
	}
	return a
}

// FuzzEigSym feeds arbitrary symmetric matrices to EigSym and to the
// values-first EigSymValuesInto. Every input, NaN and ±Inf included, must
// return from both, and form a vector, without a panic or a hang (the QL
// iteration is bounded), and EigSym must return the same bits with the
// AVX2 kernels off (a NaN's sign and payload aside). On finite input the
// values-first eigenvalues must equal EigSym's bit for bit. Finite input
// with ‖A‖_F in
// [1e-100, 1e100] must decompose both ways: reconstruction within
// 1e-10·‖A‖_F, orthonormality within 1e-10 (so every vector has unit norm
// and distinct vectors are orthogonal within 1e-10), values in decreasing
// order.
func FuzzEigSym(f *testing.F) {
	rng := rand.New(rand.NewSource(47))
	for _, n := range []int{1, 2, 5} {
		f.Add(encodeSym(randSym(n, rng)))
	}
	for _, n := range []int{12, 24} {
		for _, c := range eigCases(n, rng) {
			f.Add(encodeSym(c.a))
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		a := decodeSym(b)
		if a == nil {
			return
		}
		e := EigSym(a)
		lazy := EigSymValuesInto(a, NewWorkspace())
		lazy.VectorInto(make([]float64, a.rows), 0)
		goLoops := withKernels(false, func() []float64 {
			g := EigSym(a)
			return slices.Concat(g.Values, g.Vectors.data)
		})
		for i, x := range slices.Concat(e.Values, e.Vectors.data) {
			if !sameBits(x, goLoops[i]) {
				t.Fatalf("EigSym output %d: %v, but %v with the kernels off", i, x, goLoops[i])
			}
		}
		for _, x := range a.data {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return
			}
		}
		for i, x := range lazy.Values {
			if math.Float64bits(x) != math.Float64bits(e.Values[i]) {
				t.Fatalf("values-first eigenvalue %d: %v != EigSym's %v", i, x, e.Values[i])
			}
		}
		if frob, _, _ := eigErrors(a, e); !(frob >= 1e-100 && frob <= 1e100) {
			return
		}
		checkEig(t, "fuzz", a, e, 1e-10)
		checkEig(t, "fuzz values-first", a, lazyVectors(lazy), 1e-10)
	})
}

// lazyVectors forms every vector of e on request, as the Eigen that
// EigSymInto would return.
func lazyVectors(e LazyEigen) Eigen {
	n := len(e.Values)
	vecs := NewDense(n, n)
	for i := 0; i < n; i++ {
		e.VectorInto(vecs.Row(i), i)
	}
	return Eigen{Values: e.Values, Vectors: vecs}
}

// TestEigSymValuesInto checks the values-first solver against EigSym on
// n = 1, 2 and 32, a diagonal matrix (every reflector skipped), repeated
// eigenvalues (I plus rank 1, off the diagonal) and a mixed-sign Gram
// difference like a DA1 report's D. The eigenvalues must equal EigSym's
// bit for bit. The vectors formed on request must decompose the input as
// tightly as TestEigSymMatchesJacobiOracle asks of EigSym, and each must
// lie within 1e-12 of EigSym's: it is the same orthogonal product with
// its factors grouped differently. One workspace, reused dirty across the
// sizes and by full solves in between, must give bit for bit what a fresh
// one gives.
func TestEigSymValuesInto(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	diagonal := NewDense(32, 32)
	for i := 0; i < 32; i++ {
		diagonal.Set(i, i, rng.NormFloat64())
	}
	v := randMat(1, 32, rng)
	repeated := Gram(v)
	for i := 0; i < 32; i++ {
		repeated.data[i*32+i]++
	}
	cases := []eigCase{
		{"random n=32", randSym(32, rng)},
		{"n=1", randSym(1, rng)},
		{"diagonal", diagonal},
		{"n=2", randSym(2, rng)},
		{"identity plus rank-1", repeated},
		{"gram difference", Sub(Gram(randMat(40, 32, rng)), Gram(randMat(40, 32, rng)))},
	}
	const tol = 1e-12
	dirty := NewWorkspace()
	for k, c := range cases {
		EigSymInto(cases[(k+1)%len(cases)].a, dirty)
		want := EigSym(c.a)
		fresh := lazyVectors(EigSymValuesInto(c.a, NewWorkspace()))
		got := lazyVectors(EigSymValuesInto(c.a, dirty))
		for i, x := range fresh.Values {
			if math.Float64bits(x) != math.Float64bits(want.Values[i]) {
				t.Fatalf("%s: eigenvalue %d: %v != EigSym's %v", c.name, i, x, want.Values[i])
			}
		}
		floatsEqual(t, c.name+": dirty-workspace values", got.Values, fresh.Values)
		denseEqual(t, c.name+": dirty-workspace vectors", got.Vectors, fresh.Vectors)
		checkEig(t, c.name, c.a, fresh, tol)
		for i := range fresh.Values {
			diff := append([]float64(nil), fresh.Vectors.Row(i)...)
			Axpy(-1, want.Vectors.Row(i), diff)
			if d := VecNorm(diff); !(d <= tol) {
				t.Fatalf("%s: vector %d is %.3g from EigSym's, want ≤ %.0e", c.name, i, d, tol)
			}
		}
	}
}
