package mat

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// sameBits reports whether x and y have the same bits, or are both NaN:
// the kernels may differ from the Go loops only in a NaN's sign and
// payload.
func sameBits(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || (math.IsNaN(x) && math.IsNaN(y))
}

// withKernels returns f's result computed with the AVX2 kernels (on) or
// the Go loops (off), and restores the selector.
func withKernels(on bool, f func() []float64) []float64 {
	defer func(old bool) { useAVX2 = old }(useAVX2)
	useAVX2 = on
	return f()
}

// skipWithoutAVX2 skips a test of the AVX2 side on a CPU that cannot run
// it, logging why.
func skipWithoutAVX2(t testing.TB) {
	t.Helper()
	if !haveAVX2() {
		t.Skip("AVX2 kernels not testable: not amd64, or CPUID/XGETBV report no AVX2 or no YMM state")
	}
}

// kernelSpecials are the values a kernel must treat exactly as its Go
// loop does: signed zeros, subnormals, the ends of the normal range,
// overflowing magnitudes, infinities and NaN.
var kernelSpecials = []float64{
	0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	1e-310, -3e-320, 1e-300, -1e-300,
	1e300, -1e300, math.MaxFloat64, -math.MaxFloat64,
	math.Inf(1), math.Inf(-1), math.NaN(), 1, -1,
}

// kernelCase runs every assembly kernel and its Go loop on the same
// inputs, n elements per row, each slice starting off elements into its
// backing array, and returns the first result whose bits differ.
func kernelCase(n, off int, draw func() float64) error {
	vec := func(k int) []float64 {
		b := make([]float64, off+k)
		for i := off; i < len(b); i++ {
			b[i] = draw()
		}
		return b[off:]
	}
	var err error
	check := func(name string, got, want []float64) {
		if err != nil {
			return
		}
		for i := range want {
			if !sameBits(got[i], want[i]) {
				err = fmt.Errorf("%s n=%d off=%d: element %d is %v (%#x), the Go loop's %v (%#x)",
					name, n, off, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
				return
			}
		}
	}
	// Kernels over rows run on m rows, a block of four and a remainder,
	// spaced stride apart.
	const m = 6
	stride := n + 3
	x := vec(n)
	a := vec((m-1)*stride + n)

	got, want := make([]float64, m), make([]float64, m)
	dotRowsAVX2(got, x, a, stride)
	dotRowsGo(want, x, a, stride)
	check("dotRows", got, want)

	alpha, y := draw(), vec(n)
	gotY, wantY := slices.Clone(y), slices.Clone(y)
	axpyAVX2(alpha, x, gotY)
	axpyGo(alpha, x, wantY)
	check("axpy", gotY, wantY)

	u, rows := vec(m), vec(m*n)
	u[1], u[4] = 0, math.Copysign(0, -1)
	gotY, wantY = slices.Clone(y), slices.Clone(y)
	axpyRowsAVX2(gotY, rows, u, alpha)
	axpyRowsGo(wantY, rows, u, alpha)
	check("axpyRows", gotY, wantY)

	dst := vec(n * n)
	gotD, wantD := slices.Clone(dst), slices.Clone(dst)
	addOuterAVX2(gotD, x, alpha)
	addOuterGo(wantD, x, alpha)
	check("addOuter", gotD, wantD)

	g := vec(m)
	gotA, wantA := slices.Clone(a), slices.Clone(a)
	subRowsAVX2(gotA, stride, g, x)
	subRowsGo(wantA, stride, g, x)
	check("subRows", gotA, wantA)

	p, q := vec(n), vec(n)
	c, s := draw(), draw()
	gotP, gotQ, wantP, wantQ := slices.Clone(p), slices.Clone(q), slices.Clone(p), slices.Clone(q)
	rotateRowsAVX2(gotP, gotQ, c, s)
	rotateRowsGo(wantP, wantQ, c, s)
	check("rotateRows p", gotP, wantP)
	check("rotateRows q", gotQ, wantQ)

	if n > 0 {
		sq := vec((n-1)*stride + n)
		gotA, wantA = slices.Clone(sq), slices.Clone(sq)
		rank2AVX2(gotA, stride, p, q)
		rank2Go(wantA, stride, p, q)
		check("rank2", gotA, wantA)
	}

	gotY, wantY = make([]float64, n), make([]float64, n)
	subAVX2(gotY, x, y)
	subGo(wantY, x, y)
	check("sub", gotY, wantY)
	gotY, wantY = slices.Clone(x), slices.Clone(x)
	subAVX2(gotY, gotY, y)
	subGo(wantY, wantY, y)
	check("sub in place", gotY, wantY)
	return err
}

// TestKernelsMatchGoLoops compares every assembly kernel with its Go loop
// bit for bit at lengths 0–67, so that every tail length is covered, at
// start offsets 0–3, on standard normal values, on magnitudes from
// 1e-300 to 1e300 with subnormals, and on normal values sprinkled with
// kernelSpecials.
func TestKernelsMatchGoLoops(t *testing.T) {
	skipWithoutAVX2(t)
	rng := rand.New(rand.NewSource(50))
	draws := []func() float64{
		rng.NormFloat64,
		func() float64 {
			x := math.Pow(10, -300+600*rng.Float64()) * (1 + rng.Float64())
			if rng.Intn(8) == 0 {
				x = math.Float64frombits(rng.Uint64() & (1<<52 - 1)) // subnormal
			}
			if rng.Intn(2) == 0 {
				x = -x
			}
			return x
		},
		func() float64 {
			if rng.Intn(10) == 0 {
				return kernelSpecials[rng.Intn(len(kernelSpecials))]
			}
			return rng.NormFloat64()
		},
	}
	for n := 0; n <= 67; n++ {
		for off := 0; off <= 3; off++ {
			for _, draw := range draws {
				if err := kernelCase(n, off, draw); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// FuzzKernels compares every assembly kernel with its Go loop on inputs
// decoded from bytes: the first two pick the length (0–67) and the start
// offset (0–3); each value after that is either one of kernelSpecials,
// picked by one byte, or eight bytes read as float64 bits. Once the input
// runs out, values come from a generator seeded by it.
func FuzzKernels(f *testing.F) {
	f.Add([]byte{5, 1, 0, 1, 14, 15})
	f.Add([]byte{33, 3, 200, 0, 0, 0, 0, 0, 0, 0xf0, 0x7f, 9})
	f.Add([]byte{67, 2, 2, 3, 4, 5, 6, 7})
	f.Fuzz(func(t *testing.T, b []byte) {
		skipWithoutAVX2(t)
		if len(b) < 2 {
			return
		}
		n, off := int(b[0])%68, int(b[1])%4
		b = b[2:]
		var seed int64
		for _, c := range b {
			seed = seed*31 + int64(c)
		}
		rng := rand.New(rand.NewSource(seed))
		draw := func() float64 {
			switch {
			case len(b) == 0:
				return rng.NormFloat64()
			case b[0] < 128:
				k := int(b[0]) % len(kernelSpecials)
				b = b[1:]
				return kernelSpecials[k]
			case len(b) >= 9:
				x := math.Float64frombits(binary.LittleEndian.Uint64(b[1:9]))
				b = b[9:]
				return x
			default:
				x := float64(b[0]) - 192
				b = b[1:]
				return x
			}
		}
		if err := kernelCase(n, off, draw); err != nil {
			t.Fatal(err)
		}
	})
}

// TestKernelsKeepSolverBits runs the solvers and the Gram updates with the
// AVX2 kernels and with the Go loops and requires equal bits from both:
// EigSymInto, EigSymValuesInto with every VectorInto, and PSDSqrt on
// eigCases, random and Gram-difference inputs at n = 1–64; ThinSVDNoU on
// n×32 inputs, n = 1–40; MulVecInto, OuterAdd and OpSymNormWarmWS.
func TestKernelsKeepSolverBits(t *testing.T) {
	skipWithoutAVX2(t)
	rng := rand.New(rand.NewSource(51))
	same := func(name string, f func() []float64) {
		t.Helper()
		on, off := withKernels(true, f), withKernels(false, f)
		if len(on) != len(off) {
			t.Fatalf("%s: %d outputs with the kernels, %d without", name, len(on), len(off))
		}
		for i := range on {
			if !sameBits(on[i], off[i]) {
				t.Fatalf("%s: output %d is %v with the kernels, %v without", name, i, on[i], off[i])
			}
		}
	}
	ws := NewWorkspace()
	for n := 1; n <= 64; n++ {
		cases := append(eigCases(n, rng), eigCase{"random", randSym(n, rng)})
		for _, c := range cases {
			same(fmt.Sprintf("n=%d %s", n, c.name), func() []float64 {
				e := EigSymInto(c.a, ws)
				out := slices.Concat(e.Values, e.Vectors.data)
				lazy := EigSymValuesInto(c.a, ws)
				out = append(out, lazy.Values...)
				v := make([]float64, n)
				for i := range lazy.Values {
					lazy.VectorInto(v, i)
					out = append(out, v...)
				}
				return append(out, PSDSqrt(c.a).data...)
			})
		}
	}
	for n := 1; n <= 40; n++ {
		a := randMat(n, 32, rng)
		if n%3 == 0 {
			a = Mul(randMat(n, n/3, rng), randMat(n/3, 32, rng)) // rank-deficient: zero rows in Vt
		}
		same(fmt.Sprintf("ThinSVDNoU %d×32", n), func() []float64 {
			svd := ThinSVDNoU(a, ws)
			return slices.Concat(svd.S, svd.Vt.data)
		})
	}
	a := randMat(32, 32, rng)
	d := Sub(Gram(randMat(40, 32, rng)), Gram(randMat(40, 32, rng)))
	x := randMat(1, 32, rng).data
	same("MulVecInto, OuterAdd, OpSymNormWarmWS", func() []float64 {
		y := make([]float64, 32)
		MulVecInto(y, a, x)
		g := NewDense(32, 32)
		OuterAdd(g, x, 0.75)
		v := slices.Clone(x)
		norm := OpSymNormWarmWS(32, v, 8, func(x, y []float64) { MulVecInto(y, d, x) }, ws)
		return slices.Concat(y, g.data, v, []float64{norm})
	})
}
