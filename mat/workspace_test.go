package mat

import (
	"math/rand"
	"testing"
)

// wsRandDense returns an r×c matrix with standard normal entries.
func wsRandDense(rng *rand.Rand, r, c int) *Dense {
	m := NewDense(r, c)
	for i := range m.data {
		m.data[i] = rng.NormFloat64()
	}
	return m
}

// wsRandSym returns a random symmetric n×n matrix.
func wsRandSym(rng *rand.Rand, n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64()
			m.data[i*n+j] = v
			m.data[j*n+i] = v
		}
	}
	return m
}

func floatsEqual(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s[%d]: %v != %v (not bit-for-bit)", name, i, got[i], want[i])
		}
	}
}

func denseEqual(t *testing.T, name string, got, want *Dense) {
	t.Helper()
	if got.rows != want.rows || got.cols != want.cols {
		t.Fatalf("%s: shape %dx%d != %dx%d", name, got.rows, got.cols, want.rows, want.cols)
	}
	floatsEqual(t, name, got.data, want.data)
}

// TestEigSymIntoDirtyReuseBitForBit cycles matrices of varying sizes
// through ONE workspace — each call leaves the buffers dirty (and sized
// for a different n) for the next — and checks every result is bit-for-bit
// identical to a fresh EigSym.
func TestEigSymIntoDirtyReuseBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	ws := NewWorkspace()
	for _, n := range []int{1, 3, 8, 2, 8, 5, 1, 6, 8, 32, 64, 32} {
		s := wsRandSym(rng, n)
		want := EigSym(s)
		got := EigSymInto(s, ws)
		floatsEqual(t, "Values", got.Values, want.Values)
		denseEqual(t, "Vectors", got.Vectors, want.Vectors)
	}
}

// TestThinSVDIntoDirtyReuseBitForBit does the same for ThinSVDInto across
// both Gram routes (n ≤ d and n > d), including shape flips that leave
// every buffer stale-sized.
func TestThinSVDIntoDirtyReuseBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ws := NewWorkspace()
	shapes := [][2]int{{3, 5}, {5, 3}, {8, 8}, {2, 7}, {7, 2}, {1, 4}, {6, 3}, {3, 6}}
	for _, sh := range shapes {
		a := wsRandDense(rng, sh[0], sh[1])
		want := ThinSVD(a)
		got := ThinSVDInto(a, ws)
		floatsEqual(t, "S", got.S, want.S)
		denseEqual(t, "Vt", got.Vt, want.Vt)
		denseEqual(t, "U", got.U, want.U)
	}
}

// TestThinSVDNoUMatchesThinSVD checks S and Vt agree bit-for-bit with the
// full decomposition, and that U is skipped exactly when n > d.
func TestThinSVDNoUMatchesThinSVD(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	ws := NewWorkspace()
	for _, sh := range [][2]int{{4, 7}, {7, 4}, {5, 5}, {12, 3}} {
		a := wsRandDense(rng, sh[0], sh[1])
		want := ThinSVD(a)
		got := ThinSVDNoU(a, ws)
		floatsEqual(t, "S", got.S, want.S)
		denseEqual(t, "Vt", got.Vt, want.Vt)
		if sh[0] > sh[1] {
			if got.U != nil {
				t.Fatalf("shape %v: ThinSVDNoU returned U for n > d", sh)
			}
		} else {
			denseEqual(t, "U", got.U, want.U)
		}
	}
}

// TestOpSymNormWarmWSDirtyReuseBitForBit runs the warm-started power
// iteration with a fresh and a dirty workspace from identical start
// vectors and demands identical results.
func TestOpSymNormWarmWSDirtyReuseBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	ws := NewWorkspace()
	// Dirty the workspace with unrelated decompositions first.
	EigSymInto(wsRandSym(rng, 7), ws)
	ThinSVDInto(wsRandDense(rng, 9, 4), ws)
	for _, n := range []int{2, 5, 9} {
		s := wsRandSym(rng, n)
		apply := func(x, y []float64) { symMulVec(s, x, y) }
		v1 := make([]float64, n)
		v2 := make([]float64, n)
		seedVec(v1)
		copy(v2, v1)
		want := OpSymNormWarm(n, v1, 6, apply)
		got := OpSymNormWarmWS(n, v2, 6, apply, ws)
		if got != want {
			t.Fatalf("n=%d: norm %v != %v (not bit-for-bit)", n, got, want)
		}
		floatsEqual(t, "warm vector", v2, v1)
	}
}

// TestWorkspaceSteadyStateAllocFree pins the Into entry points at zero
// allocations per call once buffer sizes have stabilized.
func TestWorkspaceSteadyStateAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	ws := NewWorkspace()
	sym := wsRandSym(rng, 12)
	wide := wsRandDense(rng, 6, 12)  // n ≤ d Gram route
	tall := wsRandDense(rng, 24, 12) // n > d Gram route
	sym32 := wsRandSym(rng, 32)
	shrink := wsRandDense(rng, 40, 32) // FD's 2ℓ×d buffer at ε = 0.05
	v := make([]float64, 12)
	apply := func(x, y []float64) { symMulVec(sym, x, y) }
	// Warm up so every buffer reaches its final size.
	EigSymInto(sym, ws)
	ThinSVDInto(wide, ws)
	ThinSVDNoU(tall, ws)
	OpSymNormWarmWS(12, v, 4, apply, ws)
	EigSymInto(sym32, ws)
	ThinSVDNoU(shrink, ws)
	dst := make([]float64, 32)
	lazy32 := func() {
		e := EigSymValuesInto(sym32, ws)
		e.VectorInto(dst, 0)
		e.VectorInto(dst, 31)
	}
	lazy32()

	cases := []struct {
		name string
		fn   func()
	}{
		{"EigSymInto", func() { EigSymInto(sym, ws) }},
		{"ThinSVDInto", func() { ThinSVDInto(wide, ws) }},
		{"ThinSVDNoU", func() { ThinSVDNoU(tall, ws) }},
		{"OpSymNormWarmWS", func() { OpSymNormWarmWS(12, v, 4, apply, ws) }},
		{"EigSymInto n=32", func() { EigSymInto(sym32, ws) }},
		{"ThinSVDNoU 40x32", func() { ThinSVDNoU(shrink, ws) }},
		{"EigSymValuesInto n=32, two vectors", lazy32},
	}
	for _, c := range cases {
		if n := testing.AllocsPerRun(50, c.fn); n != 0 {
			t.Errorf("%s: %v allocs/op at steady state, want 0", c.name, n)
		}
	}
}
