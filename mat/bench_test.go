package mat

import (
	"math/rand"
	"testing"
)

func benchMat(n, d int, seed int64) *Dense {
	rng := rand.New(rand.NewSource(seed))
	m := NewDense(n, d)
	for i := range m.data {
		m.data[i] = rng.NormFloat64()
	}
	return m
}

func BenchmarkMul128(b *testing.B) {
	x := benchMat(128, 128, 1)
	y := benchMat(128, 128, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Mul(x, y)
	}
}

func BenchmarkGram64x512(b *testing.B) {
	a := benchMat(64, 512, 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Gram(a)
	}
}

func BenchmarkThinSVDWide32x512(b *testing.B) {
	a := benchMat(32, 512, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ThinSVD(a)
	}
}

func BenchmarkThinSVDTall512x32(b *testing.B) {
	a := benchMat(512, 32, 5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ThinSVD(a)
	}
}

func BenchmarkEigSym64(b *testing.B) {
	s := Gram(benchMat(128, 64, 6))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		EigSym(s)
	}
}

func BenchmarkSymSpectralNorm256(b *testing.B) {
	s := Gram(benchMat(64, 256, 7))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SymSpectralNorm(s)
	}
}

func BenchmarkHouseholderQR128(b *testing.B) {
	a := benchMat(128, 64, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		HouseholderQR(a)
	}
}

func BenchmarkPSDSqrt64(b *testing.B) {
	c := Gram(benchMat(128, 64, 9))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		PSDSqrt(c)
	}
}

// BenchmarkEigSymInto32 decomposes a 32×32 symmetric matrix on a warm
// workspace: the shape of every query factorization at the benchmark's
// d = 32.
func BenchmarkEigSymInto32(b *testing.B) {
	s := Gram(benchMat(64, 32, 10))
	ws := NewWorkspace()
	EigSymInto(s, ws)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EigSymInto(s, ws)
	}
}

// BenchmarkEigSymValues32 is a DA1 or Decay report's decomposition at
// d = 32 on the matrix BenchmarkEigSymInto32 decomposes: every eigenvalue,
// then the two vectors a report typically ships.
func BenchmarkEigSymValues32(b *testing.B) {
	s := Gram(benchMat(64, 32, 10))
	ws := NewWorkspace()
	v := make([]float64, 32)
	EigSymValuesInto(s, ws)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := EigSymValuesInto(s, ws)
		e.VectorInto(v, 0)
		e.VectorInto(v, 1)
	}
}

// BenchmarkThinSVDNoU40x32 is one FD shrink at ε = 0.05 (a 2ℓ×d = 40×32
// buffer, here of rank 8) on a warm workspace.
func BenchmarkThinSVDNoU40x32(b *testing.B) {
	a := Mul(benchMat(40, 8, 11), benchMat(8, 32, 12))
	ws := NewWorkspace()
	ThinSVDNoU(a, ws)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ThinSVDNoU(a, ws)
	}
}

// BenchmarkMulVecInto32 is one step of DA1's power test at d = 32: the
// dense 32×32 D times a vector.
func BenchmarkMulVecInto32(b *testing.B) {
	a := benchMat(32, 32, 13)
	x := benchMat(1, 32, 14).Row(0)
	y := make([]float64, 32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MulVecInto(y, a, x)
	}
}

// BenchmarkOuterAdd32 is the mEH's rank-1 window-Gram update at d = 32.
func BenchmarkOuterAdd32(b *testing.B) {
	g := NewDense(32, 32)
	v := benchMat(1, 32, 15).Row(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		OuterAdd(g, v, 1e-9)
	}
}
