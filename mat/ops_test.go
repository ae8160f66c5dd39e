package mat

import (
	"math"
	"math/rand"
	"testing"
)

func randMat(r, c int, rng *rand.Rand) *Dense {
	m := NewDense(r, c)
	for i := range m.data {
		m.data[i] = rng.NormFloat64()
	}
	return m
}

func TestAddSub(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{10, 20}, {30, 40}})
	sum := Add(a, b)
	if sum.At(1, 1) != 44 {
		t.Fatalf("Add wrong: %v", sum)
	}
	diff := Sub(b, a)
	if diff.At(0, 0) != 9 {
		t.Fatalf("Sub wrong: %v", diff)
	}
}

func TestSubIntoInPlace(t *testing.T) {
	a := FromRows([][]float64{{1, 2}})
	b := FromRows([][]float64{{3, 4}})
	SubInto(a, a, b)
	if a.At(0, 1) != -2 {
		t.Fatalf("SubInto into a wrong: %v", a)
	}
	SubInto(b, a, b)
	if b.At(0, 1) != -6 {
		t.Fatalf("SubInto into b wrong: %v", b)
	}
}

func TestAddDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Add(NewDense(1, 2), NewDense(2, 1))
}

func TestScale(t *testing.T) {
	a := FromRows([][]float64{{1, -2}})
	s := Scale(3, a)
	if s.At(0, 1) != -6 {
		t.Fatalf("Scale wrong: %v", s)
	}
	ScaleInPlace(a, 0)
	if FrobSq(a) != 0 {
		t.Fatal("ScaleInPlace(0) should zero the matrix")
	}
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randMat(4, 4, rng)
	if !Mul(a, Identity(4)).EqualApprox(a, 1e-12) {
		t.Fatal("A·I should equal A")
	}
	if !Mul(Identity(4), a).EqualApprox(a, 1e-12) {
		t.Fatal("I·A should equal A")
	}
}

func TestMulKnown(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	got := Mul(a, b)
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	if !got.EqualApprox(want, 1e-12) {
		t.Fatalf("Mul = %v, want %v", got, want)
	}
}

func TestMulAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a, b, c := randMat(3, 5, rng), randMat(5, 4, rng), randMat(4, 2, rng)
	l := Mul(Mul(a, b), c)
	r := Mul(a, Mul(b, c))
	if !l.EqualApprox(r, 1e-10) {
		t.Fatal("(AB)C should equal A(BC)")
	}
}

func TestMulInnerMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Mul(NewDense(2, 3), NewDense(2, 3))
}

func TestMulVecAgainstMul(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randMat(4, 6, rng)
	x := make([]float64, 6)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	got := MulVec(a, x)
	want := Mul(a, NewDenseData(6, 1, x))
	for i := range got {
		if math.Abs(got[i]-want.At(i, 0)) > 1e-12 {
			t.Fatalf("MulVec[%d] = %v, want %v", i, got[i], want.At(i, 0))
		}
	}
}

func TestMulTVecAgainstTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randMat(5, 3, rng)
	x := make([]float64, 5)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	got := MulTVec(a, x)
	want := MulVec(a.T(), x)
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("MulTVec[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestGramMatchesExplicit(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randMat(7, 4, rng)
	g := Gram(a)
	want := Mul(a.T(), a)
	if !g.EqualApprox(want, 1e-10) {
		t.Fatal("Gram should equal AᵀA")
	}
}

func TestGramSymmetricPSD(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randMat(10, 5, rng)
	g := Gram(a)
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			if math.Abs(g.At(i, j)-g.At(j, i)) > 1e-12 {
				t.Fatal("Gram should be symmetric")
			}
		}
		if g.At(i, i) < 0 {
			t.Fatal("Gram diagonal should be nonnegative")
		}
	}
}

func TestGramAddScale(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randMat(4, 3, rng)
	dst := NewDense(3, 3)
	GramAdd(dst, a, -2)
	want := Scale(-2, Gram(a))
	if !dst.EqualApprox(want, 1e-10) {
		t.Fatal("GramAdd with scale -2 should equal -2·AᵀA")
	}
}

func TestOuterAdd(t *testing.T) {
	v := []float64{1, 2, 3}
	dst := NewDense(3, 3)
	OuterAdd(dst, v, 2)
	if dst.At(1, 2) != 12 { // 2·2·3
		t.Fatalf("OuterAdd wrong: %v", dst)
	}
	if dst.At(2, 1) != dst.At(1, 2) {
		t.Fatal("OuterAdd result should be symmetric")
	}
}

func TestDotAxpy(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, 5, 6}
	if Dot(x, y) != 32 {
		t.Fatalf("Dot = %v, want 32", Dot(x, y))
	}
	Axpy(2, x, y)
	if y[2] != 12 {
		t.Fatalf("Axpy wrong: %v", y)
	}
}

func TestDotLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestScaleVec(t *testing.T) {
	x := []float64{1, -2}
	ScaleVec(-3, x)
	if x[0] != -3 || x[1] != 6 {
		t.Fatalf("ScaleVec wrong: %v", x)
	}
}

func TestTraceMatchesSumOfGramDiagonal(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randMat(6, 4, rng)
	if math.Abs(Trace(Gram(a))-FrobSq(a)) > 1e-10 {
		t.Fatal("trace(AᵀA) should equal ‖A‖_F²")
	}
}
