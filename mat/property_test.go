package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// genMat draws a small random matrix with entries in [-10, 10].
func genMat(rng *rand.Rand, maxDim int) *Dense {
	r := 1 + rng.Intn(maxDim)
	c := 1 + rng.Intn(maxDim)
	m := NewDense(r, c)
	for i := range m.data {
		m.data[i] = (rng.Float64() - 0.5) * 20
	}
	return m
}

func quickCfg(seed int64) *quick.Config {
	return &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(seed))}
}

func TestPropTransposeMulIdentity(t *testing.T) {
	// Property: (A·B)ᵀ = Bᵀ·Aᵀ.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := genMat(rng, 6)
		b := NewDense(a.Cols(), 1+rng.Intn(6))
		for i := range b.data {
			b.data[i] = rng.NormFloat64()
		}
		l := Mul(a, b).T()
		r := Mul(b.T(), a.T())
		return l.EqualApprox(r, 1e-9)
	}
	if err := quick.Check(f, quickCfg(100)); err != nil {
		t.Fatal(err)
	}
}

func TestPropGramPSD(t *testing.T) {
	// Property: all eigenvalues of AᵀA are ≥ −tiny.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := genMat(rng, 7)
		e := EigSym(Gram(a))
		for _, v := range e.Values {
			if v < -1e-8*(1+FrobSq(a)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg(101)); err != nil {
		t.Fatal(err)
	}
}

func TestPropSVDReconstruct(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := genMat(rng, 8)
		s := ThinSVD(a)
		return s.Reconstruct().EqualApprox(a, 1e-7*(1+Frob(a)))
	}
	if err := quick.Check(f, quickCfg(102)); err != nil {
		t.Fatal(err)
	}
}

func TestPropSpectralNormBounds(t *testing.T) {
	// Property: ‖A‖₂ ≤ ‖A‖_F ≤ √rank·‖A‖₂ ≤ √min(n,d)·‖A‖₂.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := genMat(rng, 7)
		sn := SpectralNorm(a)
		fn := Frob(a)
		k := a.Rows()
		if a.Cols() < k {
			k = a.Cols()
		}
		return sn <= fn*(1+1e-9) && fn <= math.Sqrt(float64(k))*sn*(1+1e-6)+1e-12
	}
	if err := quick.Check(f, quickCfg(103)); err != nil {
		t.Fatal(err)
	}
}

func TestPropEigReconstructAndOrthonormal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(64)
		m := NewDense(n, n)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				v := (rng.Float64() - 0.5) * 10
				m.Set(i, j, v)
				m.Set(j, i, v)
			}
		}
		e := EigSym(m)
		return IsOrthonormalRows(e.Vectors, 1e-8) &&
			e.Reconstruct().EqualApprox(m, 1e-8*(1+Frob(m)))
	}
	if err := quick.Check(f, quickCfg(104)); err != nil {
		t.Fatal(err)
	}
}

func TestPropQRReconstruct(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := genMat(rng, 8)
		qr := HouseholderQR(a)
		return Mul(qr.Q, qr.R).EqualApprox(a, 1e-8*(1+Frob(a)))
	}
	if err := quick.Check(f, quickCfg(105)); err != nil {
		t.Fatal(err)
	}
}

func TestPropTriangleInequalitySpectral(t *testing.T) {
	// Property: ‖A+B‖₂ ≤ ‖A‖₂ + ‖B‖₂ for symmetric A, B — the inequality
	// the deterministic protocols' global error bound rests on.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		mk := func() *Dense {
			m := NewDense(n, n)
			for i := 0; i < n; i++ {
				for j := i; j < n; j++ {
					v := (rng.Float64() - 0.5) * 8
					m.Set(i, j, v)
					m.Set(j, i, v)
				}
			}
			return m
		}
		a, b := mk(), mk()
		return SymSpectralNorm(Add(a, b)) <= SymSpectralNorm(a)+SymSpectralNorm(b)+1e-7
	}
	if err := quick.Check(f, quickCfg(106)); err != nil {
		t.Fatal(err)
	}
}

func TestPropStackGramAdditive(t *testing.T) {
	// Property: [A;B]ᵀ[A;B] = AᵀA + BᵀB — why per-site sketches sum.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 1 + rng.Intn(5)
		a := NewDense(1+rng.Intn(5), d)
		b := NewDense(1+rng.Intn(5), d)
		for i := range a.data {
			a.data[i] = rng.NormFloat64()
		}
		for i := range b.data {
			b.data[i] = rng.NormFloat64()
		}
		return Gram(Stack(a, b)).EqualApprox(Add(Gram(a), Gram(b)), 1e-9)
	}
	if err := quick.Check(f, quickCfg(107)); err != nil {
		t.Fatal(err)
	}
}

func TestPropPSDSqrtRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := genMat(rng, 6)
		c := Gram(a)
		return Gram(PSDSqrt(c)).EqualApprox(c, 1e-7*(1+Frob(c)))
	}
	if err := quick.Check(f, quickCfg(108)); err != nil {
		t.Fatal(err)
	}
}
