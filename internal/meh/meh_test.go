package meh

import (
	"math"
	"math/rand"
	"testing"

	"distwindow/internal/fd"
	"distwindow/internal/stream"
	"distwindow/internal/window"
	"distwindow/mat"
)

func TestEmpty(t *testing.T) {
	h := New(100, 3, 0.1)
	if h.FrobSqEstimate() != 0 {
		t.Fatal("empty mEH should estimate 0 mass")
	}
	if h.SketchRows().Rows() != 0 {
		t.Fatal("empty mEH should have no sketch rows")
	}
	if mat.FrobSq(h.Gram()) != 0 {
		t.Fatal("empty mEH Gram should be zero")
	}
}

func TestSingleRowExact(t *testing.T) {
	h := New(100, 2, 0.1)
	h.Add(1, []float64{3, 4})
	if math.Abs(h.FrobSqEstimate()-25) > 1e-12 {
		t.Fatalf("FrobSqEstimate = %v, want 25", h.FrobSqEstimate())
	}
	g := h.Gram()
	if math.Abs(g.At(0, 0)-9) > 1e-9 || math.Abs(g.At(0, 1)-12) > 1e-9 {
		t.Fatalf("Gram wrong: %v", g)
	}
}

func TestZeroRowIgnored(t *testing.T) {
	h := New(100, 2, 0.1)
	h.Add(1, []float64{0, 0})
	if h.Buckets() != 0 {
		t.Fatal("zero row should not create a bucket")
	}
}

func TestFullExpiry(t *testing.T) {
	h := New(10, 2, 0.1)
	h.Add(1, []float64{1, 0})
	h.Add(2, []float64{0, 1})
	h.Advance(100)
	if h.Buckets() != 0 || h.FrobSqEstimate() != 0 {
		t.Fatal("everything should expire")
	}
}

func TestCovarianceErrorGuarantee(t *testing.T) {
	// The mEH sketch must stay within O(eps) covariance error of the true
	// window matrix as the window slides.
	const (
		d   = 8
		eps = 0.1
		w   = int64(500)
	)
	h := New(w, d, eps)
	truth := window.NewExact(w)
	rng := rand.New(rand.NewSource(1))
	for i := int64(1); i <= 3000; i++ {
		v := make([]float64, d)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		h.Add(i, v)
		truth.Add(stream.Row{T: i, V: v})
		if i%250 == 0 && truth.FrobSq() > 0 {
			err := truth.CovErr(d, h.SketchRows())
			// Constant factors: per-bucket FD error + straddling bucket.
			if err > 4*eps {
				t.Fatalf("t=%d: covariance error %v > %v", i, err, 4*eps)
			}
		}
	}
}

func TestFrobSqEstimateRelativeError(t *testing.T) {
	const eps = 0.1
	w := int64(400)
	h := New(w, 4, eps)
	truth := window.NewExact(w)
	rng := rand.New(rand.NewSource(2))
	for i := int64(1); i <= 2000; i++ {
		v := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		h.Add(i, v)
		truth.Add(stream.Row{T: i, V: v})
		if i%200 == 0 {
			got := h.FrobSqEstimate()
			want := truth.FrobSq()
			if math.Abs(got-want)/want > 2*eps {
				t.Fatalf("t=%d: F̂² = %v vs truth %v", i, got, want)
			}
		}
	}
}

func TestSkewedNorms(t *testing.T) {
	// Large R: occasional huge rows among tiny ones.
	const eps = 0.1
	w := int64(300)
	h := New(w, 3, eps)
	truth := window.NewExact(w)
	rng := rand.New(rand.NewSource(3))
	for i := int64(1); i <= 1500; i++ {
		scale := 0.1
		if rng.Intn(50) == 0 {
			scale = 30 // R ≈ 90000 in squared norm
		}
		v := []float64{scale * rng.NormFloat64(), scale * rng.NormFloat64(), scale * rng.NormFloat64()}
		if mat.VecNormSq(v) == 0 {
			continue
		}
		h.Add(i, v)
		truth.Add(stream.Row{T: i, V: v})
	}
	if truth.FrobSq() == 0 {
		t.Skip("degenerate draw")
	}
	err := truth.CovErr(3, h.SketchRows())
	if err > 6*eps {
		t.Fatalf("skewed covariance error %v > %v", err, 6*eps)
	}
}

func TestSpaceSublinear(t *testing.T) {
	h := New(1_000_000, 5, 0.2)
	for i := int64(1); i <= 20000; i++ {
		h.Add(i, []float64{1, 0, 0, 0, 0})
	}
	// Raw storage would be 20000 rows (100000 words); mEH must be far below.
	if h.SketchRows().Rows() > 4000 {
		t.Fatalf("sketch rows = %d, want sublinear", h.SketchRows().Rows())
	}
	if h.SpaceWords() > 30000 {
		t.Fatalf("space = %d words, want sublinear", h.SpaceWords())
	}
}

func TestRowsInReverseOrder(t *testing.T) {
	h := New(1000, 2, 0.5)
	h.Add(1, []float64{1, 0})
	h.Add(2, []float64{0, 1})
	h.Add(3, []float64{1, 1})
	var ts []int64
	h.RowsInReverse(func(tt int64, v []float64) { ts = append(ts, tt) })
	if len(ts) == 0 {
		t.Fatal("no rows replayed")
	}
	for i := 1; i < len(ts); i++ {
		if ts[i] > ts[i-1] {
			t.Fatalf("timestamps not non-increasing: %v", ts)
		}
	}
}

func TestGramMatchesSketchRows(t *testing.T) {
	h := New(1000, 3, 0.2)
	rng := rand.New(rand.NewSource(4))
	for i := int64(1); i <= 200; i++ {
		h.Add(i, []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()})
	}
	if !h.Gram().EqualApprox(mat.Gram(h.SketchRows()), 1e-9) {
		t.Fatal("Gram should equal Gram(SketchRows)")
	}
}

func TestNewValidation(t *testing.T) {
	cases := []func(){
		func() { New(0, 3, 0.1) },
		func() { New(10, 0, 0.1) },
		func() { New(10, 3, 0) },
		func() { New(10, 3, 1) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

// TestGramIntoAllocFree pins GramInto, which every DA1 report runs, at zero
// allocations on a histogram holding many FD buckets. A per-bucket
// allocation shows as at least one allocation per bucket per call, which
// AllocsPerRun's truncation to an integer cannot hide.
func TestGramIntoAllocFree(t *testing.T) {
	const d = 16
	h := New(2000, d, 0.1)
	rng := rand.New(rand.NewSource(7))
	for i := int64(1); i <= 6000; i++ {
		v := make([]float64, d)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		h.Add(i, v)
	}
	fdBuckets := 0
	for i := range h.buckets {
		if !h.buckets[i].single() {
			fdBuckets++
		}
	}
	if fdBuckets < 4 {
		t.Fatalf("only %d FD buckets; the test needs several", fdBuckets)
	}
	dst := mat.NewDense(d, d)
	if n := testing.AllocsPerRun(50, func() { h.GramInto(dst) }); n != 0 {
		t.Fatalf("GramInto: %v allocs per call over %d FD buckets, want 0", n, fdBuckets)
	}
}

// TestRecycledStorageBitIdentical pins the private freelists' reuse
// contract: a recycled row or sketch is fully overwritten before it is
// read, so a histogram that draws dirty recycled storage builds exactly
// the sketch a fresh one does. The pre-seeded storage is filled with NaN,
// so any stale value leaking into a bucket breaks the equality.
func TestRecycledStorageBitIdentical(t *testing.T) {
	const (
		d   = 4
		w   = int64(64)
		eps = 0.3
	)
	feed := func(h *Histogram) {
		rng := rand.New(rand.NewSource(42))
		v := make([]float64, d)
		for i := int64(0); i < 3*w; i++ {
			for j := range v {
				v[j] = rng.NormFloat64()
			}
			h.Add(i, v)
		}
	}
	nan := make([]float64, d)
	for j := range nan {
		nan[j] = math.NaN()
	}
	dirty := New(w, d, eps)
	for i := 0; i < maxFreeRows; i++ {
		dirty.putRow(append([]float64(nil), nan...))
	}
	for i := 0; i < maxFreeSketches; i++ {
		sk := fd.New(dirty.ell, d)
		for k := 0; k < 2*dirty.ell; k++ {
			sk.Update(nan)
		}
		dirty.putSketch(sk)
	}
	feed(dirty)
	if len(dirty.freeRow) == maxFreeRows || len(dirty.freeSk) == maxFreeSketches {
		t.Fatalf("feed drew no recycled storage (rows %d, sketches %d free)", len(dirty.freeRow), len(dirty.freeSk))
	}
	plain := New(w, d, eps)
	feed(plain)
	if !dirty.SketchRows().Equal(plain.SketchRows()) {
		t.Fatal("sketch built on recycled storage differs from a fresh histogram's")
	}
	if dirty.FrobSqEstimate() != plain.FrobSqEstimate() {
		t.Fatalf("FrobSqEstimate %v on recycled storage, %v fresh", dirty.FrobSqEstimate(), plain.FrobSqEstimate())
	}
}
