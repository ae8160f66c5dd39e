package eh

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// exactWindowSum replays items and returns the true sum in (now−w, now].
func exactWindowSum(items [][2]float64, now, w int64) float64 {
	var s float64
	for _, it := range items {
		t := int64(it[0])
		if t > now-w && t <= now {
			s += it[1]
		}
	}
	return s
}

func TestSingleItem(t *testing.T) {
	h := New(10, 0.1)
	h.Insert(5, 3.5)
	if got := h.Query(); got != 3.5 {
		t.Fatalf("Query = %v, want 3.5", got)
	}
}

func TestExpiry(t *testing.T) {
	h := New(10, 0.1)
	h.Insert(1, 2)
	h.Insert(5, 3)
	h.Advance(20)
	if got := h.Query(); got != 0 {
		t.Fatalf("Query after full expiry = %v, want 0", got)
	}
	if h.Buckets() != 0 {
		t.Fatalf("Buckets = %d, want 0", h.Buckets())
	}
}

func TestBoundarySemantics(t *testing.T) {
	h := New(10, 0.1)
	h.Insert(0, 1)
	h.Insert(1, 1)
	h.Advance(10) // t=0 is exactly now−w → expired; t=1 lives
	got := h.Query()
	if got != 1 {
		t.Fatalf("Query = %v, want 1", got)
	}
}

func TestRelativeErrorUniform(t *testing.T) {
	eps := 0.1
	w := int64(1000)
	h := New(w, eps)
	rng := rand.New(rand.NewSource(1))
	var items [][2]float64
	for i := int64(1); i <= 5000; i++ {
		wt := 0.5 + rng.Float64()
		h.Insert(i, wt)
		items = append(items, [2]float64{float64(i), wt})
		if i%500 == 0 {
			truth := exactWindowSum(items, i, w)
			got := h.Query()
			if rel := math.Abs(got-truth) / truth; rel > 2*eps {
				t.Fatalf("t=%d: estimate %v vs truth %v, rel err %v > %v", i, got, truth, rel, 2*eps)
			}
		}
	}
}

func TestRelativeErrorSkewedWeights(t *testing.T) {
	eps := 0.05
	w := int64(2000)
	h := New(w, eps)
	rng := rand.New(rand.NewSource(2))
	var items [][2]float64
	for i := int64(1); i <= 8000; i++ {
		wt := math.Exp(rng.NormFloat64() * 2) // log-normal, ratio ≫ 100
		h.Insert(i, wt)
		items = append(items, [2]float64{float64(i), wt})
		if i%1000 == 0 {
			truth := exactWindowSum(items, i, w)
			got := h.Query()
			if rel := math.Abs(got-truth) / truth; rel > 2*eps {
				t.Fatalf("t=%d: rel err %v > %v", i, rel, 2*eps)
			}
		}
	}
}

func TestQueryAfterAdvanceOnly(t *testing.T) {
	h := New(100, 0.1)
	for i := int64(1); i <= 50; i++ {
		h.Insert(i, 1)
	}
	h.Advance(120) // rows at t ≤ 20 expire
	got := h.Query()
	truth := 30.0
	if math.Abs(got-truth)/truth > 0.25 {
		t.Fatalf("Query = %v, want ≈%v", got, truth)
	}
}

func TestSpaceLogarithmic(t *testing.T) {
	eps := 0.1
	h := New(1_000_000, eps)
	for i := int64(1); i <= 20000; i++ {
		h.Insert(i, 1)
	}
	// Suffix rule: ≤ 2·log_{1+ε/2}(N) + slack ≈ 2·203 + 32 for ε=0.1.
	if h.Buckets() > 600 {
		t.Fatalf("Buckets = %d, want logarithmic (≤600)", h.Buckets())
	}
}

func TestExactUpperBound(t *testing.T) {
	h := New(100, 0.2)
	for i := int64(1); i <= 500; i++ {
		h.Insert(i, 1)
	}
	if h.Exact() < h.Query() {
		t.Fatal("Exact should upper-bound Query")
	}
}

func TestInsertNonPositivePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(10, 0.1).Insert(1, 0)
}

func TestNewInvalidEps(t *testing.T) {
	for _, eps := range []float64{0, 1, -0.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for eps=%v", eps)
				}
			}()
			New(10, eps)
		}()
	}
}

func TestNewInvalidWindow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0, 0.1)
}

func TestPropRelativeError(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		eps := 0.1
		w := int64(200 + rng.Intn(800))
		h := New(w, eps)
		var items [][2]float64
		now := int64(0)
		for i := 0; i < 2000; i++ {
			now += int64(1 + rng.Intn(3))
			wt := 0.1 + rng.Float64()*10
			h.Insert(now, wt)
			items = append(items, [2]float64{float64(now), wt})
		}
		truth := exactWindowSum(items, now, w)
		got := h.Query()
		if truth == 0 {
			return got == 0
		}
		return math.Abs(got-truth)/truth <= 2*eps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Fatal(err)
	}
}

// TestSteadyStateAllocFree pins Insert and Advance at zero allocations
// once the bucket list has reached its steady length: compaction builds
// its output in a reused buffer, and expiry copies the survivors down so
// the list keeps its capacity. The stream has skewed weights and idle
// gaps; one measured run of 10,000 inserts keeps the count exact.
func TestSteadyStateAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	weights := make([]float64, 257)
	for i := range weights {
		weights[i] = 0.01 + rng.ExpFloat64()*100
	}
	h := New(1000, 0.1)
	now, i := int64(0), 0
	feed := func() {
		i++
		now++
		if i%500 == 0 {
			now += 300
			h.Advance(now)
		}
		h.Insert(now, weights[i%len(weights)])
	}
	for k := 0; k < 20_000; k++ {
		feed()
	}
	if n := testing.AllocsPerRun(1, func() {
		for k := 0; k < 10_000; k++ {
			feed()
		}
	}); n != 0 {
		t.Errorf("%v allocations over 10,000 steady-state inserts, want 0", n)
	}
}
