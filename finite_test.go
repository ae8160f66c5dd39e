package distwindow

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// finiteRows is a seeded two-site stream of d=3 finite rows.
func finiteRows(n int) []Row {
	rng := rand.New(rand.NewSource(11))
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{T: int64(i + 1), V: []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}}
	}
	return rows
}

// gramOf returns the tracker's raw coordinator estimate, failing the test
// if any entry is NaN or ±Inf.
func gramOf(t *testing.T, tr *Tracker) []float64 {
	t.Helper()
	g, ok := tr.SketchGram()
	if !ok {
		t.Fatalf("%s has no raw Gram", tr.Name())
	}
	for i, v := range g.Data() {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("%s: Ĉ[%d] = %v — a non-finite row reached the sketch", tr.Name(), i, v)
		}
	}
	return g.Data()
}

// TestTryObserveRefusesNonFinite pins three failures of unchecked ingest:
// DA1 stored a NaN row and its Ĉ stayed NaN for good, DA2 panicked on +Inf
// inside its mass histogram, and DA2 dropped NaN rows without a word. Now
// every such row is refused with ErrNonFinite before any state changes,
// so the tracker ends bit-identical to one that never saw it.
func TestTryObserveRefusesNonFinite(t *testing.T) {
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for _, p := range []Protocol{DA1, DA2, DA2C} {
		t.Run(string(p), func(t *testing.T) {
			cfg := Config{Protocol: p, D: 3, W: 60, Eps: 0.2, Sites: 2}
			ref, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range finiteRows(300) {
				if err := ref.TryObserve(i%2, r); err != nil {
					t.Fatal(err)
				}
				if err := tr.TryObserve(i%2, r); err != nil {
					t.Fatal(err)
				}
				if i%50 == 7 {
					x := bad[(i/50)%len(bad)]
					poison := Row{T: r.T, V: []float64{1, x, 0}}
					if err := tr.TryObserve(i%2, poison); !errors.Is(err, ErrNonFinite) {
						t.Fatalf("row with %v: error = %v, want ErrNonFinite", x, err)
					}
				}
			}
			want, got := gramOf(t, ref), gramOf(t, tr)
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("Ĉ[%d] = %v, want %v: a refused row changed state", i, got[i], want[i])
				}
			}
			if m := tr.Metrics(); m.Rows != ref.Metrics().Rows {
				t.Fatalf("Rows = %d, want %d", m.Rows, ref.Metrics().Rows)
			}
		})
	}
}

// TestObserveBatchRefusesNonFinite: a non-finite row aborts a batch like a
// dimension error — the prefix is delivered, the offending row and the
// rest are not — on both the sequential and the parallel path.
func TestObserveBatchRefusesNonFinite(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		var opts []Option
		if parallel {
			opts = append(opts, WithParallel(1))
		}
		tr, err := New(Config{Protocol: DA2, D: 3, W: 60, Eps: 0.2, Sites: 1}, opts...)
		if err != nil {
			t.Fatal(err)
		}
		rows := finiteRows(5)
		rows[3].V = []float64{0, math.Inf(1), 1}
		accepted, err := tr.ObserveBatch(0, rows)
		if !errors.Is(err, ErrNonFinite) || accepted != 3 {
			t.Fatalf("parallel=%v: ObserveBatch = (%d, %v), want (3, ErrNonFinite)", parallel, accepted, err)
		}
		tr.Drain()
		if got := tr.Metrics().Rows; got != 3 {
			t.Fatalf("parallel=%v: Rows = %d, want 3", parallel, got)
		}
		gramOf(t, tr)
		tr.Close()
	}
}

func TestAggregateRefusesNonFinite(t *testing.T) {
	tr, err := NewAggregate(Config{W: 100, Eps: 0.1, Sites: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.TryObserve(0, 1, 3); err != nil {
		t.Fatal(err)
	}
	for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := tr.TryObserve(0, 2, w); !errors.Is(err, ErrNonFinite) {
			t.Fatalf("weight %v: error = %v, want ErrNonFinite", w, err)
		}
	}
	if got := tr.Estimate(); got != 3 {
		t.Fatalf("Estimate = %v, want 3", got)
	}
}
