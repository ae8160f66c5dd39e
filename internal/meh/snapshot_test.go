package meh

import (
	"math"
	"math/rand"
	"testing"

	"distwindow/internal/fd"
	"distwindow/mat"
)

func TestSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	h := New(1000, 4, 0.2)
	for i := int64(1); i <= 800; i++ {
		h.Add(i, []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()})
	}
	r, err := Restore(h.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !r.SketchRows().Equal(h.SketchRows()) {
		t.Fatal("restored sketch rows differ")
	}
	if r.FrobSqEstimate() != h.FrobSqEstimate() || r.Buckets() != h.Buckets() {
		t.Fatal("restored estimates differ")
	}
	if !r.gram.Equal(h.gram) || r.sub != h.sub {
		t.Fatal("restored Gram differs")
	}
	for i := int64(801); i <= 3100; i++ {
		v := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		h.Add(i, v)
		r.Add(i, v)
	}
	if !r.SketchRows().Equal(h.SketchRows()) {
		t.Fatal("restored histogram diverged after more rows")
	}
	if !r.gram.Equal(h.gram) {
		t.Fatal("restored Gram diverged after more rows")
	}
}

// TestSnapshotWithoutGramRebuilds restores a snapshot in the layout
// written before the histogram kept its Gram: the Gram is rebuilt from the
// buckets, and the histogram keeps it in step from there.
func TestSnapshotWithoutGramRebuilds(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	h := New(500, 3, 0.2)
	for i := int64(1); i <= 1500; i++ {
		h.Add(i, []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()})
	}
	sn := h.Snapshot()
	sn.Gram, sn.GramSub = nil, 0
	r, err := Restore(sn)
	if err != nil {
		t.Fatal(err)
	}
	if !r.gram.Equal(mat.Gram(r.SketchRows())) || r.sub != 0 {
		t.Fatal("Gram not rebuilt from the buckets")
	}
	for i := int64(1501); i <= 2500; i++ {
		r.Add(i, []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()})
		checkGram(t, r, int(i))
	}
}

func TestSnapshotRestoreRejectsCorrupt(t *testing.T) {
	row := []float64{1, 0, 0}
	cases := []Snapshot{
		{W: 0, D: 3, Eps2: 0.1, Ell: 5},
		{W: 10, D: 0, Eps2: 0.1, Ell: 5},
		{W: 10, D: 3, Eps2: 0.1, Ell: 0},
		{W: 10, D: 3, Eps2: 0.1, Ell: 5, Buckets: []BucketSnapshot{{FrobSq: 1}}},                                               // empty bucket
		{W: 10, D: 3, Eps2: 0.1, Ell: 5, Buckets: []BucketSnapshot{{Row: []float64{1}, FrobSq: 1}}},                            // wrong row len
		{W: 10, D: 3, Eps2: 0.1, Ell: 5, Gram: make([]float64, 8)},                                                             // wrong Gram len
		{W: 10, D: 3, Eps2: 0.1, Ell: 5, Buckets: []BucketSnapshot{{Sketch: &fd.Snapshot{Ell: 5, D: 2}, FrobSq: 1}}},           // sketch d ≠ D
		{W: 10, D: 3, Eps2: 0.1, Ell: 5, Buckets: []BucketSnapshot{{Row: row, Sketch: &fd.Snapshot{Ell: 5, D: 3}, FrobSq: 1}}}, // row and sketch
		{W: 10, D: 3, Eps2: 0.1, Ell: 5, Buckets: []BucketSnapshot{{Sketch: &fd.Snapshot{Ell: 2, D: 3}, FrobSq: 1}}},           // sketch ℓ < Ell
		{W: 10, D: 3, Eps2: 0.1, Ell: 5, Buckets: []BucketSnapshot{{Row: row, FrobSq: math.NaN()}}},
		{W: 10, D: 3, Eps2: 0.1, Ell: 5, Buckets: []BucketSnapshot{{Row: row, FrobSq: 0}}},
		{W: 10, D: 3, Eps2: 0.1, Ell: 5, Buckets: []BucketSnapshot{{Row: row, FrobSq: -1}}},
		{W: 10, D: 3, Eps2: 0.1, Ell: 5, Buckets: []BucketSnapshot{{Row: row, FrobSq: 1, Newest: 1, Oldest: 5}}}, // oldest > newest
		{W: 10, D: 3, Eps2: 0.1, Ell: 5, Buckets: []BucketSnapshot{
			{Row: row, FrobSq: 1, Newest: 9, Oldest: 9}, {Row: row, FrobSq: 1, Newest: 2, Oldest: 2}}}, // newest decreasing
		{W: 10, D: 3, Eps2: 0.1, Ell: 5, Buckets: []BucketSnapshot{{Row: []float64{1, math.NaN(), 0}, FrobSq: 1}}}, // NaN row
		{W: 10, D: 3, Eps2: math.NaN(), Ell: 5},
		{W: 10, D: 3, Eps2: 0.5, Ell: 5},
		{W: 10, D: 3, Eps2: 0.1, Ell: 5, Pending: -1},
		{W: 10, D: 3, Eps2: 0.1, Ell: 5, Gram: []float64{0, 0, 0, 0, math.Inf(1), 0, 0, 0, 0}},
		{W: 10, D: 3, Eps2: 0.1, Ell: 5, Gram: []float64{math.NaN(), 0, 0, 0, 0, 0, 0, 0, 0}},
		{W: 10, D: 3, Eps2: 0.1, Ell: 5, GramSub: math.NaN()},
		{W: 10, D: 3, Eps2: 0.1, Ell: 5, GramSub: math.Inf(1)},
	}
	for i, c := range cases {
		if _, err := Restore(c); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
}
