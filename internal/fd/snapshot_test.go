package fd

import (
	"math"
	"math/rand"
	"testing"
)

func TestSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := New(5, 8)
	feed(s, randRows(73, 8, rng))
	r, err := Restore(s.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !r.Rows().Equal(s.Rows()) {
		t.Fatal("restored sketch rows differ")
	}
	if r.FrobSq() != s.FrobSq() || r.ShrunkMass() != s.ShrunkMass() {
		t.Fatal("restored counters differ")
	}
	// Continued updates must match bit-for-bit.
	extra := randRows(31, 8, rng)
	for i := 0; i < extra.Rows(); i++ {
		s.Update(extra.Row(i))
		r.Update(extra.Row(i))
	}
	if !r.Rows().Equal(s.Rows()) {
		t.Fatal("restored sketch diverged after more updates")
	}
}

func TestSnapshotRestoreRejectsCorrupt(t *testing.T) {
	good := New(3, 4).Snapshot()
	cases := []Snapshot{
		{Ell: 0, D: 4},
		{Ell: 3, D: 0},
		{Ell: 3, D: 4, N: 99},
		{Ell: 3, D: 4, N: 1, Buf: []float64{1}}, // wrong buffer length
		{Ell: 3, D: 4, N: 1, Buf: []float64{1, math.NaN(), 0, 0}, FrobSq: 1},   // NaN row
		{Ell: 3, D: 4, N: 1, Buf: []float64{1, 0, math.Inf(-1), 0}, FrobSq: 1}, // infinite row
		{Ell: 3, D: 4, FrobSq: math.NaN()},
		{Ell: 3, D: 4, FrobSq: math.Inf(1)},
		{Ell: 3, D: 4, FrobSq: -1},
		{Ell: 3, D: 4, Shrunk: math.Inf(1)},
		{Ell: 3, D: 4, Shrunk: math.NaN()},
	}
	for i, c := range cases {
		if _, err := Restore(c); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
	if _, err := Restore(good); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}
}
