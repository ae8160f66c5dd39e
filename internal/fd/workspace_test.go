package fd

import (
	"math/rand"
	"testing"

	"distwindow/mat"
)

func randRow(rng *rand.Rand, d int) []float64 {
	v := make([]float64, d)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func randSketch(rng *rand.Rand, ell, d, rows int) *Sketch {
	s := New(ell, d)
	for i := 0; i < rows; i++ {
		s.Update(randRow(rng, d))
	}
	return s
}

// refMerge is the pre-bulk-copy merge: append the other sketch's buffer
// rows one at a time, shrinking when full — the reference schedule the
// block-copy Merge must reproduce exactly.
func refMerge(s, other *Sketch) {
	for i := 0; i < other.n; i++ {
		if s.n == 2*s.ell {
			s.shrink()
		}
		s.buf.SetRow(s.n, other.buf.Row(i))
		s.n++
	}
	s.frobSq += other.frobSq
	s.shrunk += other.shrunk
}

func sketchesEqual(t *testing.T, got, want *Sketch) {
	t.Helper()
	if got.n != want.n || got.frobSq != want.frobSq || got.shrunk != want.shrunk {
		t.Fatalf("sketch state (n=%d frobSq=%v shrunk=%v) != (n=%d frobSq=%v shrunk=%v)",
			got.n, got.frobSq, got.shrunk, want.n, want.frobSq, want.shrunk)
	}
	g := got.buf.Data()[:got.n*got.d]
	w := want.buf.Data()[:want.n*want.d]
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("buffer[%d]: %v != %v (not bit-for-bit)", i, g[i], w[i])
		}
	}
}

// TestMergeBulkMatchesRowByRow checks that the block-copy Merge reproduces
// the one-row-at-a-time schedule bit-for-bit across fill levels that
// exercise zero, one, and several intermediate shrinks.
func TestMergeBulkMatchesRowByRow(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct{ ell, d, n1, n2 int }{
		{4, 6, 0, 3}, {4, 6, 3, 0}, {4, 6, 5, 5}, {4, 6, 7, 8},
		{3, 5, 6, 17}, {5, 4, 9, 40}, {2, 3, 4, 11},
	} {
		a := randSketch(rng, tc.ell, tc.d, tc.n1)
		b := randSketch(rng, tc.ell, tc.d, tc.n2)
		ref := a.Clone()
		a.Merge(b)
		refMerge(ref, b)
		sketchesEqual(t, a, ref)
	}
}

func TestMergeIntoResetsSource(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randSketch(rng, 4, 5, 6)
	b := randSketch(rng, 4, 5, 9)
	want := a.Clone()
	want.Merge(b)
	b.MergeInto(a)
	sketchesEqual(t, a, want)
	if b.NumRows() != 0 || b.FrobSq() != 0 || b.ShrunkMass() != 0 {
		t.Fatalf("MergeInto left source non-empty: n=%d frobSq=%v", b.NumRows(), b.FrobSq())
	}
}

func TestAppendRowsToMatchesRows(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s := randSketch(rng, 4, 6, 11)
	rows := s.Rows()
	dst := mat.NewDense(3+s.NumRows(), 6)
	if got := s.AppendRowsTo(dst, 3); got != s.NumRows() {
		t.Fatalf("AppendRowsTo wrote %d rows, want %d", got, s.NumRows())
	}
	for i := 0; i < rows.Rows(); i++ {
		want := rows.Row(i)
		got := dst.Row(3 + i)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("row %d col %d: %v != %v", i, j, got[j], want[j])
			}
		}
	}
}

func TestRowsViewAndGramAddToMatchCopies(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	s := randSketch(rng, 4, 6, 13)
	rows := s.Rows()
	view := s.RowsView()
	if view.Rows() != rows.Rows() || view.Cols() != rows.Cols() {
		t.Fatalf("RowsView shape %dx%d != %dx%d", view.Rows(), view.Cols(), rows.Rows(), rows.Cols())
	}
	for i := 0; i < rows.Rows(); i++ {
		for j, w := range rows.Row(i) {
			if view.Row(i)[j] != w {
				t.Fatalf("view[%d][%d] != copy", i, j)
			}
		}
	}
	want := mat.NewDense(6, 6)
	mat.GramAdd(want, rows, 2.5)
	got := mat.NewDense(6, 6)
	s.GramAddTo(got, 2.5)
	for i, w := range want.Data() {
		if got.Data()[i] != w {
			t.Fatalf("GramAddTo[%d]: %v != %v", i, got.Data()[i], w)
		}
	}
}

// TestUpdateSteadyStateAllocFree pins the amortized Update and Merge cost
// — including the SVD shrinks they absorb — at zero heap allocations once
// the sketch's persistent workspace has been populated. Each measured run
// contains a shrink (2ℓ updates, or a merge of more than 2ℓ rows), so a
// single allocation per shrink shows: AllocsPerRun truncates its average
// to an integer, which would hide one spread over per-row runs.
func TestUpdateSteadyStateAllocFree(t *testing.T) {
	const ell, d = 8, 16
	rng := rand.New(rand.NewSource(11))
	s := New(ell, d)
	// Warm up past several shrinks so the workspace buffers stabilize.
	for i := 0; i < 8*ell; i++ {
		s.Update(randRow(rng, d))
	}
	rows := make([][]float64, 2*ell)
	for i := range rows {
		rows[i] = randRow(rng, d)
	}
	if n := testing.AllocsPerRun(3, func() {
		for _, r := range rows {
			s.Update(r)
		}
	}); n != 0 {
		t.Errorf("fd.Update: %v allocs per 2ℓ rows at steady state, want 0", n)
	}
	src := randSketch(rng, 10, d, 20)
	if n := testing.AllocsPerRun(3, func() { s.Merge(src) }); n != 0 {
		t.Errorf("fd.Merge: %v allocs per %d-row merge at steady state, want 0", n, src.NumRows())
	}
}
