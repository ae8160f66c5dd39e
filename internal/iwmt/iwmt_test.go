package iwmt

import (
	"math"
	"math/rand"
	"testing"

	"distwindow/mat"
)

// gramOf accumulates Σ vᵀv over rows.
func gramOf(d int, rows [][]float64) *mat.Dense {
	g := mat.NewDense(d, d)
	for _, r := range rows {
		mat.OuterAdd(g, r, 1)
	}
	return g
}

func randRow(d int, rng *rand.Rand) []float64 {
	v := make([]float64, d)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func TestPrefixGuarantee(t *testing.T) {
	// At every point of the stream, the Gram of all emitted messages must
	// be within O(θ + F²/ℓ) of the Gram of all input rows.
	const d = 6
	rng := rand.New(rand.NewSource(1))
	var inputMass float64
	theta := 5.0
	tr := New(10, d, func() float64 { return theta })
	inGram := mat.NewDense(d, d)
	outGram := mat.NewDense(d, d)
	for i := 0; i < 500; i++ {
		v := randRow(d, rng)
		mat.OuterAdd(inGram, v, 1)
		inputMass += mat.VecNormSq(v)
		for _, m := range tr.Input(int64(i), v) {
			mat.OuterAdd(outGram, m.V, 1)
		}
		if i%50 == 0 {
			err := mat.SymSpectralNorm(mat.Sub(inGram, outGram))
			bound := 2*theta + inputMass/10
			if err > bound*1.01 {
				t.Fatalf("i=%d: prefix error %v > bound %v", i, err, bound)
			}
		}
	}
}

func TestFlushLeavesNoResidue(t *testing.T) {
	const d = 4
	rng := rand.New(rand.NewSource(2))
	tr := New(8, d, func() float64 { return 100 })
	inGram := mat.NewDense(d, d)
	outGram := mat.NewDense(d, d)
	var mass float64
	for i := 0; i < 200; i++ {
		v := randRow(d, rng)
		mat.OuterAdd(inGram, v, 1)
		mass += mat.VecNormSq(v)
		for _, m := range tr.Input(int64(i), v) {
			mat.OuterAdd(outGram, m.V, 1)
		}
	}
	for _, m := range tr.Flush(200) {
		mat.OuterAdd(outGram, m.V, 1)
	}
	// After a full flush only FD shrink mass separates input and output.
	err := mat.SymSpectralNorm(mat.Sub(inGram, outGram))
	if err > mass/8+1e-9 {
		t.Fatalf("post-flush error %v > FD drift bound %v", err, mass/8)
	}
	if tr.UnsentFrobSq() != 0 {
		t.Fatal("Flush must empty the tracker")
	}
}

func TestMessageCountBounded(t *testing.T) {
	// Each emitted row carries ≥ θ squared mass, so messages ≤ mass/θ.
	const d = 5
	rng := rand.New(rand.NewSource(3))
	theta := 50.0
	tr := New(10, d, func() float64 { return theta })
	var mass float64
	for i := 0; i < 2000; i++ {
		v := randRow(d, rng)
		mass += mat.VecNormSq(v)
		tr.Input(int64(i), v)
	}
	if got, bound := tr.Emitted(), int(mass/theta)+1; got > bound {
		t.Fatalf("emitted %d messages, bound %d", got, bound)
	}
}

func TestLargerThresholdFewerMessages(t *testing.T) {
	const d = 5
	mk := func(theta float64, seed int64) int {
		rng := rand.New(rand.NewSource(seed))
		tr := New(10, d, func() float64 { return theta })
		for i := 0; i < 1000; i++ {
			tr.Input(int64(i), randRow(d, rng))
		}
		return tr.Emitted()
	}
	small := mk(10, 4)
	large := mk(200, 4)
	if large >= small {
		t.Fatalf("θ=200 sent %d ≥ θ=10's %d messages", large, small)
	}
}

func TestGrowingThreshold(t *testing.T) {
	// DA2-style threshold proportional to accumulated mass must still keep
	// relative prefix error bounded.
	const d = 6
	rng := rand.New(rand.NewSource(5))
	var mass float64
	eps := 0.1
	tr := New(int(1/eps), d, func() float64 { return eps * mass })
	inGram := mat.NewDense(d, d)
	outGram := mat.NewDense(d, d)
	for i := 0; i < 1500; i++ {
		v := randRow(d, rng)
		mass += mat.VecNormSq(v)
		mat.OuterAdd(inGram, v, 1)
		for _, m := range tr.Input(int64(i), v) {
			mat.OuterAdd(outGram, m.V, 1)
		}
	}
	err := mat.SymSpectralNorm(mat.Sub(inGram, outGram))
	if err > 3*eps*mass {
		t.Fatalf("relative prefix error %v > %v", err/mass, 3*eps)
	}
}

func TestZeroThresholdEmitsEverything(t *testing.T) {
	const d = 3
	tr := New(4, d, func() float64 { return 0 })
	msgs := tr.Input(1, []float64{1, 2, 3})
	var out float64
	for _, m := range msgs {
		out += mat.VecNormSq(m.V)
	}
	if math.Abs(out-14) > 1e-9 {
		t.Fatalf("zero threshold should flush; emitted mass %v, want 14", out)
	}
}

func TestEmittedTimestamps(t *testing.T) {
	const d = 2
	tr := New(2, d, func() float64 { return 0.5 })
	msgs := tr.Input(42, []float64{10, 0})
	if len(msgs) == 0 {
		t.Fatal("large row above θ should be emitted")
	}
	for _, m := range msgs {
		if m.T != 42 {
			t.Fatalf("message timestamp %d, want 42", m.T)
		}
	}
}

func TestResetClears(t *testing.T) {
	tr := New(4, 3, func() float64 { return 1e12 })
	tr.Input(1, []float64{1, 1, 1})
	tr.Reset()
	if tr.UnsentFrobSq() != 0 {
		t.Fatal("Reset should clear buffered mass")
	}
	if len(tr.Flush(2)) != 0 {
		t.Fatal("nothing to flush after Reset")
	}
}

func TestSpaceBounded(t *testing.T) {
	const d = 8
	rng := rand.New(rand.NewSource(6))
	tr := New(10, d, func() float64 { return 5 })
	for i := 0; i < 5000; i++ {
		tr.Input(int64(i), randRow(d, rng))
	}
	if tr.SpaceWords() > int64(2*10*d) {
		t.Fatalf("space %d words exceeds 2ℓd", tr.SpaceWords())
	}
}

func TestNewValidation(t *testing.T) {
	for i, f := range []func(){
		func() { New(0, 3, func() float64 { return 1 }) },
		func() { New(3, 0, func() float64 { return 1 }) },
		func() { New(3, 3, nil) },
	} {
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

// TestQuietCompactionAllocs pins a compaction that emits nothing at the
// FD sketch's two row-slice view headers (the partial shrink's and
// CompactView's): the list of kept rows lives in the tracker. Each run
// resets the tracker and feeds five orthogonal rows of squared norms
// 0.25 to 6.25, so the fifth triggers one compaction that keeps four
// rows, none with the threshold's mass.
func TestQuietCompactionAllocs(t *testing.T) {
	const d, theta = 8, 20.0
	tr := New(4, d, func() float64 { return theta })
	rows := make([][]float64, 5)
	for i := range rows {
		rows[i] = make([]float64, d)
		rows[i][i] = float64(i+1) / 2
	}
	var emitted int
	run := func() {
		tr.Reset()
		for i, v := range rows {
			emitted += len(tr.Input(int64(i+1), v))
		}
	}
	if n := testing.AllocsPerRun(1, run); n > 2 {
		t.Errorf("a compaction that emits nothing made %v allocations, want ≤ 2", n)
	}
	if emitted != 0 {
		t.Fatalf("%d rows emitted; the test needs a compaction that emits nothing", emitted)
	}
}
