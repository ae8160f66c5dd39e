package meh

import (
	"math"
	"math/rand"
	"testing"

	"distwindow/mat"
)

// gramDrift returns ‖gram − Σ_b B_bᵀB_b‖_F, the sum rebuilt fresh from the
// stacked bucket rows, and the live mass Σ_b F_b².
func gramDrift(h *Histogram) (drift, live float64) {
	for i := range h.buckets {
		live += h.buckets[i].frobSq
	}
	return math.Sqrt(mat.FrobSq(mat.Sub(h.gram, mat.Gram(h.SketchRows())))), live
}

// checkGram fails unless the kept Gram is within 1e-12 × the live mass of
// the fresh sum, and exactly zero once the histogram has emptied, and
// unless SpaceWords equals a fresh count over the stored rows. It returns
// the drift relative to the live mass (0 when empty).
func checkGram(t testing.TB, h *Histogram, step int) float64 {
	t.Helper()
	if got, want := h.SpaceWords(), h.SketchRows().Rows()*h.d+4*len(h.buckets); got != want {
		t.Fatalf("step %d: SpaceWords = %d, a fresh count gives %d", step, got, want)
	}
	if len(h.buckets) == 0 {
		for i, x := range h.gram.Data() {
			if x != 0 {
				t.Fatalf("step %d: empty histogram, gram[%d] = %v, want exactly 0", step, i, x)
			}
		}
		return 0
	}
	drift, live := gramDrift(h)
	if !(drift <= 1e-12*live) {
		t.Fatalf("step %d: ‖gram − Σ BᵀB‖_F = %v, live mass %v (ratio %v > 1e-12)", step, drift, live, drift/live)
	}
	return drift / live
}

// TestGramTracksBuckets checks the kept Gram against a fresh sum after
// every Add and Advance, on streams that stress each way it changes:
// merges that shrink, expiries, 1e8-scale bursts that later expire, idle
// gaps that empty the histogram, duplicate timestamps and zero rows.
func TestGramTracksBuckets(t *testing.T) {
	const d = 6
	type op struct {
		t   int64
		v   []float64 // nil: Advance(t)
		tag string
	}
	gauss := func(rng *rand.Rand, scale float64) []float64 {
		v := make([]float64, d)
		for j := range v {
			v[j] = scale * rng.NormFloat64()
		}
		return v
	}
	cases := []struct {
		name string
		w    int64
		eps  float64
		ops  func(rng *rand.Rand) []op
	}{
		{"steady", 200, 0.2, func(rng *rand.Rand) []op {
			var ops []op
			for i := int64(1); i <= 2000; i++ {
				ops = append(ops, op{t: i, v: gauss(rng, 1)})
			}
			return ops
		}},
		{"burst-then-expire", 300, 0.1, func(rng *rand.Rand) []op {
			var ops []op
			now := int64(0)
			for k := 0; k < 3; k++ {
				for i := 0; i < 400; i++ {
					now++
					ops = append(ops, op{t: now, v: gauss(rng, 1)})
				}
				// A burst eight orders of magnitude above the rest, which
				// the window later expires while unit rows keep arriving.
				for i := 0; i < 60; i++ {
					now++
					ops = append(ops, op{t: now, v: gauss(rng, 1e8)})
				}
			}
			for i := 0; i < 700; i++ {
				now++
				ops = append(ops, op{t: now, v: gauss(rng, 1)})
			}
			return ops
		}},
		{"idle-gaps", 100, 0.2, func(rng *rand.Rand) []op {
			var ops []op
			now := int64(0)
			for k := 0; k < 5; k++ {
				for i := 0; i < 150; i++ {
					now++
					ops = append(ops, op{t: now, v: gauss(rng, math.Pow(10, float64(k-2)))})
				}
				// Idle past the window: every bucket expires.
				now += 500
				ops = append(ops, op{t: now, tag: "empty"})
			}
			return ops
		}},
		{"duplicates-and-zeros", 150, 0.25, func(rng *rand.Rand) []op {
			var ops []op
			now := int64(0)
			for i := 0; i < 1500; i++ {
				now += int64(rng.Intn(3)) // 0: a duplicate timestamp
				switch i % 7 {
				case 0:
					ops = append(ops, op{t: now, v: make([]float64, d)})
				case 3:
					v := make([]float64, d)
					v[i%d] = 1e4 // rank-1 spike
					ops = append(ops, op{t: now, v: v})
				default:
					ops = append(ops, op{t: now, v: gauss(rng, 1)})
				}
			}
			return ops
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := New(tc.w, d, tc.eps)
			worst := 0.0
			for i, o := range tc.ops(rand.New(rand.NewSource(3))) {
				if o.v == nil {
					h.Advance(o.t)
				} else {
					h.Add(o.t, o.v)
				}
				worst = math.Max(worst, checkGram(t, h, i))
				if o.tag == "empty" && h.Buckets() != 0 {
					t.Fatalf("step %d: %d buckets after an idle gap, want 0", i, h.Buckets())
				}
			}
			t.Logf("worst relative drift %.3g", worst)
		})
	}
}

// FuzzHistogramGram decodes bytes into adversarial Add/Advance sequences
// (rows from 1e-8 to 1e8 in scale, rank-1 spikes, zero rows, duplicate
// timestamps, idle gaps past the window) and checks the kept Gram against
// a fresh sum after every step. Run with `go test -fuzz=FuzzHistogramGram`;
// the seed corpus runs in normal test mode.
func FuzzHistogramGram(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{3, 1, 16, 3, 1, 16, 3, 0, 0, 2, 0, 8, 0, 200, 0, 3, 1, 8})
	f.Add([]byte{2, 0, 16, 2, 0, 16, 2, 0, 16, 3, 1, 0, 3, 1, 0, 0, 30, 0, 3, 1, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		const d = 4
		h := New(64, d, 0.3)
		rng := rand.New(rand.NewSource(int64(len(data))))
		now := int64(0)
		for i := 0; i+2 < len(data); i += 3 {
			kind, gap, mag := data[i], data[i+1], data[i+2]
			if kind%4 == 0 {
				now += int64(gap)
				h.Advance(now)
				checkGram(t, h, i)
				continue
			}
			now += int64(gap % 4) // 0: a duplicate timestamp
			scale := math.Pow(10, float64(mag%17)-8)
			v := make([]float64, d)
			switch kind % 4 {
			case 1: // zero row
			case 2: // rank-1 spike
				v[int(mag)%d] = scale
			default:
				for j := range v {
					v[j] = scale * rng.NormFloat64()
				}
			}
			h.Add(now, v)
			checkGram(t, h, i)
		}
	})
}
