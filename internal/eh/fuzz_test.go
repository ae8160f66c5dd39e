package eh

import (
	"bytes"
	"math"
	"testing"
)

// checkFold fails unless the kept fold of the newer buckets equals a fresh
// oldest-to-newest scan of them, bit for bit.
func checkFold(t testing.TB, h *Histogram, step int) {
	t.Helper()
	var s float64
	for i := 1; i < len(h.buckets); i++ {
		s += h.buckets[i].sum
	}
	if math.Float64bits(h.newer) != math.Float64bits(s) {
		t.Fatalf("step %d: kept fold %v (%#x), a fresh scan gives %v (%#x)", step, h.newer, math.Float64bits(h.newer), s, math.Float64bits(s))
	}
}

// FuzzHistogramInvariant feeds arbitrary weight/gap byte streams into the
// histogram, checks after every insert that the kept fold equals a fresh
// scan bit for bit, and checks the estimator's relative-error contract
// against an exact replay. Run with `go test -fuzz=FuzzHistogram` for
// exploration; the seed corpus below runs in normal test mode.
func FuzzHistogramInvariant(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{255, 0, 255, 0, 1, 1, 1, 1, 200, 3})
	f.Add([]byte{10, 10, 10, 10, 10, 10})
	// 36 inserts over about three windows: compaction and expiry.
	f.Add(bytes.Repeat([]byte{7, 9, 6, 250, 5, 0}, 12))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		const (
			eps = 0.2
			w   = int64(64)
		)
		h := New(w, eps)
		type item struct {
			t int64
			w float64
		}
		var items []item
		now := int64(0)
		for i := 0; i+1 < len(data); i += 2 {
			now += int64(data[i] % 8)
			weight := 0.5 + float64(data[i+1])
			h.Insert(now, weight)
			checkFold(t, h, i)
			items = append(items, item{now, weight})
		}
		var truth float64
		for _, it := range items {
			if it.t > now-w && it.t <= now {
				truth += it.w
			}
		}
		got := h.Query()
		if truth == 0 {
			if got != 0 {
				t.Fatalf("Query = %v on empty window", got)
			}
			return
		}
		if rel := math.Abs(got-truth) / truth; rel > 2*eps {
			t.Fatalf("rel err %v > %v (truth %v got %v, %d items)", rel, 2*eps, truth, got, len(items))
		}
	})
}
