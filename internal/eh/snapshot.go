package eh

import (
	"fmt"
	"math"
)

// BucketSnapshot is one serialized bucket.
type BucketSnapshot struct {
	Sum            float64
	Newest, Oldest int64
}

// Snapshot is a serializable copy of a Histogram.
type Snapshot struct {
	W       int64
	Eps2    float64
	Buckets []BucketSnapshot
	Pending int
	Version uint64
}

// Snapshot captures the histogram's state.
func (h *Histogram) Snapshot() Snapshot {
	bs := make([]BucketSnapshot, len(h.buckets))
	for i, b := range h.buckets {
		bs[i] = BucketSnapshot{Sum: b.sum, Newest: b.newest, Oldest: b.oldest}
	}
	return Snapshot{W: h.w, Eps2: h.eps2, Buckets: bs, Pending: h.pending, Version: h.version}
}

// Restore rebuilds a histogram from a snapshot.
func Restore(sn Snapshot) (*Histogram, error) {
	if sn.W <= 0 || !(sn.Eps2 > 0 && sn.Eps2 < 0.5) {
		return nil, fmt.Errorf("eh: invalid snapshot w=%d eps2=%v", sn.W, sn.Eps2)
	}
	h := &Histogram{w: sn.W, eps2: sn.Eps2, pending: sn.Pending, version: sn.Version}
	h.buckets = make([]bucket, len(sn.Buckets))
	prev := int64(-1 << 62)
	for i, b := range sn.Buckets {
		if !(b.Sum > 0) || math.IsInf(b.Sum, 0) || b.Oldest > b.Newest || b.Newest < prev {
			return nil, fmt.Errorf("eh: invalid snapshot bucket %d", i)
		}
		prev = b.Newest
		h.buckets[i] = bucket{sum: b.Sum, newest: b.Newest, oldest: b.Oldest}
	}
	h.refold()
	return h, nil
}
