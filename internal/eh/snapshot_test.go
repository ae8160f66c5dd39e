package eh

import (
	"math"
	"math/rand"
	"testing"
)

func TestSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	h := New(500, 0.1)
	for i := int64(1); i <= 2000; i++ {
		h.Insert(i, 0.5+rng.Float64())
	}
	r, err := Restore(h.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if r.Query() != h.Query() || r.Exact() != h.Exact() || r.Buckets() != h.Buckets() {
		t.Fatal("restored histogram differs")
	}
	checkFold(t, r, 0)
	// Continued inserts stay identical.
	for i := int64(2001); i <= 2500; i++ {
		w := 0.5 + rng.Float64()
		h.Insert(i, w)
		r.Insert(i, w)
	}
	if r.Query() != h.Query() || r.Buckets() != h.Buckets() {
		t.Fatal("restored histogram diverged")
	}
	checkFold(t, r, 500)
}

func TestSnapshotRestoreRejectsCorrupt(t *testing.T) {
	cases := []Snapshot{
		{W: 0, Eps2: 0.1},
		{W: 10, Eps2: 0},
		{W: 10, Eps2: 0.1, Buckets: []BucketSnapshot{{Sum: -1, Newest: 1, Oldest: 1}}},
		{W: 10, Eps2: 0.1, Buckets: []BucketSnapshot{{Sum: 1, Newest: 1, Oldest: 5}}},                                 // oldest > newest
		{W: 10, Eps2: 0.1, Buckets: []BucketSnapshot{{Sum: 1, Newest: 9, Oldest: 9}, {Sum: 1, Newest: 2, Oldest: 2}}}, // disorder
		{W: 10, Eps2: 0.1, Buckets: []BucketSnapshot{{Sum: math.NaN(), Newest: 1, Oldest: 1}}},                        // NaN sum
		{W: 10, Eps2: 0.1, Buckets: []BucketSnapshot{{Sum: math.Inf(1), Newest: 1, Oldest: 1}}},                       // infinite sum
		{W: 10, Eps2: math.NaN()},
	}
	for i, c := range cases {
		if _, err := Restore(c); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
}
