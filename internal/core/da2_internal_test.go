package core

import (
	"math/rand"
	"testing"

	"distwindow/internal/protocol"
	"distwindow/internal/stream"
	"distwindow/mat"
)

// feedDA2 streams n Gaussian rows at one per tick into a fresh DA2.
func feedDA2(t *testing.T, compress bool, w int64, n int64, seed int64) (*DA2, *protocol.Network) {
	t.Helper()
	cfg := Config{D: 4, W: w, Eps: 0.2, Sites: 2, Seed: 1}
	net := protocol.NewNetwork(2)
	var (
		da  *DA2
		err error
	)
	if compress {
		da, err = NewDA2C(cfg, net)
	} else {
		da, err = NewDA2(cfg, net)
	}
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := int64(1); i <= n; i++ {
		v := make([]float64, 4)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		da.Observe(rng.Intn(2), stream.Row{T: i, V: v})
	}
	return da, net
}

func TestDA2LedgerMovesToQueueAtBoundary(t *testing.T) {
	da, _ := feedDA2(t, false, 100, 250, 1)
	// At t=250 the site is inside window (200, 300]; the ledger holds only
	// messages from the current window and q only unexpired older ones.
	for i, s := range da.sites {
		for _, m := range s.ledger {
			if m.T <= 200 {
				t.Fatalf("site %d ledger holds message from a closed window (T=%d)", i, m.T)
			}
		}
		for _, m := range s.q {
			if m.T <= 150 {
				t.Fatalf("site %d queue holds message that should have expired (T=%d)", i, m.T)
			}
		}
		if s.boundary != 300 {
			t.Fatalf("site %d boundary = %d, want 300", i, s.boundary)
		}
	}
}

func TestDA2BigTimeJumpCrossesManyBoundaries(t *testing.T) {
	da, _ := feedDA2(t, false, 100, 150, 2)
	// Jump 50 windows ahead in one Advance; everything must unwind cleanly.
	da.AdvanceTime(5_000)
	if f := mat.FrobSq(da.Sketch()); f > 1e-9 {
		t.Fatalf("sketch mass %v after multi-window jump", f)
	}
	for i, s := range da.sites {
		if len(s.ledger) != 0 || len(s.q) != 0 {
			t.Fatalf("site %d retains state after jump: ledger=%d q=%d", i, len(s.ledger), len(s.q))
		}
	}
	// And it keeps working afterwards.
	da.Observe(0, stream.Row{T: 5_001, V: []float64{1, 0, 0, 0}})
	if f := mat.FrobSq(da.Sketch()); f == 0 {
		t.Fatal("tracker dead after jump")
	}
}

func TestDA2CRetiresIWMTeAfterDrain(t *testing.T) {
	da, _ := feedDA2(t, true, 100, 400, 3)
	// Drain everything.
	da.AdvanceTime(10_000)
	for i, s := range da.sites {
		if s.e != nil {
			t.Fatalf("site %d IWMT_e alive after full drain", i)
		}
		if s.resid != nil && mat.FrobSq(s.resid) > 1e-9 {
			t.Fatalf("site %d residual not drained: %v", i, mat.FrobSq(s.resid))
		}
	}
}

func TestDA2MessagesCarryWindowTimestamps(t *testing.T) {
	da, _ := feedDA2(t, false, 100, 300, 4)
	for i, s := range da.sites {
		prev := int64(0)
		for _, m := range s.ledger {
			if m.T < prev {
				t.Fatalf("site %d ledger out of order", i)
			}
			prev = m.T
		}
		prev = 0
		for _, m := range s.q {
			if m.T < prev {
				t.Fatalf("site %d queue out of order", i)
			}
			prev = m.T
		}
	}
}

func TestDA2SingleRowWindow(t *testing.T) {
	cfg := Config{D: 2, W: 10, Eps: 0.3, Sites: 1, Seed: 1}
	net := protocol.NewNetwork(1)
	da, _ := NewDA2(cfg, net)
	da.Observe(0, stream.Row{T: 5, V: []float64{3, 4}})
	g := mat.Gram(da.Sketch())
	if g.At(0, 0) < 8 || g.At(0, 0) > 10 {
		t.Fatalf("single-row sketch wrong: %v", g)
	}
	da.AdvanceTime(16) // row expires at t=15
	if f := mat.FrobSq(da.Sketch()); f > 1e-9 {
		t.Fatalf("single row did not expire: %v", f)
	}
}

func TestDA1EmptySitesCostNothing(t *testing.T) {
	// 10 sites, traffic only on site 0: idle sites must not communicate.
	cfg := Config{D: 3, W: 100, Eps: 0.2, Sites: 10, Seed: 1}
	net := protocol.NewNetwork(10)
	da, _ := NewDA1(cfg, net)
	rng := rand.New(rand.NewSource(5))
	for i := int64(1); i <= 300; i++ {
		da.Observe(0, stream.Row{T: i, V: []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}})
	}
	msgs := net.Stats().MsgsUp
	// All messages should be explained by site 0's activity; the other
	// nine sites are idle. Advance them explicitly and recheck.
	da.AdvanceTime(301)
	if net.Stats().MsgsUp != msgs {
		t.Fatal("idle sites generated traffic on AdvanceTime")
	}
}

func TestSumTrackerNegativeUpdatesOnShrinkingWindow(t *testing.T) {
	cfg := Config{D: 1, W: 100, Eps: 0.1, Sites: 1}
	net := protocol.NewNetwork(1)
	st, _ := NewSumTracker(cfg, net)
	for i := int64(1); i <= 100; i++ {
		st.ObserveWeight(0, i, 10)
	}
	high := st.Estimate()
	// Stop arrivals; as the window empties the estimate must follow down.
	for i := int64(101); i <= 220; i += 10 {
		st.AdvanceAll(i)
	}
	low := st.Estimate()
	if low > high/2 {
		t.Fatalf("estimate %v did not track the shrinking window (was %v)", low, high)
	}
}
