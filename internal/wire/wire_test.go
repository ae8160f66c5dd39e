package wire

import (
	"math"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"distwindow/internal/stream"
	"distwindow/internal/window"
	"distwindow/mat"
)

func randRow(d int, rng *rand.Rand) []float64 {
	v := make([]float64, d)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func TestCoordinatorApplyDirections(t *testing.T) {
	c := NewCoordinator(2)
	if err := c.Apply(Msg{Kind: DirectionAdd, V: []float64{3, 4}}); err != nil {
		t.Fatal(err)
	}
	b := c.Sketch()
	if math.Abs(mat.FrobSq(b)-25) > 1e-9 {
		t.Fatalf("sketch mass %v, want 25", mat.FrobSq(b))
	}
	if err := c.Apply(Msg{Kind: DirectionRemove, V: []float64{3, 4}}); err != nil {
		t.Fatal(err)
	}
	if mat.FrobSq(c.Sketch()) > 1e-9 {
		t.Fatal("add then remove should cancel")
	}
}

func TestCoordinatorApplySum(t *testing.T) {
	c := NewCoordinator(1)
	c.Apply(Msg{Kind: SumDelta, Delta: 5})
	c.Apply(Msg{Kind: SumDelta, Delta: -2})
	if c.Sum() != 3 {
		t.Fatalf("Sum = %v, want 3", c.Sum())
	}
}

func TestCoordinatorRejectsBadMessages(t *testing.T) {
	c := NewCoordinator(3)
	if err := c.Apply(Msg{Kind: DirectionAdd, V: []float64{1}}); err == nil {
		t.Fatal("want error for wrong direction length")
	}
	if err := c.Apply(Msg{Kind: Kind(99)}); err == nil {
		t.Fatal("want error for unknown kind")
	}
}

func TestDA2SiteLoopbackTracksWindow(t *testing.T) {
	const (
		d = 6
		w = int64(500)
	)
	c := NewCoordinator(d)
	s, err := NewDA2Site(SiteConfig{ID: 0, D: d, W: w, Eps: 0.1}, Loopback{c})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	truth := window.NewExact(w)
	var worst float64
	for i := int64(1); i <= 3000; i++ {
		v := randRow(d, rng)
		if err := s.Observe(i, v); err != nil {
			t.Fatal(err)
		}
		truth.Add(stream.Row{T: i, V: v})
		if i > 600 && i%300 == 0 {
			e := truth.CovErr(d, c.Sketch())
			if e > worst {
				worst = e
			}
		}
	}
	if worst > 0.5 {
		t.Fatalf("DA2 wire site max error %v", worst)
	}
}

func TestDA1SiteLoopbackTracksWindow(t *testing.T) {
	const (
		d = 6
		w = int64(500)
	)
	c := NewCoordinator(d)
	s, err := NewDA1Site(SiteConfig{ID: 0, D: d, W: w, Eps: 0.15}, Loopback{c})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	truth := window.NewExact(w)
	var worst float64
	for i := int64(1); i <= 3000; i++ {
		v := randRow(d, rng)
		if err := s.Observe(i, v); err != nil {
			t.Fatal(err)
		}
		truth.Add(stream.Row{T: i, V: v})
		if i > 600 && i%300 == 0 {
			e := truth.CovErr(d, c.Sketch())
			if e > worst {
				worst = e
			}
		}
	}
	if worst > 0.6 {
		t.Fatalf("DA1 wire site max error %v", worst)
	}
}

func TestSumSiteLoopback(t *testing.T) {
	c := NewCoordinator(1)
	s, err := NewSumSite(SiteConfig{ID: 0, W: 200, Eps: 0.1}, Loopback{c})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 1000; i++ {
		if err := s.Observe(i, 1); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Sum(); math.Abs(got-200) > 60 {
		t.Fatalf("Sum = %v, want ≈200", got)
	}
	s.Advance(100_000)
	if got := c.Sum(); math.Abs(got) > 20 {
		t.Fatalf("Sum after expiry = %v, want ≈0", got)
	}
}

func TestFullExpiryCancelsExactly(t *testing.T) {
	const d = 4
	c := NewCoordinator(d)
	s, _ := NewDA2Site(SiteConfig{ID: 0, D: d, W: 100, Eps: 0.2}, Loopback{c})
	rng := rand.New(rand.NewSource(3))
	for i := int64(1); i <= 1000; i++ {
		s.Observe(i, randRow(d, rng))
	}
	if err := s.Advance(100_000); err != nil {
		t.Fatal(err)
	}
	if f := mat.FrobSq(c.Sketch()); f > 1e-9 {
		t.Fatalf("residual mass %v after total expiry", f)
	}
}

// TestOverTCP runs a coordinator and multiple sites over real loopback TCP
// connections, concurrently, and checks the assembled sketch against the
// exact union window.
func TestOverTCP(t *testing.T) {
	const (
		d     = 5
		w     = int64(800)
		m     = 4
		nRows = 4000
	)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(d)
	go coord.Serve(ln)

	// Pre-generate the event sequence so truth is exact.
	rng := rand.New(rand.NewSource(4))
	type ev struct {
		site int
		t    int64
		v    []float64
	}
	evs := make([]ev, nRows)
	for i := range evs {
		evs[i] = ev{site: rng.Intn(m), t: int64(i + 1), v: randRow(d, rng)}
	}

	// Each site runs on its own goroutine over its own TCP connection,
	// consuming its sub-stream in timestamp order.
	var wg sync.WaitGroup
	siteErrs := make([]error, m)
	for si := 0; si < m; si++ {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				siteErrs[si] = err
				return
			}
			sender, err := NewSender(conn)
			if err != nil {
				siteErrs[si] = err
				return
			}
			defer sender.Close()
			site, err := NewDA2Site(SiteConfig{ID: si, D: d, W: w, Eps: 0.1}, sender)
			if err != nil {
				siteErrs[si] = err
				return
			}
			for _, e := range evs {
				if e.site != si {
					continue
				}
				if err := site.Observe(e.t, e.v); err != nil {
					siteErrs[si] = err
					return
				}
			}
			siteErrs[si] = site.Advance(int64(nRows))
		}(si)
	}
	wg.Wait()
	for si, err := range siteErrs {
		if err != nil {
			t.Fatalf("site %d: %v", si, err)
		}
	}
	// Give the coordinator a moment to drain the last in-flight frames.
	deadline := time.Now().Add(5 * time.Second)
	truth := window.NewExact(w)
	for _, e := range evs {
		truth.Add(stream.Row{T: e.t, V: e.v})
	}
	var errVal float64
	for {
		errVal = truth.CovErr(d, coord.Sketch())
		if errVal < 0.5 || time.Now().After(deadline) {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	coord.Close()
	if errVal > 0.5 {
		t.Fatalf("TCP end-to-end covariance error %v", errVal)
	}
	if msgs, bytes := coord.Stats(); msgs == 0 || bytes == 0 {
		t.Fatal("no traffic recorded")
	}
}

func TestConnSenderRoundTrip(t *testing.T) {
	client, server := net.Pipe()
	c := NewCoordinator(2)
	done := make(chan error, 1)
	go func() { done <- c.HandleConn(server) }()
	s, err := NewSender(client)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Send(Msg{Site: 3, Kind: DirectionAdd, T: 7, V: []float64{1, 2}}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	server.Close()
	<-done
	if f := mat.FrobSq(c.Sketch()); math.Abs(f-5) > 1e-9 {
		t.Fatalf("sketch mass %v, want 5", f)
	}
}

func TestSiteConfigValidation(t *testing.T) {
	c := NewCoordinator(2)
	if _, err := NewDA2Site(SiteConfig{D: 0, W: 10, Eps: 0.1}, Loopback{c}); err == nil {
		t.Fatal("want error for d=0")
	}
	if _, err := NewDA1Site(SiteConfig{D: 2, W: 0, Eps: 0.1}, Loopback{c}); err == nil {
		t.Fatal("want error for w=0")
	}
	if _, err := NewSumSite(SiteConfig{W: 10, Eps: 2}, Loopback{c}); err == nil {
		t.Fatal("want error for eps out of range")
	}
}
