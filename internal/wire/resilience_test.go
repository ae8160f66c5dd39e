package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"net"
	"testing"
	"time"

	"distwindow/mat"
)

// mustDialFunc builds a DialFunc sender, failing the test on error.
func mustDialFunc(t *testing.T, dial func() (io.ReadWriteCloser, error), opts ...SenderOption) *ResilientSender {
	t.Helper()
	s, err := DialFunc(dial, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// flakyConn fails after a fixed number of writes; reads (the
// coordinator's acks) pass through.
type flakyConn struct {
	net.Conn
	remaining int
}

func (f *flakyConn) Write(p []byte) (int, error) {
	if f.remaining <= 0 {
		return 0, errors.New("flaky: connection dropped")
	}
	f.remaining--
	return f.Conn.Write(p)
}

func TestResilientSenderReplaysBacklogAfterReconnect(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	coord := NewCoordinator(2)
	go coord.Serve(ln)

	dials := 0
	s := mustDialFunc(t, func() (io.ReadWriteCloser, error) {
		dials++
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return nil, err
		}
		// First connection dies after 2 writes (one Send's batch each),
		// so it drops mid-stream.
		if dials == 1 {
			return &flakyConn{Conn: conn, remaining: 2}, nil
		}
		return conn, nil
	})

	for i := 0; i < 20; i++ {
		if err := s.Send(Msg{Kind: DirectionAdd, V: []float64{1, 0}}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Flush() > 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if p := s.Pending(); p != 0 {
		t.Fatalf("%d messages still pending", p)
	}
	// All 20 unit outer products must have arrived exactly once:
	// ‖B‖_F² = trace(Ĉ) = 20.
	deadline = time.Now().Add(5 * time.Second)
	for {
		if f := mat.FrobSq(coord.Sketch()); math.Abs(f-20) < 1e-6 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sketch mass %v, want 20", mat.FrobSq(coord.Sketch()))
		}
		time.Sleep(10 * time.Millisecond)
	}
	s.Close()
	if dials < 2 {
		t.Fatalf("expected a reconnect, dials = %d", dials)
	}
}

func TestResilientSenderBacklogLimit(t *testing.T) {
	s := mustDialFunc(t, func() (io.ReadWriteCloser, error) {
		return nil, errors.New("unreachable")
	})
	s.MaxBacklog = 3
	for i := 0; i < 3; i++ {
		if err := s.Send(Msg{Kind: SumDelta, Delta: 1}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if err := s.Send(Msg{Kind: SumDelta, Delta: 1}); err == nil {
		t.Fatal("want error when backlog full")
	}
	if s.Pending() != 3 {
		t.Fatalf("Pending = %d, want 3", s.Pending())
	}
}

func TestResilientSenderBuffersWhileDown(t *testing.T) {
	up := false
	c := NewCoordinator(2)
	s := mustDialFunc(t, func() (io.ReadWriteCloser, error) {
		if !up {
			return nil, errors.New("down")
		}
		return pipeTo(c), nil
	})
	defer s.Close()
	for i := 0; i < 5; i++ {
		if err := s.Send(Msg{Kind: SumDelta, Delta: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if s.Pending() != 5 {
		t.Fatalf("Pending = %d, want 5 while down", s.Pending())
	}
	up = true
	if left := s.FlushWait(5 * time.Second); left != 0 {
		t.Fatalf("FlushWait left %d", left)
	}
	if c.Sum() != 5 {
		t.Fatalf("Sum = %v after recovery, want 5", c.Sum())
	}
}

// pipeTo returns the site end of an in-process connection whose other
// end c serves, acks included.
func pipeTo(c *Coordinator) net.Conn {
	srv, cli := net.Pipe()
	go func() { _ = c.HandleConn(srv) }()
	return cli
}

type nopCloser struct{ io.Writer }

func (nopCloser) Close() error { return nil }

func TestSnapshotRoundTrip(t *testing.T) {
	c := NewCoordinator(3)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		c.Apply(Msg{Kind: DirectionAdd, V: randRow(3, rng)})
	}
	c.Apply(Msg{Kind: SumDelta, Delta: 12.5})

	var buf bytes.Buffer
	if err := c.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !restored.Sketch().EqualApprox(c.Sketch(), 1e-12) {
		t.Fatal("restored sketch differs")
	}
	if restored.Sum() != c.Sum() {
		t.Fatal("restored sum differs")
	}
	m1, b1 := c.Stats()
	m2, b2 := restored.Stats()
	if m1 != m2 || b1 != b2 {
		t.Fatal("restored stats differ")
	}
}

func TestRestoreRejectsCorruptSnapshot(t *testing.T) {
	if _, err := RestoreCoordinator(Snapshot{D: 3, Chat: []float64{1, 2}}); err == nil {
		t.Fatal("want error for wrong chat length")
	}
	if _, err := ReadSnapshot(bytes.NewReader([]byte("garbage"))); err == nil {
		t.Fatal("want error for corrupt stream")
	}
}

func TestRestoredCoordinatorKeepsWorking(t *testing.T) {
	c := NewCoordinator(2)
	c.Apply(Msg{Kind: DirectionAdd, V: []float64{2, 0}})
	var buf bytes.Buffer
	c.WriteSnapshot(&buf)
	r, _ := ReadSnapshot(&buf)
	// Failover: the restored coordinator continues receiving updates.
	r.Apply(Msg{Kind: DirectionRemove, V: []float64{2, 0}})
	if mat.FrobSq(r.Sketch()) > 1e-9 {
		t.Fatal("restored coordinator should cancel to zero")
	}
}
