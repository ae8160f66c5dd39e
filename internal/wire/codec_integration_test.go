package wire

import (
	"io"
	"math"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"distwindow/internal/obs"
	"distwindow/mat"
)

// corruptConn flips one byte of the Nth Write — a bit-rot fault the
// gob framing cannot survive (the stream desynchronizes and the
// connection dies) but the v2 framing must absorb frame-locally.
type corruptConn struct {
	net.Conn
	mu     sync.Mutex
	writeN int // 1-based index of the Write call to corrupt
	offset int // byte offset flipped within that write
	writes int
	hit    bool
}

func (c *corruptConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes++
	hit := c.writes == c.writeN && len(p) > c.offset
	if hit {
		c.hit = true
	}
	c.mu.Unlock()
	if hit {
		q := append([]byte(nil), p...)
		q[c.offset] ^= 0xFF
		return c.Conn.Write(q)
	}
	return c.Conn.Write(p)
}

// TestCorruptFrameMidStreamRecovered is the regression test for the
// corrupt-frame fix: a flipped byte mid-stream on a binary v2 connection
// must cost exactly the frames it touched — the coordinator rejects the
// frame by CRC, keeps the connection, nacks a rewind, and the sender's
// replay re-delivers everything, landing the exact same estimate a clean
// run would.
func TestCorruptFrameMidStreamRecovered(t *testing.T) {
	const n = 30
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	var evMu sync.Mutex
	var rejected int
	coord := NewCoordinator(2, WithSink(obs.FuncSink(func(e obs.Event) {
		if e.Kind == obs.EvMsgRejected {
			evMu.Lock()
			rejected++
			evMu.Unlock()
		}
	})))
	go coord.Serve(ln)
	defer coord.Close()

	// Write #1 carries Hello + frame seq 1; write #2 carries frame seq 2,
	// whose payload byte (offset 20 > the 12-byte header) gets flipped.
	var cc *corruptConn
	s, err := DialFunc(func() (io.WriteCloser, error) {
		conn, err := net.DialTimeout("tcp", ln.Addr().String(), 2*time.Second)
		if err != nil {
			return nil, err
		}
		cc = &corruptConn{Conn: conn, writeN: 2, offset: 20}
		return cc, nil
	}, WithCodec(BinaryV2))
	if err != nil {
		t.Fatal(err)
	}

	for i := 1; i <= n; i++ {
		if err := s.Send(Msg{Site: 0, Kind: DirectionAdd, T: int64(i), V: []float64{1, 0}}); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			// Land the first frame cleanly so the corrupted frame is
			// mid-stream on a connection whose (site, stream) key the
			// coordinator has seen — the case the nack machinery covers.
			if p := drainSender(s, 10*time.Second); p != 0 {
				t.Fatalf("first frame never acknowledged (%d pending)", p)
			}
		}
	}
	if p := drainSender(s, 15*time.Second); p != 0 {
		t.Fatalf("%d frames still pending after corruption recovery (sender %+v, coord %+v)",
			p, s.Metrics(), coord.Metrics())
	}
	if !cc.hit {
		t.Fatal("the corrupting write never fired; the regression was not exercised")
	}

	// Exactly-once: every direction row applied once, despite the replay.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if f := mat.FrobSq(coord.Sketch()); math.Abs(f-n) < 1e-9 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sketch mass %v, want %d: the corrupted frame's delta was lost or double-applied",
				mat.FrobSq(coord.Sketch()), n)
		}
		time.Sleep(2 * time.Millisecond)
	}

	cm := coord.Metrics()
	if cm.Msgs != n {
		t.Fatalf("coordinator applied %d msgs, want %d", cm.Msgs, n)
	}
	if cm.BadMsgs == 0 {
		t.Fatal("no frame was counted bad; the corruption went undetected")
	}
	if cm.NackMsgs == 0 {
		t.Fatal("no nack was sent; recovery happened some other way than the rewind path")
	}
	evMu.Lock()
	rej := rejected
	evMu.Unlock()
	if rej == 0 {
		t.Fatal("no EvMsgRejected event reached the sink")
	}
	// The whole point: the connection survived the corruption. One dial.
	if sm := s.Metrics(); sm.DialAttempts != 1 {
		t.Fatalf("%d dial attempts; corruption should not cost the connection", sm.DialAttempts)
	}
	s.DiscardPending = true
	s.Close()
}

// TestMixedCodecFleetBitIdentical runs a fleet where half the sites speak
// gob and half speak binary v2 into ONE coordinator, and requires the
// final estimate to be bit-identical to applying the same deltas
// directly: the codec is a transport detail, invisible to the estimate.
func TestMixedCodecFleetBitIdentical(t *testing.T) {
	const (
		d    = 4
		nmsg = 48
	)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	coord := NewCoordinator(d)
	go coord.Serve(ln)
	defer coord.Close()
	ref := NewCoordinator(d)

	codecs := []Codec{Gob, BinaryV2, Gob, BinaryV2}
	senders := make([]*ResilientSender, len(codecs))
	for i := range senders {
		s, err := DialFunc(func() (io.WriteCloser, error) {
			return net.DialTimeout("tcp", ln.Addr().String(), 2*time.Second)
		}, WithCodec(codecs[i]))
		if err != nil {
			t.Fatal(err)
		}
		senders[i] = s
	}

	rng := rand.New(rand.NewSource(5))
	seqs := make([]uint64, len(codecs))
	for i := 0; i < nmsg; i++ {
		si := i % len(codecs)
		m := Msg{Site: si, T: int64(i + 1)}
		if i%5 == 4 {
			m.Kind = SumDelta
			m.Delta = rng.NormFloat64()
		} else {
			m.Kind = DirectionAdd
			m.V = make([]float64, d)
			for j := range m.V {
				m.V[j] = rng.NormFloat64()
			}
		}
		if err := senders[si].Send(m); err != nil {
			t.Fatal(err)
		}
		// Serialize delivery so both coordinators apply in one order —
		// float addition is order-sensitive and the comparison is exact.
		if p := drainSender(senders[si], 10*time.Second); p != 0 {
			t.Fatalf("site %d: %d pending", si, p)
		}
		seqs[si]++
		m.Seq = seqs[si]
		if err := ref.Apply(m); err != nil {
			t.Fatal(err)
		}
	}

	got, want := coord.Snapshot(), ref.Snapshot()
	if len(got.Chat) != len(want.Chat) {
		t.Fatalf("estimate sizes differ: %d vs %d", len(got.Chat), len(want.Chat))
	}
	for i := range want.Chat {
		if got.Chat[i] != want.Chat[i] {
			t.Fatalf("Ĉ[%d]: mixed fleet %v, reference %v — a codec perturbed the estimate", i, got.Chat[i], want.Chat[i])
		}
	}
	if coord.Sum() != ref.Sum() {
		t.Fatalf("Sum: mixed fleet %v, reference %v", coord.Sum(), ref.Sum())
	}
	if cm := coord.Metrics(); cm.Msgs != nmsg || cm.BadMsgs != 0 {
		t.Fatalf("Msgs=%d BadMsgs=%d, want %d and 0", cm.Msgs, cm.BadMsgs, nmsg)
	}
	for i := range senders {
		senders[i].Close()
	}
}

// TestHandleConnV2AcksSequencedFrames mirrors the gob ack test on a raw
// binary v2 connection: the coordinator detects the codec from the first
// byte and acks in kind.
func TestHandleConnV2AcksSequencedFrames(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	coord := NewCoordinator(2)
	go coord.Serve(ln)
	defer coord.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	enc := BinaryV2.NewEncoder(conn)
	dec := BinaryV2.NewDecoder(conn)
	for i := 1; i <= 3; i++ {
		m := Msg{Site: 0, Kind: SumDelta, T: int64(i), Delta: 1, Seq: uint64(i), StreamID: "s"}
		if err := enc.EncodeMsg(&m); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		var a Ack
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if err := dec.DecodeAck(&a); err != nil {
			t.Fatalf("ack %d: %v", i, err)
		}
		if a.Seq != uint64(i) || a.Stream != "s" || a.Nack {
			t.Fatalf("ack %d = %+v", i, a)
		}
	}
	waitAcked(t, coord, 3)
	if got := coord.SumOf("s"); got != 3 {
		t.Fatalf("SumOf(s) = %v, want 3", got)
	}
}
