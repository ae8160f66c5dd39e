package wire

import (
	"bytes"
	"encoding/gob"
	"errors"
	"io"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"distwindow/internal/obs"
	"distwindow/internal/wire/codec"
	"distwindow/mat"
)

// corruptConn flips one byte of the Nth Write — a bit-rot fault the v2
// framing must absorb frame-locally.
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
	s, err := DialFunc(func() (io.ReadWriteCloser, error) {
		conn, err := net.DialTimeout("tcp", ln.Addr().String(), 2*time.Second)
		if err != nil {
			return nil, err
		}
		cc = &corruptConn{Conn: conn, writeN: 2, offset: 20}
		return cc, nil
	})
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

// TestHandleConnRefusesNonV2Stream: a stale gob sender's stream is refused
// on its first byte — counted once in BadMsgs, reported as one
// EvMsgRejected from site -1, the connection ended with codec.ErrNotV2 —
// and nothing it carried reaches the estimate. Without the first-byte
// check the v2 decoder would scan the gob stream for magic bytes, counting
// corrupt frames and applying nothing, for as long as the sender stayed.
func TestHandleConnRefusesNonV2Stream(t *testing.T) {
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	for _, m := range []Msg{
		{Site: 1, Kind: DirectionAdd, T: 1, V: []float64{3, 4}, Seq: 1},
		{Site: 1, Kind: SumDelta, T: 2, Delta: 7, Seq: 2},
	} {
		if err := enc.Encode(m); err != nil {
			t.Fatal(err)
		}
	}
	var events []obs.Event
	c := NewCoordinator(2, WithSink(obs.FuncSink(func(e obs.Event) { events = append(events, e) })))
	if err := c.HandleConn(&buf); !errors.Is(err, codec.ErrNotV2) {
		t.Fatalf("HandleConn on a gob stream: %v, want codec.ErrNotV2", err)
	}
	if cm := c.Metrics(); cm.BadMsgs != 1 || cm.Msgs != 0 || cm.AckedMsgs != 0 {
		t.Fatalf("BadMsgs=%d Msgs=%d AckedMsgs=%d, want 1, 0, 0", cm.BadMsgs, cm.Msgs, cm.AckedMsgs)
	}
	if len(events) != 1 || events[0].Kind != obs.EvMsgRejected || events[0].Site != -1 {
		t.Fatalf("events %+v, want one EvMsgRejected from site -1", events)
	}
	if f := mat.FrobSq(c.Sketch()); f != 0 || c.Sum() != 0 {
		t.Fatalf("estimate moved: sketch mass %v, sum %v", f, c.Sum())
	}
}

// TestHandleConnV2AcksSequencedFrames: the coordinator acks in v2. Its ack
// stream opens with the magic byte and a Hello carrying codec.Version, so
// codec.Detect accepts it, and every ack carries the stream of the frame
// it acknowledges.
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
	enc := codec.BinaryV2.NewEncoder(conn)
	for i := 1; i <= 3; i++ {
		m := Msg{Site: 0, Kind: SumDelta, T: int64(i), Delta: 1, Seq: uint64(i), StreamID: "s"}
		if err := enc.EncodeMsg(&m); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	dec, _, err := codec.Detect(conn)
	if err != nil {
		t.Fatalf("ack stream: %v, want a v2 stream", err)
	}
	defer dec.Release()
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
	pv, ok := dec.(interface{ PeerVersion() byte })
	if !ok || pv.PeerVersion() != codec.Version {
		t.Fatalf("ack stream Hello: decoder %T, want peer version %d", dec, codec.Version)
	}
	waitAcked(t, coord, 3)
	if got := coord.SumOf("s"); got != 3 {
		t.Fatalf("SumOf(s) = %v, want 3", got)
	}
}
