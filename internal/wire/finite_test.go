package wire

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"net"
	"testing"
	"time"

	"distwindow/internal/obs"
	"distwindow/internal/wire/codec"
)

// TestSiteObserveRefusesNonFinite: a networked site refuses a row (or SUM
// weight) holding NaN or ±Inf with an error, sends nothing for it, and
// stays bit-identical to a site that never saw it.
func TestSiteObserveRefusesNonFinite(t *testing.T) {
	cfg := SiteConfig{ID: 4, D: 3, W: 50, Eps: 0.2}
	type site interface {
		Observe(int64, []float64) error
		Advance(int64) error
	}
	build := map[string]func(Sender) (site, error){
		"da1":  func(out Sender) (site, error) { return NewDA1Site(cfg, out) },
		"da2":  func(out Sender) (site, error) { return NewDA2Site(cfg, out) },
		"da2c": func(out Sender) (site, error) { return NewDA2CSite(cfg, out) },
		"sum": func(out Sender) (site, error) {
			s, err := NewSumSite(cfg, out)
			return sumAdapter{s}, err
		},
	}
	for name, newSite := range build {
		ref, got := &recordSender{}, &recordSender{}
		a, err := newSite(ref)
		if err != nil {
			t.Fatal(err)
		}
		b, err := newSite(got)
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(1); i <= 200; i++ {
			v := []float64{float64(i%7) - 3, 1, float64(i%3) + 0.5}
			if err := a.Observe(i, v); err != nil {
				t.Fatal(err)
			}
			if err := b.Observe(i, v); err != nil {
				t.Fatal(err)
			}
			for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
				if err := b.Observe(i, []float64{x, 1, 1}); err == nil {
					t.Fatalf("%s: row with %v accepted", name, x)
				}
			}
		}
		if !sameMsgs(ref.msgs, got.msgs) || len(ref.msgs) == 0 {
			t.Fatalf("%s: refused rows changed the frames (%d vs %d)", name, len(got.msgs), len(ref.msgs))
		}
	}
}

// TestCoordinatorRejectsNonFiniteFrames: a CRC-valid frame carrying NaN or
// ±Inf in V or Delta, direction or SumDelta, is rejected — counted in
// BadMsgs, reported as EvMsgRejected — after consuming its sequence
// number, leaves the estimate untouched, and the connection stays up. The
// same frames gob-framed never reach a frame check: the stream is refused
// on its first byte.
func TestCoordinatorRejectsNonFiniteFrames(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	frames := []Msg{
		{Kind: DirectionAdd, V: []float64{1, 0}},
		{Kind: DirectionAdd, V: []float64{nan, 0}},
		{Kind: DirectionRemove, V: []float64{1, -inf}},
		{Kind: DirectionAdd, V: []float64{0, 1}, Delta: nan},
		{Kind: DirectionAdd, V: []float64{0, 1}, Delta: inf},
		{Kind: SumDelta, Delta: nan},
		{Kind: SumDelta, Delta: -inf},
		{Kind: SumDelta, Delta: 2},
		{Kind: DirectionAdd, V: []float64{0, 1}, Delta: 2.5},
		{Kind: DirectionAdd, V: []float64{nan, 0}}, // replay of seq 2
	}
	for i := range frames {
		m := &frames[i]
		m.Site, m.T, m.Seq = 1, int64(i+1), uint64(i+1)
		if i == len(frames)-1 {
			m.Seq = 2
		}
	}
	// serve starts a coordinator on a loopback listener and dials it.
	serve := func(t *testing.T) (*Coordinator, *obs.CountingSink, net.Conn) {
		var sink obs.CountingSink
		coord := NewCoordinator(2, WithSink(&sink))
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go coord.Serve(ln)
		t.Cleanup(coord.Close)
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		return coord, &sink, conn
	}

	t.Run("v2", func(t *testing.T) {
		coord, sink, conn := serve(t)
		enc, dec := codec.BinaryV2.NewEncoder(conn), codec.BinaryV2.NewDecoder(conn)
		for i := range frames {
			if err := enc.EncodeMsg(&frames[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := enc.Flush(); err != nil {
			t.Fatal(err)
		}
		// Every frame is acked — rejected ones included — on the same
		// connection, in order: the connection survived the poison.
		for i, m := range frames {
			var a Ack
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			if err := dec.DecodeAck(&a); err != nil {
				t.Fatalf("ack %d: %v", i, err)
			}
			if a.Seq != m.Seq {
				t.Fatalf("ack %d = %+v, want seq %d", i, a, m.Seq)
			}
		}

		cm := coord.Metrics()
		if cm.BadMsgs != 6 || sink.Count(obs.EvMsgRejected) != 6 {
			t.Fatalf("BadMsgs = %d, EvMsgRejected = %d, want 6 each", cm.BadMsgs, sink.Count(obs.EvMsgRejected))
		}
		if cm.Msgs != 3 || cm.DupMsgs != 1 {
			t.Fatalf("Msgs = %d, DupMsgs = %d, want 3 applied and the poison replay deduped", cm.Msgs, cm.DupMsgs)
		}
		if st := coord.SiteStatuses(); len(st) != 1 || st[0].LastSeq != 9 {
			t.Fatalf("site statuses %+v, want horizon 9", st)
		}
		want := []float64{1, 0, 0, 2.5}
		for i, v := range coord.Snapshot().Chat {
			if v != want[i] {
				t.Fatalf("Ĉ = %v, want %v", coord.Snapshot().Chat, want)
			}
		}
		if got := coord.Sum(); got != 2 {
			t.Fatalf("Sum = %v, want 2", got)
		}
	})

	// A stale gob sender's frames are refused whole: one rejection, no
	// ack, the connection closed, and nothing applied or sequenced.
	t.Run("gob", func(t *testing.T) {
		coord, sink, conn := serve(t)
		var buf bytes.Buffer
		enc := gob.NewEncoder(&buf)
		for i := range frames {
			if err := enc.Encode(frames[i]); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := conn.Write(buf.Bytes()); err != nil {
			t.Fatal(err)
		}
		// The coordinator closes with the gob bytes unread, so the close
		// may arrive as a reset rather than EOF; either way it is no ack
		// and no timeout.
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		n, err := conn.Read(make([]byte, 1))
		var ne net.Error
		if err == nil || (errors.As(err, &ne) && ne.Timeout()) {
			t.Fatalf("read after gob frames: %d bytes, %v; want the connection closed", n, err)
		}

		cm := coord.Metrics()
		if cm.BadMsgs != 1 || sink.Count(obs.EvMsgRejected) != 1 {
			t.Fatalf("BadMsgs = %d, EvMsgRejected = %d, want 1 each", cm.BadMsgs, sink.Count(obs.EvMsgRejected))
		}
		if cm.Msgs != 0 || cm.DupMsgs != 0 || cm.AckedMsgs != 0 {
			t.Fatalf("Msgs = %d, DupMsgs = %d, AckedMsgs = %d, want 0 each", cm.Msgs, cm.DupMsgs, cm.AckedMsgs)
		}
		if st := coord.SiteStatuses(); len(st) != 0 {
			t.Fatalf("site statuses %+v, want none", st)
		}
		for _, v := range coord.Snapshot().Chat {
			if v != 0 {
				t.Fatalf("Ĉ = %v, want zero", coord.Snapshot().Chat)
			}
		}
		if got := coord.Sum(); got != 0 {
			t.Fatalf("Sum = %v, want 0", got)
		}
	})
}
