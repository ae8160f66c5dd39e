package wire

import (
	"math"
	"net"
	"testing"
	"time"

	"distwindow/internal/obs"
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
// number, leaves the estimate untouched, and the connection stays up.
func TestCoordinatorRejectsNonFiniteFrames(t *testing.T) {
	for _, cdc := range []Codec{Gob, BinaryV2} {
		t.Run(cdc.String(), func(t *testing.T) {
			var sink obs.CountingSink
			coord := NewCoordinator(2, WithSink(&sink))
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go coord.Serve(ln)
			defer coord.Close()
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			enc, dec := cdc.NewEncoder(conn), cdc.NewDecoder(conn)

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
				if err := enc.EncodeMsg(m); err != nil {
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
	}
}
