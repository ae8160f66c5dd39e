package wire

import (
	"errors"
	"io"
	"math"
	"math/rand"
	"net"
	"testing"
	"time"

	"distwindow/internal/chaos"
	"distwindow/mat"
)

// captureSender records sent frames.
type captureSender struct{ msgs []Msg }

func (c *captureSender) Send(m Msg) error {
	c.msgs = append(c.msgs, m)
	return nil
}

func TestStreamOf(t *testing.T) {
	var cap captureSender
	if got := StreamOf(&cap, ""); got != Sender(&cap) {
		t.Fatal("StreamOf with the default stream should return the sender unchanged")
	}
	s := StreamOf(&cap, "a")
	if err := s.Send(Msg{Site: 1, Kind: DirectionAdd}); err != nil {
		t.Fatal(err)
	}
	if len(cap.msgs) != 1 || cap.msgs[0].StreamID != "a" {
		t.Fatalf("sent %+v, want StreamID a", cap.msgs)
	}
}

// TestStreamsSequenceIndependently pins that a resilient sender numbers
// each stream in a sequence space of its own: the coordinator dedups and
// detects gaps per (site, stream), so a counter shared across streams
// would leave gaps in each.
func TestStreamsSequenceIndependently(t *testing.T) {
	s := mustDialFunc(t, func() (io.ReadWriteCloser, error) {
		return nil, errors.New("down")
	})
	alpha := s.Stream("alpha")
	alpha.Send(Msg{Kind: SumDelta, Delta: 1})
	alpha.Send(Msg{Kind: SumDelta, Delta: 2})
	s.Send(Msg{Kind: SumDelta, Delta: 3, StreamID: "beta"})
	s.Send(Msg{Kind: SumDelta, Delta: 4})
	st := s.State()
	want := []struct {
		stream string
		seq    uint64
	}{{"alpha", 1}, {"alpha", 2}, {"beta", 1}, {"", 1}}
	if len(st.Backlog) != len(want) {
		t.Fatalf("backlog %d, want %d", len(st.Backlog), len(want))
	}
	for i, w := range want {
		if m := st.Backlog[i]; m.StreamID != w.stream || m.Seq != w.seq {
			t.Fatalf("backlog[%d] = stream %q seq %d, want %q %d", i, m.StreamID, m.Seq, w.stream, w.seq)
		}
	}
}

// TestCoordinatorMultiStream drives one coordinator with interleaved
// frames from three streams and checks the estimates, sequence spaces
// and metrics stay fully separated.
func TestCoordinatorMultiStream(t *testing.T) {
	c := NewCoordinator(2)
	send := func(stream string, seq uint64, v []float64) {
		t.Helper()
		if err := c.Apply(Msg{Site: 0, Kind: DirectionAdd, T: 1, V: v, Seq: seq, StreamID: stream}); err != nil {
			t.Fatal(err)
		}
	}
	send("", 1, []float64{1, 0})
	send("a", 1, []float64{0, 1}) // same (site, seq) as the default frame: distinct space
	send("a", 2, []float64{0, 1})
	send("b", 1, []float64{2, 0})
	send("a", 2, []float64{0, 9}) // replay: deduped, not re-applied

	// SketchOf returns the (possibly rank-truncated) factor B with
	// BᵀB ≈ Ĉ; compare through the Gram entries.
	gramAt := func(b *mat.Dense, i, j int) float64 {
		var s float64
		for r := 0; r < b.Rows(); r++ {
			s += b.At(r, i) * b.At(r, j)
		}
		return s
	}
	if got := gramAt(c.Sketch(), 0, 0); math.Abs(got-1) > 1e-12 {
		t.Fatalf("default stream Ĉ[0,0] = %v, want 1", got)
	}
	if got := gramAt(c.SketchOf("a"), 1, 1); math.Abs(got-2) > 1e-12 {
		t.Fatalf("stream a Ĉ[1,1] = %v, want 2 (replay must not re-apply)", got)
	}
	if got := gramAt(c.SketchOf("b"), 0, 0); math.Abs(got-4) > 1e-12 {
		t.Fatalf("stream b Ĉ[0,0] = %v, want 4", got)
	}
	if got := gramAt(c.SketchOf("unseen"), 0, 0); got != 0 {
		t.Fatalf("unseen stream Ĉ[0,0] = %v, want 0", got)
	}
	streams := c.Streams()
	if len(streams) != 2 || streams[0] != "a" || streams[1] != "b" {
		t.Fatalf("Streams() = %v, want [a b]", streams)
	}
	m := c.Metrics()
	if m.Streams != 3 {
		t.Fatalf("Metrics().Streams = %d, want 3 (default + a + b)", m.Streams)
	}
	if m.DupMsgs != 1 {
		t.Fatalf("DupMsgs = %d, want 1", m.DupMsgs)
	}
	if m.Msgs != 4 {
		t.Fatalf("Msgs = %d, want 4 applied", m.Msgs)
	}
}

// TestChaosSoakMultiStream is the multiplexed version of the chaos soak:
// several logical streams share each site's one TCP sender via StreamOf,
// faults hit the shared connection, and every stream's estimate must
// still come out bit-identical to the fault-free run — per-stream
// sequence spaces and per-stream cumulative acks doing their job while
// frames from other streams interleave on the same backlog.
func TestChaosSoakMultiStream(t *testing.T) { runChaosSoakMultiStream(t, false) }

// TestChaosSoakMultiStreamBinaryV2 runs the multiplexed soak under the
// cut mix: a torn v2 frame on the shared connection must cost no stream
// a delta.
func TestChaosSoakMultiStreamBinaryV2(t *testing.T) { runChaosSoakMultiStream(t, true) }

func runChaosSoakMultiStream(t *testing.T, cuts bool) {
	if testing.Short() {
		t.Skip("chaos soak is a multi-second TCP test")
	}
	streams := []string{"", "alpha", "beta"}
	clean := runMuxSoak(t, streams, nil)
	inj := soakInjector()
	if cuts {
		inj = soakCutInjector()
	}
	faulty := runMuxSoak(t, streams, inj)

	for k, id := range streams {
		if len(clean[k]) != len(faulty[k]) {
			t.Fatalf("stream %q estimate sizes differ", id)
		}
		for i := range clean[k] {
			if clean[k][i] != faulty[k][i] {
				t.Fatalf("stream %q Ĉ[%d] differs: fault-free %v, chaos %v — multiplexed delivery was not exactly-once in order",
					id, i, clean[k][i], faulty[k][i])
			}
		}
	}
	if st := inj.Stats(); !soakMixDrawn(st, cuts) {
		t.Fatalf("chaos fault mix too thin (stats %+v); the soak proved nothing", st)
	}
}

// runMuxSoak streams a seeded workload for each logical stream through
// ONE ResilientSender per site and returns each stream's final Ĉ.
func runMuxSoak(t *testing.T, streams []string, inj *chaos.Injector) [][]float64 {
	t.Helper()
	const (
		d     = 4
		w     = int64(60)
		eps   = 0.25
		sites = 2
		rows  = 90 // per stream
	)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	coord := NewCoordinator(d, WithStaleAfter(30*time.Second))
	go coord.Serve(ln)
	defer coord.Close()

	senders := make([]*ResilientSender, sites)
	for i := range senders {
		dial := func() (io.ReadWriteCloser, error) {
			return net.DialTimeout("tcp", ln.Addr().String(), 2*time.Second)
		}
		if inj != nil {
			dial = inj.Dial(dial)
		}
		s, err := DialFunc(dial, WithResilience(ResilienceConfig{
			BackoffBase: time.Millisecond,
			BackoffMax:  8 * time.Millisecond,
			JitterSeed:  int64(i) + 1,
		}))
		if err != nil {
			t.Fatal(err)
		}
		senders[i] = s
	}

	// One DA1 site instance per (site, stream), every instance on a site
	// pushing through the same sender.
	ss := make([][]*DA1Site, sites)
	for si := 0; si < sites; si++ {
		ss[si] = make([]*DA1Site, len(streams))
		for k := range streams {
			s, err := NewDA1Site(SiteConfig{ID: si, D: d, W: w, Eps: eps}, StreamOf(senders[si], streams[k]))
			if err != nil {
				t.Fatal(err)
			}
			ss[si][k] = s
		}
	}

	wait := func(si int) {
		deadline := time.Now().Add(20 * time.Second)
		for senders[si].Pending() > 0 {
			if time.Now().After(deadline) {
				t.Fatalf("site %d: %d frames still unacknowledged (metrics %+v)", si, senders[si].Pending(), senders[si].Metrics())
			}
			senders[si].Flush()
			time.Sleep(200 * time.Microsecond)
		}
	}

	// Each stream gets its own seeded workload; rows interleave across
	// streams and sites so multiplexed frames genuinely mix on the wire.
	rngs := make([]*rand.Rand, len(streams))
	for k := range rngs {
		rngs[k] = rand.New(rand.NewSource(int64(1000 + k)))
	}
	v := make([]float64, d)
	for i := 0; i < rows; i++ {
		for k := range streams {
			si := (i + k) % sites
			for j := range v {
				v[j] = rngs[k].NormFloat64()
			}
			if err := ss[si][k].Observe(int64(i+1), v); err != nil {
				t.Fatalf("stream %q site %d row %d: %v", streams[k], si, i, err)
			}
			wait(si)
		}
	}
	for si := 0; si < sites; si++ {
		for k := range streams {
			if err := ss[si][k].Advance(int64(rows)); err != nil {
				t.Fatal(err)
			}
		}
		wait(si)
	}
	for si := 0; si < sites; si++ {
		senders[si].Close()
	}

	out := make([][]float64, len(streams))
	for k, id := range streams {
		out[k] = append([]float64(nil), coord.SketchOf(id).Data()...)
	}
	return out
}
