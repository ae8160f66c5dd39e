package wire

import (
	"bytes"
	"encoding/gob"
	"errors"
	"io"
	"math"
	"net"
	"testing"
	"time"

	"distwindow/internal/chaos"
	"distwindow/internal/obs"
	"distwindow/mat"
)

// drainSender polls Flush until the backlog empties or the deadline
// passes, returning the final pending count. Flush also retries the dial,
// so a sender whose connection a fault killed makes progress here.
func drainSender(s *ResilientSender, timeout time.Duration) int {
	deadline := time.Now().Add(timeout)
	for {
		if n := s.Flush(); n == 0 {
			return 0
		}
		if time.Now().After(deadline) {
			return s.Pending()
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAcceptedButUndeliveredFrameIsRecovered is the regression test for
// the silent-loss bug: a connection that accepts a write and then dies
// before delivery used to lose the frame permanently, because the sender
// retired messages on write success. With acknowledged frames the message
// stays in the backlog until the coordinator has actually consumed it.
func TestAcceptedButUndeliveredFrameIsRecovered(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	coord := NewCoordinator(2)
	go coord.Serve(ln)

	// One write in ten is accepted but never delivered (and the
	// connection dies, as a crashed peer's would).
	inj := chaos.New(chaos.Config{Seed: 7, PDrop: 0.1})
	s := mustDialFunc(t, inj.Dial(func() (io.WriteCloser, error) {
		return net.Dial("tcp", ln.Addr().String())
	}))

	const n = 30
	for i := 0; i < n; i++ {
		if err := s.Send(Msg{Site: 0, Kind: DirectionAdd, T: int64(i + 1), V: []float64{1, 0}}); err != nil {
			t.Fatal(err)
		}
	}
	if p := drainSender(s, 10*time.Second); p != 0 {
		t.Fatalf("%d messages still pending after drain", p)
	}
	if st := inj.Stats(); st.Drops == 0 {
		t.Fatalf("chaos injected no drops (stats %+v); the regression was not exercised", st)
	}

	// Every frame must land exactly once: trace(Ĉ) = n.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if f := mat.FrobSq(coord.Sketch()); math.Abs(f-n) < 1e-9 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sketch mass %v, want %d: frames were lost or double-applied", mat.FrobSq(coord.Sketch()), n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	cm := coord.Metrics()
	if cm.Msgs != n {
		t.Fatalf("coordinator applied %d msgs, want exactly %d", cm.Msgs, n)
	}
	s.DiscardPending = true
	s.Close()
}

// discardConn accepts every write and delivers none of them — the
// transport-level shape of "the kernel took the bytes, the peer never
// saw them".
type discardConn struct{ n int }

func (d *discardConn) Write(p []byte) (int, error) { d.n += len(p); return len(p), nil }
func (d *discardConn) Close() error                { return nil }

// TestLegacyModeDocumentsTheLoss pins the failure the ack path fixes: on
// a write-only transport (no acks possible) the sender retires frames on
// write success, so an accepted-but-undelivered frame is gone —
// at-most-once is the best that mode can do.
func TestLegacyModeDocumentsTheLoss(t *testing.T) {
	sink := &discardConn{}
	s := mustDialFunc(t, func() (io.WriteCloser, error) { return sink, nil })
	if err := s.Send(Msg{Kind: SumDelta, Delta: 1}); err != nil {
		t.Fatal(err)
	}
	if p := s.Pending(); p != 0 {
		t.Fatalf("legacy mode should retire on write; pending = %d", p)
	}
	if sink.n == 0 {
		t.Fatal("nothing was written at all")
	}
	// No receiver exists and the sender believes it is done: the frame is
	// lost. The ack path makes this impossible on bidirectional conns.
}

func TestCoordinatorDedupsReplayedFrames(t *testing.T) {
	c := NewCoordinator(2)
	m := Msg{Site: 0, Kind: DirectionAdd, T: 1, V: []float64{1, 0}, Seq: 1}
	for i := 0; i < 3; i++ {
		if err := c.Apply(m); err != nil {
			t.Fatal(err)
		}
	}
	if f := mat.FrobSq(c.Sketch()); math.Abs(f-1) > 1e-12 {
		t.Fatalf("sketch mass %v after replays, want 1", f)
	}
	cm := c.Metrics()
	if cm.Msgs != 1 || cm.DupMsgs != 2 {
		t.Fatalf("Msgs=%d DupMsgs=%d, want 1 applied and 2 deduped", cm.Msgs, cm.DupMsgs)
	}
	// A different site's Seq 1 is its own sequence space.
	if err := c.Apply(Msg{Site: 1, Kind: DirectionAdd, T: 1, V: []float64{0, 1}, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if f := mat.FrobSq(c.Sketch()); math.Abs(f-2) > 1e-12 {
		t.Fatalf("sketch mass %v, want 2: per-site dedup keyed wrongly", f)
	}
	// Unsequenced legacy frames are never deduped.
	for i := 0; i < 2; i++ {
		if err := c.Apply(Msg{Site: 0, Kind: SumDelta, Delta: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if c.Sum() != 2 {
		t.Fatalf("Sum = %v, want 2: legacy frames must not be deduped", c.Sum())
	}
}

func TestPoisonFrameConsumedOnce(t *testing.T) {
	c := NewCoordinator(2)
	bad := Msg{Site: 0, Kind: DirectionAdd, T: 1, V: []float64{1}, Seq: 5} // wrong dimension
	if err := c.Apply(bad); err == nil {
		t.Fatal("want rejection for wrong dimension")
	}
	// The replay of the rejected frame is deduped, not re-rejected: its
	// seq was consumed, so the sender's backlog can retire it on ack.
	if err := c.Apply(bad); err != nil {
		t.Fatalf("replayed poison frame: %v, want silent dedup", err)
	}
	cm := c.Metrics()
	if cm.BadMsgs != 1 || cm.DupMsgs != 1 {
		t.Fatalf("BadMsgs=%d DupMsgs=%d, want 1 and 1", cm.BadMsgs, cm.DupMsgs)
	}
}

func TestHandleConnAcksSequencedFrames(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	coord := NewCoordinator(2)
	go coord.Serve(ln)

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	enc := gob.NewEncoder(conn)
	dec := gob.NewDecoder(conn)
	for i := 1; i <= 3; i++ {
		if err := enc.Encode(Msg{Site: 0, Kind: SumDelta, T: int64(i), Delta: 1, Seq: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 3; i++ {
		var a Ack
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if err := dec.Decode(&a); err != nil {
			t.Fatalf("ack %d: %v", i, err)
		}
		if a.Seq != uint64(i) {
			t.Fatalf("ack %d carries seq %d", i, a.Seq)
		}
	}
	waitAcked(t, coord, 3)
}

// waitAcked waits for the coordinator's ack counter to reach want, then
// asserts it is exactly want. The counter is bumped only after an ack's
// write returns, so a client holding the ack can read it before the bump.
func waitAcked(t *testing.T, coord *Coordinator, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for coord.Metrics().AckedMsgs < want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := coord.Metrics().AckedMsgs; got != want {
		t.Fatalf("AckedMsgs = %d, want %d", got, want)
	}
}

// legacySeqMsg is the pre-ack frame shape: Msg without Seq (the trace
// fields had already shipped). Both directions must keep decoding.
type legacySeqMsg struct {
	Site        int
	Kind        Kind
	T           int64
	V           []float64
	Delta       float64
	Trace, Span uint64
}

func TestGobCompatSeqField(t *testing.T) {
	// Old sender → new coordinator: Seq decodes as 0 (unsequenced), the
	// frame is applied, and no ack is written.
	var up bytes.Buffer
	if err := gob.NewEncoder(&up).Encode(legacySeqMsg{Site: 2, Kind: SumDelta, T: 4, Delta: 9}); err != nil {
		t.Fatal(err)
	}
	c := NewCoordinator(2)
	var acks bytes.Buffer
	if err := c.HandleConn(readWriter{&up, &acks}); err != nil {
		t.Fatalf("HandleConn on pre-ack stream: %v", err)
	}
	if c.Sum() != 9 {
		t.Fatalf("Sum = %v, want 9", c.Sum())
	}
	if acks.Len() != 0 {
		t.Fatal("coordinator acked an unsequenced legacy frame")
	}

	// New sender → old coordinator: a sequenced frame decodes into the
	// pre-ack shape with Seq simply ignored.
	var down bytes.Buffer
	if err := gob.NewEncoder(&down).Encode(Msg{Site: 1, Kind: DirectionAdd, T: 2, V: []float64{1, 2}, Seq: 77}); err != nil {
		t.Fatal(err)
	}
	var got legacySeqMsg
	if err := gob.NewDecoder(&down).Decode(&got); err != nil {
		t.Fatalf("legacy decode of sequenced frame: %v", err)
	}
	if got.Site != 1 || got.Kind != DirectionAdd || len(got.V) != 2 {
		t.Fatalf("legacy decode mangled the frame: %+v", got)
	}
}

type readWriter struct {
	io.Reader
	io.Writer
}

func TestDialBackoffLimitsAttempts(t *testing.T) {
	dials := 0
	s := mustDialFunc(t, func() (io.WriteCloser, error) {
		dials++
		return nil, errors.New("down")
	})
	s.BackoffBase = 20 * time.Millisecond
	s.BackoffMax = 100 * time.Millisecond
	s.SetJitterSeed(1)
	const n = 500
	for i := 0; i < n; i++ {
		if err := s.Send(Msg{Kind: SumDelta, Delta: 1}); err != nil {
			t.Fatal(err)
		}
	}
	// 500 sends land well inside the first few backoff windows; without
	// backoff every one of them would have dialed.
	if dials >= n/10 {
		t.Fatalf("%d dial attempts for %d sends; backoff is not gating dials", dials, n)
	}
	m := s.Metrics()
	if m.DialAttempts != int64(dials) || m.DialFailures != int64(dials) {
		t.Fatalf("metrics report %d/%d dial attempts/failures, observed %d", m.DialAttempts, m.DialFailures, dials)
	}
}

func TestBackoffResetsAfterSuccess(t *testing.T) {
	fail := true
	var sink bytes.Buffer
	s := mustDialFunc(t, func() (io.WriteCloser, error) {
		if fail {
			return nil, errors.New("down")
		}
		return nopCloser{&sink}, nil
	})
	s.BackoffBase = time.Millisecond
	s.BackoffMax = 4 * time.Millisecond
	s.SetJitterSeed(1)
	s.Send(Msg{Kind: SumDelta, Delta: 1})
	fail = false
	if p := drainSender(s, 2*time.Second); p != 0 {
		t.Fatalf("%d pending after recovery", p)
	}
	if sink.Len() == 0 {
		t.Fatal("nothing delivered after the backoff window elapsed")
	}
}

func TestCloseRefusesToLosePending(t *testing.T) {
	s := mustDialFunc(t, func() (io.WriteCloser, error) {
		return nil, errors.New("down")
	})
	for i := 0; i < 4; i++ {
		s.Send(Msg{Kind: SumDelta, Delta: 1})
	}
	err := s.Close()
	var pe *PendingError
	if !errors.As(err, &pe) {
		t.Fatalf("Close with backlog: %v, want *PendingError", err)
	}
	if pe.Pending != 4 {
		t.Fatalf("PendingError.Pending = %d, want 4", pe.Pending)
	}
	// The refused close left the sender usable.
	if s.Pending() != 4 {
		t.Fatalf("backlog disturbed by refused close: %d", s.Pending())
	}
	s.DiscardPending = true
	if err := s.Close(); err != nil {
		t.Fatalf("Close with DiscardPending: %v", err)
	}
	if s.Pending() != 0 {
		t.Fatal("DiscardPending close kept the backlog")
	}
}

func TestLivenessStaleAndResync(t *testing.T) {
	var events []obs.Event
	c := NewCoordinator(2, WithStaleAfter(10*time.Second),
		WithSink(obs.FuncSink(func(e obs.Event) { events = append(events, e) })))
	clock := time.Unix(0, 0)
	c.now = func() time.Time { return clock }

	c.Apply(Msg{Site: 0, Kind: SumDelta, Delta: 1, Seq: 1})
	c.Apply(Msg{Site: 1, Kind: SumDelta, Delta: 1, Seq: 1})
	if n := c.CheckLiveness(); n != 0 {
		t.Fatalf("%d stale sites immediately after frames", n)
	}

	clock = clock.Add(time.Minute)
	c.Apply(Msg{Site: 1, Kind: SumDelta, Delta: 1, Seq: 2})
	if n := c.CheckLiveness(); n != 1 {
		t.Fatalf("%d stale sites, want 1 (site 0 silent)", n)
	}
	// The transition is reported once, not on every sweep.
	if n := c.CheckLiveness(); n != 1 {
		t.Fatalf("second sweep reports %d stale", n)
	}
	var staleEvents, resyncEvents int
	for _, e := range events {
		switch e.Kind {
		case obs.EvSiteStale:
			staleEvents++
		case obs.EvSiteResync:
			resyncEvents++
		}
	}
	if staleEvents != 1 {
		t.Fatalf("%d EvSiteStale events, want 1", staleEvents)
	}

	sts := c.SiteStatuses()
	if len(sts) != 2 || !sts[0].Stale || sts[1].Stale {
		t.Fatalf("SiteStatuses = %+v, want site 0 stale only", sts)
	}

	// Site 0 delivers again: resync event, staleness clears.
	c.Apply(Msg{Site: 0, Kind: SumDelta, Delta: 1, Seq: 2})
	if n := c.CheckLiveness(); n != 0 {
		t.Fatalf("%d stale sites after resync", n)
	}
	resyncEvents = 0
	for _, e := range events {
		if e.Kind == obs.EvSiteResync {
			resyncEvents++
		}
	}
	if resyncEvents != 1 {
		t.Fatalf("%d EvSiteResync events, want 1", resyncEvents)
	}
	if cm := c.Metrics(); cm.SitesSeen != 2 || cm.StaleSites != 0 {
		t.Fatalf("SitesSeen=%d StaleSites=%d", cm.SitesSeen, cm.StaleSites)
	}
}

func TestSenderStateRoundTrip(t *testing.T) {
	s := mustDialFunc(t, func() (io.WriteCloser, error) {
		return nil, errors.New("down")
	})
	for i := 0; i < 3; i++ {
		s.Send(Msg{Kind: SumDelta, Delta: float64(i)})
	}
	st := s.State()
	if st.NextSeq != 3 || len(st.Backlog) != 3 {
		t.Fatalf("State = NextSeq %d, %d backlog", st.NextSeq, len(st.Backlog))
	}

	r := mustDialFunc(t, func() (io.WriteCloser, error) {
		return nil, errors.New("down")
	})
	if err := r.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if r.Pending() != 3 {
		t.Fatalf("restored Pending = %d", r.Pending())
	}
	// The restored sender continues the same sequence space.
	r.Send(Msg{Kind: SumDelta, Delta: 9})
	if got := r.State(); got.NextSeq != 4 || got.Backlog[3].Seq != 4 {
		t.Fatalf("restored sender continued at seq %d", got.Backlog[3].Seq)
	}

	bad := st
	bad.NextSeq = 1 // behind the backlog tail
	if err := mustDialFunc(t, nil).RestoreState(bad); err == nil {
		t.Fatal("want error for NextSeq behind backlog")
	}
}

func TestCoordinatorSnapshotCarriesDedupHorizon(t *testing.T) {
	c := NewCoordinator(2)
	c.Apply(Msg{Site: 0, Kind: DirectionAdd, V: []float64{1, 0}, Seq: 4})
	var buf bytes.Buffer
	if err := c.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// The failed-over coordinator must keep rejecting its predecessor's
	// consumed seqs.
	r.Apply(Msg{Site: 0, Kind: DirectionAdd, V: []float64{1, 0}, Seq: 4})
	if f := mat.FrobSq(r.Sketch()); math.Abs(f-1) > 1e-12 {
		t.Fatalf("replay after failover applied: mass %v, want 1", f)
	}
	if cm := r.Metrics(); cm.DupMsgs != 1 {
		t.Fatalf("DupMsgs = %d after failover replay, want 1", cm.DupMsgs)
	}
}

// TestDeepBacklogDrainsUnderLossyLink pins the flow-control window. A
// sender that blasts its whole backlog onto each fresh connection can
// only retire frames if one connection survives the ENTIRE replay plus
// an ack round-trip — with a deep backlog on a lossy link that
// probability decays geometrically and retirement stalls forever, while
// replay traffic burns. The MaxInflight window writes a bounded batch
// per connection and lets acks retire the front between batches, so the
// backlog drains incrementally no matter how deep it got.
func TestDeepBacklogDrainsUnderLossyLink(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	coord := NewCoordinator(2)
	go coord.Serve(ln)

	inj := chaos.New(chaos.Config{Seed: 11, PDrop: 0.04, PCut: 0.02})
	s := mustDialFunc(t, inj.Dial(func() (io.WriteCloser, error) {
		return net.Dial("tcp", ln.Addr().String())
	}))

	// Free-running sends with no waits in between: the backlog gets deep
	// because faults kill connections faster than acks retire frames.
	const n = 250
	for i := 0; i < n; i++ {
		if err := s.Send(Msg{Site: 0, Kind: DirectionAdd, T: int64(i + 1), V: []float64{1, 0}}); err != nil {
			t.Fatal(err)
		}
	}
	if p := drainSender(s, 30*time.Second); p != 0 {
		t.Fatalf("%d of %d messages still pending: deep-backlog replay made no progress", p, n)
	}
	if st := inj.Stats(); st.Drops == 0 || st.Cuts == 0 {
		t.Fatalf("chaos fault mix too thin (stats %+v)", st)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		if f := mat.FrobSq(coord.Sketch()); math.Abs(f-n) < 1e-9 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sketch mass %v, want %d: frames were lost or double-applied", mat.FrobSq(coord.Sketch()), n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if cm := coord.Metrics(); cm.Msgs != n {
		t.Fatalf("coordinator applied %d messages, want %d", cm.Msgs, n)
	}
	s.DiscardPending = true
	s.Close()
}
