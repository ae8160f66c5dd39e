package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"

	"distwindow/internal/obs"
	"distwindow/internal/wire/codec"
)

func TestWithResilienceUnsupportedOnNewSender(t *testing.T) {
	var sink bytes.Buffer
	_, err := NewSender(nopCloser{&sink}, WithResilience(ResilienceConfig{MaxBacklog: 5}))
	if !errors.Is(err, ErrOptionUnsupported) {
		t.Fatalf("NewSender(WithResilience) = %v, want ErrOptionUnsupported", err)
	}
	if _, err := NewSender(nopCloser{&sink}, WithCodec(nil)); err == nil {
		t.Fatal("WithCodec(nil) accepted")
	}
}

// TestWithStreamStampsBeforeSequencing pins the ordering subtlety: the
// default-stream stamp must land before the sequence stamp, because each
// stream owns its own sequence space.
func TestWithStreamStampsBeforeSequencing(t *testing.T) {
	s, err := DialFunc(func() (io.WriteCloser, error) {
		return nil, errors.New("down")
	}, WithStream("alpha"))
	if err != nil {
		t.Fatal(err)
	}
	s.Send(Msg{Kind: SumDelta, Delta: 1})
	s.Send(Msg{Kind: SumDelta, Delta: 2})
	s.Send(Msg{Kind: SumDelta, Delta: 3, StreamID: "beta"})
	st := s.State()
	if len(st.Backlog) != 3 {
		t.Fatalf("backlog %d, want 3", len(st.Backlog))
	}
	want := []struct {
		stream string
		seq    uint64
	}{{"alpha", 1}, {"alpha", 2}, {"beta", 1}}
	for i, w := range want {
		m := st.Backlog[i]
		if m.StreamID != w.stream || m.Seq != w.seq {
			t.Fatalf("backlog[%d] = stream %q seq %d, want %q %d — default stream must be stamped before sequencing",
				i, m.StreamID, m.Seq, w.stream, w.seq)
		}
	}
}

func TestNewSenderWithCodecAndStream(t *testing.T) {
	var sink bytes.Buffer
	s, err := NewSender(nopCloser{&sink}, WithCodec(BinaryV2), WithStream("prices"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Send(Msg{Site: 4, Kind: SumDelta, Delta: 2.5}); err != nil {
		t.Fatal(err)
	}
	dec, cdc, err := codec.Detect(&sink)
	if err != nil {
		t.Fatal(err)
	}
	if cdc != BinaryV2 {
		t.Fatalf("sniffed %v, want v2", cdc)
	}
	var m Msg
	if err := dec.DecodeMsg(&m); err != nil {
		t.Fatal(err)
	}
	if m.Site != 4 || m.Delta != 2.5 || m.StreamID != "prices" {
		t.Fatalf("decoded %+v", m)
	}
}

func TestWithResilienceFields(t *testing.T) {
	s, err := DialFunc(func() (io.WriteCloser, error) {
		return nil, errors.New("down")
	}, WithResilience(ResilienceConfig{
		DialTimeout:    3 * time.Second,
		MaxBacklog:     7,
		MaxInflight:    -1, // unlimited
		BackoffBase:    2 * time.Millisecond,
		BackoffMax:     20 * time.Millisecond,
		JitterSeed:     9,
		DiscardPending: true,
	}))
	if err != nil {
		t.Fatal(err)
	}
	if s.DialTimeout != 3*time.Second || s.MaxBacklog != 7 || s.MaxInflight != 0 ||
		s.BackoffBase != 2*time.Millisecond || s.BackoffMax != 20*time.Millisecond || !s.DiscardPending {
		t.Fatalf("resilience config not applied: %+v", s)
	}
	// MaxInflight 0 keeps the default window.
	s2, err := DialFunc(func() (io.WriteCloser, error) { return nil, errors.New("down") },
		WithResilience(ResilienceConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	if s2.MaxInflight != DefaultMaxInflight {
		t.Fatalf("zero MaxInflight overrode the default: %d", s2.MaxInflight)
	}
}

// TestDefaultCodecIsGob: senders built without WithCodec speak gob, the
// framing every coordinator understands.
func TestDefaultCodecIsGob(t *testing.T) {
	var sink bytes.Buffer
	cs, err := NewSender(nopCloser{&sink})
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.Send(Msg{Site: 1, Kind: SumDelta, Delta: 1}); err != nil {
		t.Fatal(err)
	}
	_, cdc, err := codec.Detect(&sink)
	if err != nil {
		t.Fatal(err)
	}
	if cdc != Gob {
		t.Fatalf("NewSender writes %v, want gob", cdc)
	}
	rs := mustDialFunc(t, func() (io.WriteCloser, error) { return nil, errors.New("down") })
	if rs.cdc() != Gob {
		t.Fatalf("DialFunc codec = %v, want gob", rs.cdc())
	}
}

func TestCoordinatorOptions(t *testing.T) {
	var events []obs.Event
	c := NewCoordinator(2,
		WithStaleAfter(10*time.Second),
		WithSink(obs.FuncSink(func(e obs.Event) { events = append(events, e) })),
		WithTelemetry(),
	)
	if c.Fleet() == nil {
		t.Fatal("WithTelemetry did not attach a fleet view")
	}
	clock := time.Unix(0, 0)
	c.now = func() time.Time { return clock }
	c.Apply(Msg{Site: 0, Kind: SumDelta, Delta: 1, Seq: 1})
	clock = clock.Add(time.Minute)
	if n := c.CheckLiveness(); n != 1 {
		t.Fatalf("WithStaleAfter not applied: %d stale sites, want 1", n)
	}
	var ok bool
	for _, e := range events {
		if e.Kind == obs.EvSiteStale {
			ok = true
		}
	}
	if !ok {
		t.Fatal("WithSink not applied: no EvSiteStale event observed")
	}
}
