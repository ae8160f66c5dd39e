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
}

// TestNewSenderWithCodecAndStream: a NewSender's stream view writes binary
// v2 stamped with its stream id; the deprecated WithCodec is accepted and
// changes nothing.
func TestNewSenderWithCodecAndStream(t *testing.T) {
	var sink bytes.Buffer
	s, err := NewSender(nopCloser{&sink}, WithCodec(codec.BinaryV2))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Stream("prices").Send(Msg{Site: 4, Kind: SumDelta, Delta: 2.5}); err != nil {
		t.Fatal(err)
	}
	dec, cdc, err := codec.Detect(&sink)
	if err != nil {
		t.Fatal(err)
	}
	if cdc != codec.BinaryV2 {
		t.Fatalf("Detect returned %v, want BinaryV2", cdc)
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
	s, err := DialFunc(func() (io.ReadWriteCloser, error) {
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
	s2, err := DialFunc(func() (io.ReadWriteCloser, error) { return nil, errors.New("down") },
		WithResilience(ResilienceConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	if s2.MaxInflight != DefaultMaxInflight {
		t.Fatalf("zero MaxInflight overrode the default: %d", s2.MaxInflight)
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
