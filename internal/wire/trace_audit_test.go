package wire

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"math/rand"
	"testing"

	"distwindow/internal/audit"
	"distwindow/internal/trace"
	"distwindow/mat"
)

// legacyMsg is the pre-trace wire frame: Msg as it was before the Trace
// and Span fields existed. gob matches struct fields by name, so frames
// in this shape must keep decoding at a new coordinator (and new frames
// at an old coordinator).
type legacyMsg struct {
	Site  int
	Kind  Kind
	T     int64
	V     []float64
	Delta float64
}

func TestGobBackwardCompatOldSenderNewCoordinator(t *testing.T) {
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	frames := []legacyMsg{
		{Site: 0, Kind: DirectionAdd, T: 1, V: []float64{3, 4}},
		{Site: 1, Kind: SumDelta, T: 2, Delta: 7},
	}
	for _, f := range frames {
		if err := enc.Encode(f); err != nil {
			t.Fatal(err)
		}
	}

	c := NewCoordinator(2)
	if err := c.HandleConn(&buf); err != nil {
		t.Fatalf("HandleConn on legacy stream: %v", err)
	}
	cm := c.Metrics()
	if cm.Msgs != 2 || cm.BadMsgs != 0 {
		t.Fatalf("Msgs=%d BadMsgs=%d, want 2 applied and 0 rejected", cm.Msgs, cm.BadMsgs)
	}
	if got := mat.FrobSq(c.Sketch()); got < 24.9 || got > 25.1 {
		t.Fatalf("sketch mass %v, want 25 from the legacy direction", got)
	}
	if c.Sum() != 7 {
		t.Fatalf("Sum = %v, want 7 from the legacy delta", c.Sum())
	}
}

func TestGobForwardCompatNewSenderOldCoordinator(t *testing.T) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(Msg{
		Site: 3, Kind: DirectionAdd, T: 9, V: []float64{1, 2},
		Trace: 12345, Span: 678,
	}); err != nil {
		t.Fatal(err)
	}
	// An old coordinator decodes into the legacy shape; gob drops the
	// trace fields it does not know.
	var got legacyMsg
	if err := gob.NewDecoder(&buf).Decode(&got); err != nil {
		t.Fatalf("legacy decode of traced frame: %v", err)
	}
	if got.Site != 3 || got.Kind != DirectionAdd || got.T != 9 || len(got.V) != 2 {
		t.Fatalf("legacy decode mangled the frame: %+v", got)
	}
}

func TestHandleConnSurvivesMalformedFrames(t *testing.T) {
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	for _, m := range []Msg{
		{Site: 0, Kind: DirectionAdd, T: 1, V: []float64{1, 0}},
		{Site: 0, Kind: DirectionAdd, T: 2, V: []float64{1, 2, 3}}, // wrong dimension
		{Site: 0, Kind: Kind(99), T: 3},                            // unknown kind
		{Site: 0, Kind: DirectionAdd, T: 4, V: []float64{0, 1}},
	} {
		if err := enc.Encode(m); err != nil {
			t.Fatal(err)
		}
	}

	c := NewCoordinator(2)
	if err := c.HandleConn(&buf); err != nil {
		t.Fatalf("HandleConn should ride out rejected frames, got %v", err)
	}
	cm := c.Metrics()
	if cm.Msgs != 2 {
		t.Fatalf("applied %d messages, want 2 (the well-formed ones)", cm.Msgs)
	}
	if cm.BadMsgs != 2 {
		t.Fatalf("BadMsgs = %d, want 2", cm.BadMsgs)
	}
}

// TestDA2WireAuditAndTraceChain is the end-to-end check of this layer's
// observability: DA2 sites stream over the wire into a coordinator with
// the live ε-error auditor shadowing the exact window, asserting the
// observed err(A_w, B) stays within the audited ε at every tick, and the
// causal tracer must produce at least one complete ingest→send→apply
// chain plus a query span, exported as valid Chrome trace JSON.
func TestDA2WireAuditAndTraceChain(t *testing.T) {
	const (
		d     = 8
		m     = 3
		w     = int64(500)
		slo   = 0.1 // the audited target ε
		local = slo / 2
		rows  = 3000
	)
	ring := trace.NewRing(1 << 14)
	c := NewCoordinator(d, WithTracer(trace.New(ring, 1)))

	sites := make([]*DA2Site, m)
	for i := range sites {
		s, err := NewDA2Site(SiteConfig{ID: i, D: d, W: w, Eps: local}, Loopback{c})
		if err != nil {
			t.Fatal(err)
		}
		s.SetTracer(trace.New(ring, 1))
		sites[i] = s
	}

	aud, err := audit.New(audit.Config{
		D: d, W: w, Eps: slo,
		EveryRows: 64,
		Sketch:    c.Sketch,
	})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(7))
	for i := int64(1); i <= rows; i++ {
		v := randRow(d, rng)
		si := rng.Intn(m)
		if err := sites[si].Observe(i, v); err != nil {
			t.Fatal(err)
		}
		for k, s := range sites {
			if k != si {
				if err := s.Advance(i); err != nil {
					t.Fatal(err)
				}
			}
		}
		aud.Observe(i, v)
	}

	am := aud.Metrics()
	if am.Ticks < rows/64 {
		t.Fatalf("audit ticked %d times, want ≥ %d", am.Ticks, rows/64)
	}
	if am.Violations != 0 {
		t.Fatalf("audit saw %d violations of ε=%g (max err %v)", am.Violations, slo, am.MaxErr)
	}
	for _, s := range aud.Samples() {
		if s.Err > slo {
			t.Fatalf("audit tick at t=%d observed err %v > ε=%g", s.T, s.Err, slo)
		}
		if s.Headroom != slo-s.Err {
			t.Fatalf("sample headroom %v inconsistent with err %v", s.Headroom, s.Err)
		}
	}

	// One query span so the export covers the whole vocabulary.
	_ = c.Sketch()

	// The ring must hold at least one complete causal chain:
	// ingest (root) ← send (child) ← apply (linked across the frame).
	spans := ring.Snapshot()
	byID := make(map[uint64]trace.SpanRec, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	chains := 0
	sawQuery := false
	for _, s := range spans {
		switch s.Op {
		case trace.OpQuery:
			sawQuery = true
		case trace.OpApply:
			send, ok := byID[s.Parent]
			if !ok || send.Op != trace.OpSend {
				continue
			}
			ingest, ok := byID[send.Parent]
			if !ok || ingest.Op != trace.OpIngest {
				continue
			}
			if s.Trace != send.Trace || send.Trace != ingest.Trace || ingest.ID != ingest.Trace {
				t.Fatalf("chain trace ids disagree: apply=%d send=%d ingest=%d (root id %d)",
					s.Trace, send.Trace, ingest.Trace, ingest.ID)
			}
			chains++
		}
	}
	if chains == 0 {
		t.Fatalf("no complete ingest→send→apply chain among %d retained spans", len(spans))
	}
	if !sawQuery {
		t.Fatal("no query span recorded")
	}

	// The export must be valid Chrome trace JSON covering those spans.
	js, err := ring.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(js, &doc); err != nil {
		t.Fatalf("Chrome trace export is not valid JSON: %v", err)
	}
	ops := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if name, _ := ev["name"].(string); name != "" {
			ops[name] = true
		}
	}
	for _, want := range []string{"ingest", "send", "apply", "query"} {
		if !ops[want] {
			t.Fatalf("Chrome export missing %q events (have %v)", want, ops)
		}
	}
}

// TestSiteBucketInstantsCarrySiteID: a networked site runs a one-site core
// tracker, whose own site index is 0; the bucket-lifecycle instants it
// records must still carry the site's SiteConfig.ID.
func TestSiteBucketInstantsCarrySiteID(t *testing.T) {
	const id = 7
	cfg := SiteConfig{ID: id, D: 3, W: 40, Eps: 0.2}
	da1, err := NewDA1Site(cfg, &recordSender{})
	if err != nil {
		t.Fatal(err)
	}
	da2, err := NewDA2Site(cfg, &recordSender{})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := NewSumSite(cfg, &recordSender{})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []interface{ SetTracer(*trace.Tracer) }{da1, da2, sum} {
		ring := trace.NewRing(1 << 12)
		s.SetTracer(trace.New(ring, 1))
		for i := int64(1); i <= 200; i++ {
			var err error
			switch s := s.(type) {
			case *SumSite:
				err = s.Observe(i, float64(i%5+1))
			case interface{ Observe(int64, []float64) error }:
				err = s.Observe(i, []float64{float64(i % 3), 1, 0.5})
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		buckets := 0
		for _, sp := range ring.Snapshot() {
			switch sp.Op {
			case trace.OpBucketCreate, trace.OpBucketMerge, trace.OpBucketExpire:
				buckets++
				if sp.Site != id {
					t.Fatalf("%T: bucket instant %v labelled site %d, want %d", s, sp.Op, sp.Site, id)
				}
			}
		}
		if buckets == 0 {
			t.Fatalf("%T: no bucket instants recorded", s)
		}
	}
}
