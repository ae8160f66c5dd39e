package codec

import (
	"bytes"
	"encoding/gob"
	"errors"
	"io"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"distwindow/internal/obs"
	"distwindow/internal/obs/telemetry"
)

// copyMsg deep-copies a decoded Msg out of the decoder's reusable buffers
// and normalizes empty-vs-nil so a round trip compares equal to its input.
func copyMsg(m Msg) Msg {
	if len(m.V) > 0 {
		m.V = append([]float64(nil), m.V...)
	} else {
		m.V = nil
	}
	if m.Tele != nil {
		t := *m.Tele
		if len(t.UpdateLat.Buckets) > 0 {
			t.UpdateLat.Buckets = append([]obs.HistBucket(nil), t.UpdateLat.Buckets...)
		} else {
			t.UpdateLat.Buckets = nil
		}
		m.Tele = &t
	}
	return m
}

// normMsg normalizes an input Msg the same way for comparison.
func normMsg(m Msg) Msg { return copyMsg(m) }

func randTele(rng *rand.Rand) *telemetry.Frame {
	f := &telemetry.Frame{
		Site:           rng.Intn(1 << 20),
		Stream:         "s" + string(rune('a'+rng.Intn(26))),
		Proto:          "da2",
		UnixNs:         rng.Int63(),
		Rows:           rng.Int63n(1 << 40),
		Msgs:           rng.Int63n(1 << 30),
		Words:          rng.Int63n(1 << 30),
		Replays:        rng.Int63n(100),
		Acked:          rng.Int63n(1 << 30),
		Backlog:        rng.Int63n(1000),
		Dials:          rng.Int63n(50),
		DialFails:      rng.Int63n(50),
		Eps:            rng.Float64(),
		Err:            rng.Float64(),
		Headroom:       rng.Float64(),
		WordsPerWindow: rng.Float64() * 1e6,
		Violations:     rng.Int63n(10),
	}
	f.UpdateLat.Count = rng.Int63n(1 << 20)
	f.UpdateLat.SumNs = rng.Int63n(1 << 40)
	for i := 0; i < rng.Intn(8); i++ {
		f.UpdateLat.Buckets = append(f.UpdateLat.Buckets,
			obs.HistBucket{UpperNs: int64(1000 << uint(i)), Count: rng.Int63n(1 << 20)})
	}
	return f
}

func randMsg(rng *rand.Rand) Msg {
	m := Msg{
		Site: rng.Intn(1 << 16),
		Kind: Kind(rng.Intn(4)),
		T:    rng.Int63(),
		Seq:  rng.Uint64() >> 1,
	}
	switch m.Kind {
	case DirectionAdd, DirectionRemove:
		n := 1 + rng.Intn(64)
		m.V = make([]float64, n)
		for i := range m.V {
			m.V[i] = rng.NormFloat64()
		}
	case SumDelta:
		m.Delta = rng.NormFloat64()
	case Telemetry:
		m.Tele = randTele(rng)
		m.Seq = 0
	}
	if rng.Intn(2) == 0 {
		m.Trace, m.Span = rng.Uint64(), rng.Uint64()
	}
	if rng.Intn(2) == 0 {
		m.StreamID = "stream-" + string(rune('a'+rng.Intn(26)))
	}
	return m
}

// TestMsgRoundTripProperty is the round-trip property test: for a large
// randomized sample covering every Msg kind and every presence-flag
// combination, the codec must decode back exactly what was encoded — the
// binary framing is a re-encoding, never a re-interpretation.
func TestMsgRoundTripProperty(t *testing.T) {
	rng := rand.NewSource(42)
	r := rand.New(rng)
	msgs := make([]Msg, 0, 400)
	for i := 0; i < 400; i++ {
		msgs = append(msgs, randMsg(r))
	}
	// Deterministic edge cases on top of the random sample.
	msgs = append(msgs,
		Msg{},
		Msg{Site: math.MaxInt32, Kind: SumDelta, Delta: math.Inf(1), T: math.MinInt64},
		Msg{Site: math.MinInt32, Kind: DirectionAdd, V: []float64{math.NaN()}},
		Msg{Kind: DirectionRemove, V: make([]float64, 1024), Seq: math.MaxUint64},
		Msg{StreamID: "только-utf8-✓", Kind: SumDelta, Delta: -1},
	)

	var buf bytes.Buffer
	enc := BinaryV2.NewEncoder(&buf)
	for i := range msgs {
		m := msgs[i]
		if err := enc.EncodeMsg(&m); err != nil {
			t.Fatalf("encode msg %d: %v", i, err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	dec := BinaryV2.NewDecoder(&buf)
	defer dec.Release()
	for i := range msgs {
		var got Msg
		if err := dec.DecodeMsg(&got); err != nil {
			t.Fatalf("decode msg %d: %v", i, err)
		}
		want := normMsg(msgs[i])
		g := copyMsg(got)
		// NaN breaks DeepEqual; compare bit patterns for V.
		if len(want.V) == len(g.V) {
			for j := range want.V {
				if math.Float64bits(want.V[j]) != math.Float64bits(g.V[j]) {
					t.Fatalf("msg %d V[%d]: got %x want %x", i, j,
						math.Float64bits(g.V[j]), math.Float64bits(want.V[j]))
				}
			}
			want.V, g.V = nil, nil
		}
		if !reflect.DeepEqual(want, g) {
			t.Fatalf("msg %d round trip:\n got %+v\nwant %+v", i, g, want)
		}
	}
	var tail Msg
	if err := dec.DecodeMsg(&tail); err != io.EOF {
		t.Fatalf("want io.EOF after last frame, got %v", err)
	}
}

func TestAckRoundTrip(t *testing.T) {
	acks := []Ack{
		{},
		{Seq: 1},
		{Seq: math.MaxUint64, Stream: "prices"},
		{Seq: 7, Nack: true},
		{Seq: 9, Stream: "s", Nack: true},
	}
	var buf bytes.Buffer
	enc := BinaryV2.NewEncoder(&buf)
	for _, a := range acks {
		if err := enc.EncodeAck(a); err != nil {
			t.Fatalf("encode: %v", err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	dec := BinaryV2.NewDecoder(&buf)
	for i, want := range acks {
		var got Ack
		if err := dec.DecodeAck(&got); err != nil {
			t.Fatalf("decode ack %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("ack %d: got %+v want %+v", i, got, want)
		}
	}
}

// TestHelloPreamble checks the handshake frame: written once, invisible
// to DecodeMsg, and its version lands in PeerVersion.
func TestHelloPreamble(t *testing.T) {
	var buf bytes.Buffer
	enc := BinaryV2.NewEncoder(&buf)
	m := Msg{Site: 1, Kind: SumDelta, Delta: 2}
	if err := enc.EncodeMsg(&m); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if raw[0] != magic0 || raw[1] != magic1 || raw[2] != Version<<4|ftHello {
		t.Fatalf("stream does not open with a Hello frame: % x", raw[:4])
	}
	dec := BinaryV2.NewDecoder(&buf).(*binaryDecoder)
	var got Msg
	if err := dec.DecodeMsg(&got); err != nil {
		t.Fatalf("decode through Hello: %v", err)
	}
	if got.Site != 1 || got.Delta != 2 {
		t.Fatalf("got %+v", got)
	}
	if dec.PeerVersion() != Version {
		t.Fatalf("PeerVersion = %d, want %d", dec.PeerVersion(), Version)
	}
	// A second Flush cycle must not repeat the Hello.
	m2 := Msg{Site: 2, Kind: SumDelta, Delta: 3}
	if err := enc.EncodeMsg(&m2); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	if buf.Bytes()[2] == Version<<4|ftHello {
		t.Fatal("second batch repeated the Hello preamble")
	}
}

func TestDetect(t *testing.T) {
	var buf bytes.Buffer
	enc := BinaryV2.NewEncoder(&buf)
	m := Msg{Site: 3, Kind: SumDelta, Delta: 1.5, Seq: 1}
	if err := enc.EncodeMsg(&m); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	dec, got, err := Detect(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != BinaryV2 {
		t.Fatalf("Detect returned %v, want BinaryV2", got)
	}
	var out Msg
	if err := dec.DecodeMsg(&out); err != nil {
		t.Fatalf("decode after Detect: %v", err)
	}
	if out.Site != 3 || out.Delta != 1.5 || out.Seq != 1 {
		t.Fatalf("got %+v", out)
	}
	// A pre-v2 gob sender's stream is refused on its first byte.
	buf.Reset()
	if err := gob.NewEncoder(&buf).Encode(m); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Detect(&buf); !errors.Is(err, ErrNotV2) {
		t.Fatalf("Detect on a gob stream: %v, want ErrNotV2", err)
	}
	// Empty connection: EOF, not a refusal.
	if _, _, err := Detect(bytes.NewReader(nil)); err != io.EOF {
		t.Fatalf("Detect on empty stream: %v, want io.EOF", err)
	}
}

// encodeFrames returns the raw bytes of the given messages (with Hello).
func encodeFrames(t *testing.T, msgs ...Msg) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := BinaryV2.NewEncoder(&buf)
	for i := range msgs {
		if err := enc.EncodeMsg(&msgs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// frameOffsets returns the start offset of each frame in raw (including
// the Hello at 0) by walking the trusted length fields.
func frameOffsets(raw []byte) []int {
	var offs []int
	for off := 0; off+headerLen <= len(raw); {
		offs = append(offs, off)
		plen := int(uint32(raw[off+4]) | uint32(raw[off+5])<<8 | uint32(raw[off+6])<<16 | uint32(raw[off+7])<<24)
		off += headerLen + plen
	}
	return offs
}

// TestResyncAfterCRCCorruption flips one payload byte in the middle frame
// of three: the decoder must reject exactly that frame and deliver the
// other two.
func TestResyncAfterCRCCorruption(t *testing.T) {
	m1 := Msg{Site: 1, Kind: DirectionAdd, V: []float64{1, 2, 3}, Seq: 1}
	m2 := Msg{Site: 1, Kind: DirectionAdd, V: []float64{4, 5, 6}, Seq: 2}
	m3 := Msg{Site: 1, Kind: DirectionAdd, V: []float64{7, 8, 9}, Seq: 3}
	raw := encodeFrames(t, m1, m2, m3)
	offs := frameOffsets(raw)
	if len(offs) != 4 { // Hello + 3 msgs
		t.Fatalf("frame walk found %d frames, want 4", len(offs))
	}
	raw[offs[2]+headerLen+5] ^= 0xFF // corrupt m2's payload

	dec := BinaryV2.NewDecoder(bytes.NewReader(raw))
	var got Msg
	if err := dec.DecodeMsg(&got); err != nil || got.Seq != 1 {
		t.Fatalf("frame 1: %+v, %v", got, err)
	}
	err := dec.DecodeMsg(&got)
	var cfe *CorruptFrameError
	if !errors.As(err, &cfe) {
		t.Fatalf("frame 2: want CorruptFrameError, got %v", err)
	}
	if cfe.Skipped == 0 {
		t.Fatalf("resync skipped 0 bytes: %v", cfe)
	}
	if err := dec.DecodeMsg(&got); err != nil || got.Seq != 3 {
		t.Fatalf("frame 3 after resync: %+v, %v", got, err)
	}
	if err := dec.DecodeMsg(&got); err != io.EOF {
		t.Fatalf("tail: %v, want io.EOF", err)
	}
}

// TestResyncAfterGarbagePrefix: leading junk before the first magic is
// reported once and the stream recovers.
func TestResyncAfterGarbagePrefix(t *testing.T) {
	m := Msg{Site: 9, Kind: SumDelta, Delta: 4, Seq: 1}
	raw := append([]byte{0x01, 0x02, 0x03, 0x04, 0xFF, 0xFE}, encodeFrames(t, m)...)
	dec := BinaryV2.NewDecoder(bytes.NewReader(raw))
	var got Msg
	err := dec.DecodeMsg(&got)
	var cfe *CorruptFrameError
	if !errors.As(err, &cfe) {
		t.Fatalf("want CorruptFrameError on junk prefix, got %v", err)
	}
	if err := dec.DecodeMsg(&got); err != nil || got.Seq != 1 {
		t.Fatalf("after resync: %+v, %v", got, err)
	}
}

// TestStructurallyMalformedPayload forges a CRC-valid frame whose declared
// row length overruns the payload: rejected as corrupt, frame skipped
// whole (trustworthy length ⇒ zero extra bytes scanned), stream continues.
func TestStructurallyMalformedPayload(t *testing.T) {
	good := Msg{Site: 2, Kind: SumDelta, Delta: 1, Seq: 5}
	var bad []byte
	bad, start := beginFrame(nil, ftMsg, 0)
	bad = appendU32(bad, 1)         // site
	bad = append(bad, byte(0))      // kind
	bad = appendU64(bad, 0)         // t
	bad = appendU64(bad, 1)         // seq
	bad = appendU32(bad, 1_000_000) // vlen far beyond the payload
	bad = sealFrameAt(bad, start)

	raw := append(bad, encodeFrames(t, good)...)
	dec := BinaryV2.NewDecoder(bytes.NewReader(raw))
	var got Msg
	err := dec.DecodeMsg(&got)
	var cfe *CorruptFrameError
	if !errors.As(err, &cfe) {
		t.Fatalf("want CorruptFrameError, got %v", err)
	}
	if cfe.Skipped != 0 {
		t.Fatalf("structurally-malformed frame should skip whole (0 scanned), got %d", cfe.Skipped)
	}
	if err := dec.DecodeMsg(&got); err != nil || got.Seq != 5 {
		t.Fatalf("after malformed frame: %+v, %v", got, err)
	}
}

// TestTruncatedFrameIsUnexpectedEOF: a connection dying mid-frame is a
// transport error, not corruption — the distinction keeps chaos-cut
// connections from counting as BadMsgs.
func TestTruncatedFrameIsUnexpectedEOF(t *testing.T) {
	raw := encodeFrames(t, Msg{Site: 1, Kind: DirectionAdd, V: []float64{1, 2}, Seq: 1})
	dec := BinaryV2.NewDecoder(bytes.NewReader(raw[:len(raw)-3]))
	var got Msg
	if err := dec.DecodeMsg(&got); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated frame: %v, want io.ErrUnexpectedEOF", err)
	}
}

// countingWriter counts Write calls to observe coalescing.
type countingWriter struct {
	writes int
	bytes  int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	w.bytes += len(p)
	return len(p), nil
}

// TestCoalescing: a batch of encodes below the flush threshold reaches
// the writer as exactly one Write.
func TestCoalescing(t *testing.T) {
	var w countingWriter
	enc := BinaryV2.NewEncoder(&w)
	for i := 0; i < 50; i++ {
		m := Msg{Site: 1, Kind: DirectionAdd, V: make([]float64, 16), Seq: uint64(i + 1)}
		if err := enc.EncodeMsg(&m); err != nil {
			t.Fatal(err)
		}
	}
	if w.writes != 0 {
		t.Fatalf("writes before Flush = %d, want 0 (coalesced)", w.writes)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.writes != 1 {
		t.Fatalf("writes after Flush = %d, want 1", w.writes)
	}
	// Above the threshold the encoder self-flushes to bound memory.
	w = countingWriter{}
	enc = BinaryV2.NewEncoder(&w)
	big := Msg{Site: 1, Kind: DirectionAdd, V: make([]float64, 4096)}
	for i := 0; i < 4; i++ {
		if err := enc.EncodeMsg(&big); err != nil {
			t.Fatal(err)
		}
	}
	if w.writes < 2 {
		t.Fatalf("threshold self-flush did not trigger: %d writes for %d bytes", w.writes, w.bytes)
	}
}

// TestEncodeErrorLeavesBatchIntact: a rejected frame (site outside int32)
// must not corrupt the pending batch — everything already encoded still
// decodes.
func TestEncodeErrorLeavesBatchIntact(t *testing.T) {
	var buf bytes.Buffer
	enc := BinaryV2.NewEncoder(&buf)
	ok := Msg{Site: 1, Kind: SumDelta, Delta: 1, Seq: 1}
	if err := enc.EncodeMsg(&ok); err != nil {
		t.Fatal(err)
	}
	bad := Msg{Site: math.MaxInt32 + 1, Kind: SumDelta, Delta: 2, Seq: 2}
	if err := enc.EncodeMsg(&bad); err == nil {
		t.Fatal("site beyond int32 must not encode")
	}
	ok2 := Msg{Site: 2, Kind: SumDelta, Delta: 3, Seq: 2}
	if err := enc.EncodeMsg(&ok2); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	dec := BinaryV2.NewDecoder(&buf)
	var got Msg
	if err := dec.DecodeMsg(&got); err != nil || got.Seq != 1 {
		t.Fatalf("frame 1: %+v %v", got, err)
	}
	if err := dec.DecodeMsg(&got); err != nil || got.Site != 2 {
		t.Fatalf("frame after rejected encode: %+v %v", got, err)
	}
}

// TestDecoderBufferReuse pins the documented aliasing contract: the V of
// a decoded Msg is overwritten by the next decode.
func TestDecoderBufferReuse(t *testing.T) {
	raw := encodeFrames(t,
		Msg{Site: 1, Kind: DirectionAdd, V: []float64{1, 1, 1}, Seq: 1},
		Msg{Site: 1, Kind: DirectionAdd, V: []float64{2, 2, 2}, Seq: 2},
	)
	dec := BinaryV2.NewDecoder(bytes.NewReader(raw))
	var a, b Msg
	if err := dec.DecodeMsg(&a); err != nil {
		t.Fatal(err)
	}
	first := a.V
	if err := dec.DecodeMsg(&b); err != nil {
		t.Fatal(err)
	}
	if &first[0] != &b.V[0] {
		t.Fatal("decoder did not reuse its row buffer (zero-copy contract)")
	}
	if first[0] != 2 {
		t.Fatalf("aliased row not overwritten: %v", first)
	}
}
