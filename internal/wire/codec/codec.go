// Package codec defines the wire message types of the distributed
// deployment (Msg, Ack) and the two framings that can carry them: the
// legacy encoding/gob streams every release has spoken since the wire
// first existed, and the hand-rolled binary v2 framing (binary.go) that
// writes a direction row as one length-prefixed bulk copy instead of a
// reflective per-field walk.
//
// The types live here — not in package wire — so the framings can be
// implemented and fuzzed in isolation; package wire aliases them back
// (wire.Msg = codec.Msg), which keeps both the public API and the gob
// wire format unchanged: gob names a struct by its bare type name, so a
// frame encoded from codec.Msg is byte-identical to one encoded from the
// old wire.Msg.
//
// A connection's codec is chosen by the sender and detected by the
// coordinator from the first byte (Detect): a gob stream's first byte is
// a message length or a type-descriptor count, both encoded as gob
// unsigned ints whose first byte is < 0x80 or ≥ 0xF8 — so the v2 magic
// byte 0xD5, sitting in the gap [0x80, 0xF7], can never open a gob
// stream. Acks flow back in the codec the frames arrived in.
package codec

import (
	"bytes"
	"encoding/gob"
	"io"
	"sync"

	"distwindow/internal/obs/telemetry"
)

// Msg is the single message type of the one-way protocols.
//
// The trace fields propagate causal-trace context across the wire; they
// are zero on untraced messages, and gob's field matching keeps the frame
// format backward compatible in both directions: a pre-trace sender's
// frames decode at a new coordinator with zero trace fields, and a new
// sender's frames decode at an old coordinator, which ignores the fields
// it does not know. The same matching rule covers Seq: an old sender's
// frames decode with Seq 0 (unsequenced, no dedup, no acks) and a new
// sender's frames decode at an old coordinator, which simply never acks.
// StreamID rides the same rule: an old sender's frames decode with
// StreamID "" (the default stream), and a stream-aware sender's frames
// decode at an old coordinator, which folds every stream into its single
// estimate and acks without the stream tag — correct only for the default
// stream, which is why multiplexing non-default streams requires a
// stream-aware coordinator (see PROTOCOLS.md). The binary v2 framing
// carries the same fields behind presence flags, so the compatibility
// story is identical there.
type Msg struct {
	// Site identifies the sender.
	Site int
	// Kind selects the payload.
	Kind Kind
	// T is the emission time: the timestamp of the row or advance the
	// sending site was processing when it emitted the frame (not the
	// possibly older time a direction summarizes).
	T int64
	// V is a direction (Direction kinds): the frame carries the rank-one
	// update Delta·VVᵀ.
	V []float64
	// Delta is the scalar of the update. For SumDelta it is the change to
	// the sum. For a direction it is the rank-one scale when that is not
	// ±1 (DA1 ships unit eigenvectors with Delta = λ); 0 means ±1 by Kind,
	// which is how DA2, DA2-C and every legacy sender's frames apply.
	// Coordinators that predate scaled directions ignore it (see
	// PROTOCOLS.md, "Direction frames").
	Delta float64
	// Trace and Span carry the sender's trace context (0 = untraced): the
	// root trace ID and the sending span's ID, so the coordinator's apply
	// span joins the site's causal chain.
	Trace, Span uint64
	// Seq is the sender-assigned sequence number, strictly increasing per
	// site (0 = unsequenced legacy frame). The coordinator acknowledges
	// every sequenced frame it consumes and drops frames whose Seq it has
	// already seen, so replaying an unacknowledged backlog after a
	// reconnect or a site restart is exactly-once instead of at-most-once.
	// One (site, stream) pair must use one sequence space: its deltas are
	// dedup-keyed by (Site, StreamID, Seq).
	Seq uint64
	// StreamID names the logical stream this frame belongs to, letting
	// many independently-tracked streams multiplex over one connection.
	// "" is the default stream — the only stream that existed before
	// multiplexing, so legacy frames decode onto it unchanged. Each
	// stream has its own coordinator estimate, its own sequence space and
	// its own dedup/liveness record.
	StreamID string
	// Tele carries a telemetry frame (Telemetry kind only, nil otherwise).
	// Telemetry rides the same connection as the estimate traffic but
	// outside the seq/ack space: frames are unsequenced (Seq 0), never
	// acked, never deduped, and never touch the estimates or the delivery
	// counters, so enabling telemetry cannot perturb a deterministic data
	// soak.
	Tele *telemetry.Frame
}

// Ack acknowledges every sequenced frame of one (connection, stream) up
// to and including Seq. Acks are cumulative per stream and flow
// coordinator→site on the same TCP connection the frames arrived on; a
// sender may retire a whole per-stream backlog prefix on one ack.
type Ack struct {
	// Seq is the highest consumed sequence number of the stream.
	Seq uint64
	// Stream names the acknowledged stream ("" = default). Pre-stream
	// coordinators never set it, so their acks only retire the default
	// stream — see the Msg.StreamID compatibility note.
	Stream string
	// Nack, when set, turns the ack into a rewind request: the
	// coordinator consumed the stream only up to Seq and asks the sender
	// to re-send every unacknowledged frame of the stream from the
	// backlog — the recovery path after a CRC-rejected frame on a binary
	// v2 connection (PROTOCOLS.md, "corruption and resynchronization").
	// Old senders decode the unknown field away and treat the frame as a
	// plain cumulative ack, which retires nothing extra and is safe: on
	// gob connections corruption kills the connection and the redial
	// replays the backlog anyway.
	Nack bool
}

// Kind enumerates message payloads.
type Kind uint8

// Message kinds: directions add/remove vᵀv from the coordinator's Ĉ;
// SumDelta adjusts the scalar estimate; Telemetry carries a metrics frame
// for the fleet view (never part of the estimate or the seq/ack space).
const (
	DirectionAdd Kind = iota
	DirectionRemove
	SumDelta
	Telemetry
)

// Encoder writes Msg/Ack frames onto one stream. Implementations are not
// safe for concurrent use; the owning sender serializes.
//
// EncodeMsg may buffer: frames become visible to the peer at the latest
// on Flush, which writes everything buffered in one Write — the
// writev-style coalescing the resilient sender uses to replay a backlog
// batch in one syscall. The gob encoder writes through on every call and
// its Flush is a no-op, preserving the legacy stream byte for byte.
type Encoder interface {
	EncodeMsg(*Msg) error
	EncodeAck(Ack) error
	Flush() error
}

// Decoder reads Msg/Ack frames from one stream.
//
// DecodeMsg overwrites *Msg entirely. The binary decoder reuses its
// internal buffers: the returned Msg's V (and Tele) are valid only until
// the next Decode call — callers that retain a frame must copy. A
// *CorruptFrameError reports a frame rejected by CRC or structure with
// the stream already resynchronized: the caller may keep decoding.
type Decoder interface {
	DecodeMsg(*Msg) error
	DecodeAck(*Ack) error
}

// Codec pairs an encoder and decoder over one framing.
type Codec interface {
	// String is the codec's flag-friendly name ("gob", "v2").
	String() string
	NewEncoder(w io.Writer) Encoder
	NewDecoder(r io.Reader) Decoder
}

// Gob is the legacy encoding/gob framing — the wire format of every
// release before codec v2, byte-identical to the original streams.
var Gob Codec = gobCodec{}

// BinaryV2 is the hand-rolled little-endian binary framing with per-frame
// CRC and magic-boundary resynchronization (see binary.go and
// PROTOCOLS.md for the normative layout).
var BinaryV2 Codec = binaryCodec{}

// ByName resolves a codec from its flag name. Recognized: "gob", "v2"
// (also "binary", "binary-v2").
func ByName(name string) (Codec, bool) {
	switch name {
	case "gob":
		return Gob, true
	case "v2", "binary", "binary-v2":
		return BinaryV2, true
	}
	return nil, false
}

// Detect sniffs a connection's codec from its first byte and returns a
// decoder positioned at the start of the stream. A gob stream can never
// begin with the v2 magic byte (see the package comment), so the sniff is
// unambiguous. The read blocks until the sender's first frame arrives;
// io.EOF means the connection closed without sending anything.
func Detect(r io.Reader) (Decoder, Codec, error) {
	var first [1]byte
	if _, err := io.ReadFull(r, first[:]); err != nil {
		return nil, nil, err
	}
	if first[0] == magic0 {
		return newBinaryDecoderBuffered(r, first[:]), BinaryV2, nil
	}
	return Gob.NewDecoder(io.MultiReader(bytes.NewReader(first[:]), r)), Gob, nil
}

// gobCodec wraps encoding/gob behind the Codec seam.
type gobCodec struct{}

func (gobCodec) String() string { return "gob" }

func (gobCodec) NewEncoder(w io.Writer) Encoder { return &gobEncoder{enc: gob.NewEncoder(w)} }

func (gobCodec) NewDecoder(r io.Reader) Decoder { return &gobDecoder{dec: gob.NewDecoder(r)} }

type gobEncoder struct{ enc *gob.Encoder }

func (e *gobEncoder) EncodeMsg(m *Msg) error { return e.enc.Encode(m) }
func (e *gobEncoder) EncodeAck(a Ack) error  { return e.enc.Encode(a) }
func (e *gobEncoder) Flush() error           { return nil }

type gobDecoder struct{ dec *gob.Decoder }

func (d *gobDecoder) DecodeMsg(m *Msg) error {
	// gob leaves fields absent on the wire untouched, so a reused Msg
	// must be cleared or a short frame would inherit the previous one's
	// V/Tele.
	*m = Msg{}
	return d.dec.Decode(m)
}

func (d *gobDecoder) DecodeAck(a *Ack) error {
	*a = Ack{}
	return d.dec.Decode(a)
}

// freelist recycles byte buffers across connections and flushes — the
// PR 4 freelist idiom (a mutex-guarded stack, no sync.Pool GC coupling).
// Encoders borrow a buffer per coalesced batch and return it on Flush;
// decoders borrow one per connection and return it on Release, so
// reconnect churn stops paying buffer warm-up.
type freelist struct {
	mu   sync.Mutex
	free [][]byte
}

// freelistCap bounds retained buffers; freelistMaxBuf drops oversized
// buffers for the GC so one giant frame cannot pin memory forever.
const (
	freelistCap    = 64
	freelistMaxBuf = 1 << 20
)

func (p *freelist) get() []byte {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		b := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return b[:0]
	}
	p.mu.Unlock()
	return make([]byte, 0, 4096)
}

func (p *freelist) put(b []byte) {
	if cap(b) == 0 || cap(b) > freelistMaxBuf {
		return
	}
	p.mu.Lock()
	if len(p.free) < freelistCap {
		p.free = append(p.free, b[:0])
	}
	p.mu.Unlock()
}

var frameBufs freelist
