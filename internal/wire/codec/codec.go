// Package codec defines the wire message types of the distributed
// deployment (Msg, Ack) and the binary v2 framing that carries them
// (binary.go): little-endian fixed-width frames, each with a CRC-32C, that
// write a direction row as one length-prefixed bulk copy and let a
// corrupted stream resynchronize at the next magic boundary.
//
// The types live here, not in package wire, so the framing can be
// implemented and fuzzed in isolation; package wire aliases them back
// (wire.Msg = codec.Msg).
//
// Binary v2 is the only wire framing. Every v2 stream opens with the
// magic byte 0xD5 (the Hello preamble), and Detect refuses a stream that
// does not with ErrNotV2: a pre-v2 sender's encoding/gob stream opens with
// a gob unsigned int, whose first byte is < 0x80 or >= 0xF8, so it is
// refused on its first byte instead of being scanned for magic forever.
package codec

import (
	"errors"
	"io"
	"sync"

	"distwindow/internal/obs/telemetry"
)

// Msg is the single message type of the one-way protocols.
//
// The v2 framing carries the optional fields (Delta, StreamID, the trace
// context, Tele) behind presence flags, so a zero field costs no bytes.
// Msg also rides in site checkpoints (wire.SenderState.Backlog), which
// gob-encode it: gob matches fields by name, so a checkpoint written
// before a field existed restores with that field zero.
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
	// which is how DA2 and DA2-C frames apply (see PROTOCOLS.md,
	// "Direction frames").
	Delta float64
	// Trace and Span carry the sender's trace context (0 = untraced): the
	// root trace ID and the sending span's ID, so the coordinator's apply
	// span joins the site's causal chain.
	Trace, Span uint64
	// Seq is the sender-assigned sequence number, strictly increasing per
	// (site, stream). 0 means unsequenced: a bare NewSender's frames and
	// telemetry frames carry it, and the coordinator applies them without
	// dedup and never acks them. The coordinator acknowledges every
	// sequenced frame it consumes and drops frames whose Seq it has
	// already seen, so replaying an unacknowledged backlog after a
	// reconnect or a site restart is exactly-once instead of at-most-once.
	// One (site, stream) pair must use one sequence space: its deltas are
	// dedup-keyed by (Site, StreamID, Seq).
	Seq uint64
	// StreamID names the logical stream this frame belongs to, letting
	// many independently-tracked streams multiplex over one connection.
	// "" is the default stream. Each stream has its own coordinator
	// estimate, its own sequence space and its own dedup/liveness record.
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
	// Stream names the acknowledged stream ("" = default).
	Stream string
	// Nack, when set, turns the ack into a rewind request: the
	// coordinator consumed the stream only up to Seq and asks the sender
	// to re-send every unacknowledged frame of the stream from the
	// backlog — the recovery path after a CRC-rejected frame
	// (PROTOCOLS.md, "corruption and resynchronization").
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
// batch in one syscall.
type Encoder interface {
	EncodeMsg(*Msg) error
	EncodeAck(Ack) error
	Flush() error
}

// Decoder reads Msg/Ack frames from one stream.
//
// DecodeMsg overwrites *Msg entirely. The decoder reuses its internal
// buffers: the returned Msg's V (and Tele) are valid only until the next
// Decode call — callers that retain a frame must copy. A
// *CorruptFrameError reports a frame rejected by CRC or structure with
// the stream already resynchronized: the caller may keep decoding.
//
// Release returns the decoder's window buffer to a process-wide freelist;
// the decoder must not be used afterwards. Connection handlers call it so
// reconnect churn recycles buffers; a dropped decoder is merely garbage.
type Decoder interface {
	DecodeMsg(*Msg) error
	DecodeAck(*Ack) error
	Release()
}

// Codec pairs an encoder and decoder over one framing. BinaryV2 is the
// only implementation.
type Codec interface {
	NewEncoder(w io.Writer) Encoder
	NewDecoder(r io.Reader) Decoder
}

// BinaryV2 is the hand-rolled little-endian binary framing with per-frame
// CRC and magic-boundary resynchronization (see binary.go and
// PROTOCOLS.md for the normative layout).
var BinaryV2 Codec = binaryCodec{}

// ErrNotV2 reports a stream whose first byte is not the binary v2 magic:
// the peer speaks another framing (a pre-v2 gob sender, say), and nothing
// it sends can be decoded.
var ErrNotV2 = errors.New("wire/codec: stream does not open with the binary v2 magic byte")

// Detect checks that a stream opens with the binary v2 magic byte and
// returns a decoder positioned at the start of the stream. Any other first
// byte is refused with ErrNotV2. The read blocks until the sender's first
// frame arrives; io.EOF means the connection closed without sending
// anything.
func Detect(r io.Reader) (Decoder, Codec, error) {
	var first [1]byte
	if _, err := io.ReadFull(r, first[:]); err != nil {
		return nil, nil, err
	}
	if first[0] != magic0 {
		return nil, nil, ErrNotV2
	}
	return newBinaryDecoderBuffered(r, first[:]), BinaryV2, nil
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
