package codec

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"distwindow/internal/obs"
	"distwindow/internal/obs/telemetry"
)

// Binary v2 framing. Every frame is
//
//	offset  size  field
//	0       1     magic0 (0xD5)
//	1       1     magic1 (0x9C)
//	2       1     version<<4 | frame type (0 Hello, 1 Msg, 2 Ack)
//	3       1     flags (presence bits, per frame type)
//	4       4     payload length, uint32 LE
//	8       4     CRC-32C (Castagnoli) of header[0:8] + payload, LE
//	12      —     payload
//
// all little-endian, fixed-width, varint-free. The CRC covers the header
// prefix too, so a flipped length or flag byte is caught, not obeyed. A
// frame that fails the CRC proves nothing about its own length field, so
// the decoder resynchronizes by scanning forward from the byte after the
// magic for the next magic pair; a frame whose CRC passes but whose
// payload is structurally malformed is skipped whole (its length is
// trustworthy). Both come back to the caller as *CorruptFrameError with
// the stream already positioned at the next candidate frame — corruption
// costs the frames it touched, never the connection.
//
// Msg payload (frame type 1), in order:
//
//	site  int32    kind uint8    t int64    seq uint64
//	[delta float64]                 — flagDelta
//	[stream uint16 len + bytes]     — flagStream
//	[trace uint64, span uint64]     — flagTrace
//	vlen  uint32 + vlen × float64   — always present (0 for scalar kinds)
//	[telemetry section]             — flagTele (see appendTele)
//
// Ack payload (frame type 2): seq uint64, then [stream uint16 len +
// bytes] under flagAckStream; flagNack marks a rewind request.
//
// Hello (frame type 0) is the one-shot handshake preamble: each encoder
// writes one Hello before its first frame, carrying the highest codec
// version the sender speaks; decoders record it and skip the frame. It
// puts the magic byte first on every stream (what Detect checks) and lets
// a future v3 be negotiated without a new magic byte.
const (
	magic0 = 0xD5
	magic1 = 0x9C

	// Version is the framing version this package speaks.
	Version = 2

	ftHello = 0
	ftMsg   = 1
	ftAck   = 2

	flagTrace  = 1 << 0
	flagTele   = 1 << 1
	flagStream = 1 << 2
	flagDelta  = 1 << 3

	flagNack      = 1 << 0
	flagAckStream = 1 << 1

	headerLen = 12

	// maxFramePayload bounds a frame's declared payload: ~8M floats per
	// direction row is far beyond any real dimension, and the bound keeps
	// a corrupted-but-CRC-lucky length from allocating gigabytes.
	maxFramePayload = 1 << 26

	// flushThreshold caps the coalescing buffer: a backlog replay flushes
	// whenever the pending batch reaches this size, then keeps encoding.
	flushThreshold = 64 << 10
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// CorruptFrameError reports one rejected frame region on a binary v2
// stream. The decoder has already resynchronized past it: decoding may
// continue, and the bytes the rejected frame occupied are lost — the
// delivery layer's nack/replay machinery recovers the data.
type CorruptFrameError struct {
	// Reason is a short diagnostic ("crc mismatch", "bad magic", ...).
	Reason string
	// Skipped is the number of bytes discarded while scanning for the
	// next magic boundary (0 when the frame was skipped whole).
	Skipped int
}

func (e *CorruptFrameError) Error() string {
	return fmt.Sprintf("wire/codec: corrupt frame (%s), %d bytes skipped to resync", e.Reason, e.Skipped)
}

type binaryCodec struct{}

func (binaryCodec) NewEncoder(w io.Writer) Encoder { return &binaryEncoder{w: w} }

func (binaryCodec) NewDecoder(r io.Reader) Decoder { return newBinaryDecoderBuffered(r, nil) }

// binaryEncoder appends frames to a borrowed buffer and writes the whole
// batch in one Write on Flush. Between Flush calls the buffer lives here;
// after Flush it returns to the freelist, so all senders in the process
// share a small set of warm buffers.
type binaryEncoder struct {
	w         io.Writer
	buf       []byte
	helloSent bool
}

func (e *binaryEncoder) EncodeMsg(m *Msg) error {
	e.prepare()
	buf, err := appendMsgFrame(e.buf, m)
	if err != nil {
		return err
	}
	e.buf = buf
	if len(e.buf) >= flushThreshold {
		return e.Flush()
	}
	return nil
}

func (e *binaryEncoder) EncodeAck(a Ack) error {
	e.prepare()
	buf, err := appendAckFrame(e.buf, a)
	if err != nil {
		return err
	}
	e.buf = buf
	if len(e.buf) >= flushThreshold {
		return e.Flush()
	}
	return nil
}

// prepare borrows a batch buffer and, on the encoder's very first frame,
// queues the Hello preamble in front of it.
func (e *binaryEncoder) prepare() {
	if e.buf == nil {
		e.buf = frameBufs.get()
	}
	if !e.helloSent {
		e.helloSent = true
		e.buf = appendHelloFrame(e.buf)
	}
}

func (e *binaryEncoder) Flush() error {
	if len(e.buf) == 0 {
		return nil
	}
	_, err := e.w.Write(e.buf)
	frameBufs.put(e.buf)
	e.buf = nil
	return err
}

// appendHelloFrame appends the handshake preamble: the highest version
// the sender speaks plus three reserved bytes.
func appendHelloFrame(dst []byte) []byte {
	dst, _ = beginFrame(dst, ftHello, 0)
	dst = append(dst, Version, 0, 0, 0)
	return sealFrame(dst)
}

// beginFrame appends a frame header with zeroed length/CRC and returns
// the header's start offset; sealFrameAt fills both in once the payload
// has been appended after it.
func beginFrame(dst []byte, ft, flags byte) ([]byte, int) {
	start := len(dst)
	dst = append(dst, magic0, magic1, Version<<4|ft, flags, 0, 0, 0, 0, 0, 0, 0, 0)
	return dst, start
}

// seal fills in the open frame's length and CRC. start is the offset
// beginFrame returned.
func sealFrameAt(dst []byte, start int) []byte {
	payload := dst[start+headerLen:]
	binary.LittleEndian.PutUint32(dst[start+4:], uint32(len(payload)))
	crc := crc32.Update(0, crcTable, dst[start:start+8])
	crc = crc32.Update(crc, crcTable, payload)
	binary.LittleEndian.PutUint32(dst[start+8:], crc)
	return dst
}

// sealFrame seals a frame whose header is the only one in dst's tail —
// used by fixed-shape frames (Hello) where the start offset is implied.
func sealFrame(dst []byte) []byte {
	return sealFrameAt(dst, len(dst)-headerLen-4)
}

func appendU16(dst []byte, v uint16) []byte {
	return append(dst, byte(v), byte(v>>8))
}

func appendU32(dst []byte, v uint32) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendU64(dst []byte, v uint64) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

func appendF64(dst []byte, v float64) []byte {
	return appendU64(dst, math.Float64bits(v))
}

func appendStr(dst []byte, s string) []byte {
	dst = appendU16(dst, uint16(len(s)))
	return append(dst, s...)
}

// appendMsgFrame appends one sealed Msg frame. Frame-content problems
// (site outside int32, oversized stream id or row) error before anything
// is appended, so a failed encode leaves the batch buffer — and the
// connection — intact.
func appendMsgFrame(dst []byte, m *Msg) ([]byte, error) {
	if m.Site > math.MaxInt32 || m.Site < math.MinInt32 {
		return dst, fmt.Errorf("wire/codec: site %d outside int32 (v2 frame limit)", m.Site)
	}
	if len(m.StreamID) > math.MaxUint16 {
		return dst, fmt.Errorf("wire/codec: stream id %d bytes, limit %d", len(m.StreamID), math.MaxUint16)
	}
	if 8*len(m.V) > maxFramePayload-256 {
		return dst, fmt.Errorf("wire/codec: direction row %d floats exceeds the frame bound", len(m.V))
	}
	if m.Tele != nil {
		if len(m.Tele.Stream) > math.MaxUint16 || len(m.Tele.Proto) > math.MaxUint16 ||
			len(m.Tele.UpdateLat.Buckets) > math.MaxUint16 {
			return dst, fmt.Errorf("wire/codec: telemetry section field exceeds uint16 length")
		}
		if m.Tele.Site > math.MaxInt32 || m.Tele.Site < math.MinInt32 {
			return dst, fmt.Errorf("wire/codec: telemetry site %d outside int32", m.Tele.Site)
		}
	}
	var flags byte
	if m.Trace != 0 || m.Span != 0 {
		flags |= flagTrace
	}
	if m.Tele != nil {
		flags |= flagTele
	}
	if m.StreamID != "" {
		flags |= flagStream
	}
	if m.Delta != 0 {
		flags |= flagDelta
	}
	dst, start := beginFrame(dst, ftMsg, flags)
	dst = appendU32(dst, uint32(int32(m.Site)))
	dst = append(dst, byte(m.Kind))
	dst = appendU64(dst, uint64(m.T))
	dst = appendU64(dst, m.Seq)
	if flags&flagDelta != 0 {
		dst = appendF64(dst, m.Delta)
	}
	if flags&flagStream != 0 {
		dst = appendStr(dst, m.StreamID)
	}
	if flags&flagTrace != 0 {
		dst = appendU64(dst, m.Trace)
		dst = appendU64(dst, m.Span)
	}
	dst = appendU32(dst, uint32(len(m.V)))
	for _, v := range m.V {
		dst = appendU64(dst, math.Float64bits(v))
	}
	if flags&flagTele != 0 {
		dst = appendTele(dst, m.Tele)
	}
	return sealFrameAt(dst, start), nil
}

// appendTele appends the telemetry section: the frame's identity and
// counters fixed-width, the histogram length-prefixed.
func appendTele(dst []byte, f *telemetry.Frame) []byte {
	dst = appendU32(dst, uint32(int32(f.Site)))
	dst = appendStr(dst, f.Stream)
	dst = appendStr(dst, f.Proto)
	dst = appendU64(dst, uint64(f.UnixNs))
	dst = appendU64(dst, uint64(f.Rows))
	dst = appendU64(dst, uint64(f.Msgs))
	dst = appendU64(dst, uint64(f.Words))
	dst = appendU64(dst, uint64(f.Replays))
	dst = appendU64(dst, uint64(f.Acked))
	dst = appendU64(dst, uint64(f.Backlog))
	dst = appendU64(dst, uint64(f.Dials))
	dst = appendU64(dst, uint64(f.DialFails))
	dst = appendF64(dst, f.Eps)
	dst = appendF64(dst, f.Err)
	dst = appendF64(dst, f.Headroom)
	dst = appendF64(dst, f.WordsPerWindow)
	dst = appendU64(dst, uint64(f.Violations))
	dst = appendU64(dst, uint64(f.UpdateLat.Count))
	dst = appendU64(dst, uint64(f.UpdateLat.SumNs))
	dst = appendU16(dst, uint16(len(f.UpdateLat.Buckets)))
	for _, b := range f.UpdateLat.Buckets {
		dst = appendU64(dst, uint64(b.UpperNs))
		dst = appendU64(dst, uint64(b.Count))
	}
	return dst
}

func appendAckFrame(dst []byte, a Ack) ([]byte, error) {
	if len(a.Stream) > math.MaxUint16 {
		return dst, fmt.Errorf("wire/codec: stream id %d bytes, limit %d", len(a.Stream), math.MaxUint16)
	}
	var flags byte
	if a.Nack {
		flags |= flagNack
	}
	if a.Stream != "" {
		flags |= flagAckStream
	}
	dst, start := beginFrame(dst, ftAck, flags)
	dst = appendU64(dst, a.Seq)
	if flags&flagAckStream != 0 {
		dst = appendStr(dst, a.Stream)
	}
	return sealFrameAt(dst, start), nil
}

// binaryDecoder reads frames through a sliding window buffer it owns,
// which is what makes resynchronization possible: after a CRC failure
// the un-consumed window is scanned for the next magic boundary instead
// of trusting the corrupt frame's length. The window buffer comes from
// the freelist; Release returns it.
type binaryDecoder struct {
	r   io.Reader
	buf []byte
	off int

	// vbuf is the reusable direction-row buffer: DecodeMsg points the
	// returned Msg's V into it, valid until the next decode.
	vbuf []float64
	// tele is the reusable telemetry frame, same contract.
	tele telemetry.Frame

	// peerVersion is the version from the peer's Hello (0 before one
	// arrives).
	peerVersion byte

	released bool
}

// newBinaryDecoderBuffered builds a decoder whose window is pre-seeded
// with already-read bytes (the first byte Detect checked).
func newBinaryDecoderBuffered(r io.Reader, seed []byte) *binaryDecoder {
	d := &binaryDecoder{r: r, buf: frameBufs.get()}
	d.buf = append(d.buf, seed...)
	return d
}

// Release returns the decoder's window buffer to the freelist (see
// Decoder).
func (d *binaryDecoder) Release() {
	if d.released {
		return
	}
	d.released = true
	frameBufs.put(d.buf)
	d.buf = nil
}

// PeerVersion reports the version byte from the peer's Hello preamble
// (0 if none seen yet).
func (d *binaryDecoder) PeerVersion() byte { return d.peerVersion }

// need ensures at least n un-consumed bytes are buffered. A clean EOF at
// a frame boundary is io.EOF; an EOF mid-frame is io.ErrUnexpectedEOF —
// the connection died, which is the transport's problem, not corruption.
func (d *binaryDecoder) need(n int) error {
	have := len(d.buf) - d.off
	if have >= n {
		return nil
	}
	// Compact the consumed prefix away before growing.
	if d.off > 0 {
		copy(d.buf, d.buf[d.off:])
		d.buf = d.buf[:have]
		d.off = 0
	}
	for len(d.buf)-d.off < n {
		if cap(d.buf) == len(d.buf) {
			grow := cap(d.buf) * 2
			if grow < n+len(d.buf) {
				grow = n + len(d.buf)
			}
			nb := make([]byte, len(d.buf), grow)
			copy(nb, d.buf)
			d.buf = nb
		}
		m, err := d.r.Read(d.buf[len(d.buf):cap(d.buf)])
		d.buf = d.buf[:len(d.buf)+m]
		if err != nil {
			if err == io.EOF {
				if len(d.buf)-d.off == 0 {
					return io.EOF
				}
				return io.ErrUnexpectedEOF
			}
			return err
		}
	}
	return nil
}

// resync discards the current byte and scans the buffered window for the
// next magic pair, returning how many bytes were dropped. It never blocks
// for more input: if no boundary is buffered, everything except a
// possible straddling magic0 tail byte is discarded and the next
// need() resumes reading.
func (d *binaryDecoder) resync() int {
	skipped := 1
	d.off++
	w := d.buf[d.off:]
	for i := 0; i+1 < len(w); i++ {
		if w[i] == magic0 && w[i+1] == magic1 {
			d.off += i
			return skipped + i
		}
	}
	// No pair in the window; drop it all but keep a trailing magic0 that
	// might pair with the next read's first byte.
	drop := len(w)
	if drop > 0 && w[drop-1] == magic0 {
		drop--
	}
	d.off += drop
	return skipped + drop
}

// frame is one validated frame view. payload points into the decoder's
// window and is valid until the next nextFrame call.
type frame struct {
	ft      byte
	flags   byte
	payload []byte
}

// nextFrame returns the next CRC-valid frame, resynchronizing past
// corruption. Hello frames are consumed here, invisible to callers.
func (d *binaryDecoder) nextFrame() (frame, error) {
	for {
		if err := d.need(headerLen); err != nil {
			return frame{}, err
		}
		h := d.buf[d.off:]
		if h[0] != magic0 || h[1] != magic1 {
			n := d.resync()
			return frame{}, &CorruptFrameError{Reason: "bad magic", Skipped: n}
		}
		ver, ft := h[2]>>4, h[2]&0x0F
		plen := int(binary.LittleEndian.Uint32(h[4:8]))
		if ver != Version || ft > ftAck || plen > maxFramePayload {
			n := d.resync()
			return frame{}, &CorruptFrameError{Reason: "bad header", Skipped: n}
		}
		if err := d.need(headerLen + plen); err != nil {
			return frame{}, err
		}
		h = d.buf[d.off:]
		payload := h[headerLen : headerLen+plen]
		crc := crc32.Update(0, crcTable, h[:8])
		crc = crc32.Update(crc, crcTable, payload)
		if crc != binary.LittleEndian.Uint32(h[8:12]) {
			n := d.resync()
			return frame{}, &CorruptFrameError{Reason: "crc mismatch", Skipped: n}
		}
		d.off += headerLen + plen
		if ft == ftHello {
			if plen > 0 {
				d.peerVersion = payload[0]
			}
			continue
		}
		return frame{ft: ft, flags: h[3], payload: payload}, nil
	}
}

// cursor is a bounds-checked payload reader; every getter reports
// whether the read fit, so a CRC-valid but structurally malformed
// payload rejects cleanly instead of panicking or over-reading.
type cursor struct {
	b   []byte
	off int
	ok  bool
}

func (c *cursor) u8() byte {
	if c.off+1 > len(c.b) {
		c.ok = false
		return 0
	}
	v := c.b[c.off]
	c.off++
	return v
}

func (c *cursor) u16() uint16 {
	if c.off+2 > len(c.b) {
		c.ok = false
		return 0
	}
	v := binary.LittleEndian.Uint16(c.b[c.off:])
	c.off += 2
	return v
}

func (c *cursor) u32() uint32 {
	if c.off+4 > len(c.b) {
		c.ok = false
		return 0
	}
	v := binary.LittleEndian.Uint32(c.b[c.off:])
	c.off += 4
	return v
}

func (c *cursor) u64() uint64 {
	if c.off+8 > len(c.b) {
		c.ok = false
		return 0
	}
	v := binary.LittleEndian.Uint64(c.b[c.off:])
	c.off += 8
	return v
}

func (c *cursor) f64() float64 { return math.Float64frombits(c.u64()) }

func (c *cursor) str() string {
	n := int(c.u16())
	if !c.ok || c.off+n > len(c.b) {
		c.ok = false
		return ""
	}
	s := string(c.b[c.off : c.off+n])
	c.off += n
	return s
}

// DecodeMsg decodes the next Msg frame. The returned Msg's V and Tele
// alias decoder-owned buffers valid until the next decode.
func (d *binaryDecoder) DecodeMsg(m *Msg) error {
	f, err := d.nextFrame()
	if err != nil {
		return err
	}
	if f.ft != ftMsg {
		return &CorruptFrameError{Reason: "unexpected ack frame on message stream"}
	}
	if !d.parseMsg(f, m) {
		return &CorruptFrameError{Reason: "malformed message payload"}
	}
	return nil
}

func (d *binaryDecoder) parseMsg(f frame, m *Msg) bool {
	*m = Msg{}
	c := cursor{b: f.payload, ok: true}
	m.Site = int(int32(c.u32()))
	m.Kind = Kind(c.u8())
	m.T = int64(c.u64())
	m.Seq = c.u64()
	if f.flags&flagDelta != 0 {
		m.Delta = c.f64()
	}
	if f.flags&flagStream != 0 {
		m.StreamID = c.str()
	}
	if f.flags&flagTrace != 0 {
		m.Trace = c.u64()
		m.Span = c.u64()
	}
	n := int(c.u32())
	if !c.ok || 8*n > len(f.payload)-c.off {
		return false
	}
	if n > 0 {
		if cap(d.vbuf) < n {
			d.vbuf = make([]float64, n)
		}
		d.vbuf = d.vbuf[:n]
		for i := 0; i < n; i++ {
			d.vbuf[i] = c.f64()
		}
		m.V = d.vbuf
	}
	if f.flags&flagTele != 0 {
		if !d.parseTele(&c) {
			return false
		}
		m.Tele = &d.tele
	}
	return c.ok && c.off == len(f.payload)
}

func (d *binaryDecoder) parseTele(c *cursor) bool {
	t := &d.tele
	*t = telemetry.Frame{}
	t.Site = int(int32(c.u32()))
	t.Stream = c.str()
	t.Proto = c.str()
	t.UnixNs = int64(c.u64())
	t.Rows = int64(c.u64())
	t.Msgs = int64(c.u64())
	t.Words = int64(c.u64())
	t.Replays = int64(c.u64())
	t.Acked = int64(c.u64())
	t.Backlog = int64(c.u64())
	t.Dials = int64(c.u64())
	t.DialFails = int64(c.u64())
	t.Eps = c.f64()
	t.Err = c.f64()
	t.Headroom = c.f64()
	t.WordsPerWindow = c.f64()
	t.Violations = int64(c.u64())
	t.UpdateLat.Count = int64(c.u64())
	t.UpdateLat.SumNs = int64(c.u64())
	n := int(c.u16())
	if !c.ok || 16*n > len(c.b)-c.off {
		return false
	}
	if n > 0 {
		if cap(t.UpdateLat.Buckets) < n {
			t.UpdateLat.Buckets = make([]obs.HistBucket, n)
		}
		t.UpdateLat.Buckets = t.UpdateLat.Buckets[:n]
		for i := 0; i < n; i++ {
			t.UpdateLat.Buckets[i] = obs.HistBucket{UpperNs: int64(c.u64()), Count: int64(c.u64())}
		}
	}
	return c.ok
}

// DecodeAck decodes the next Ack frame.
func (d *binaryDecoder) DecodeAck(a *Ack) error {
	f, err := d.nextFrame()
	if err != nil {
		return err
	}
	if f.ft != ftAck {
		return &CorruptFrameError{Reason: "unexpected message frame on ack stream"}
	}
	*a = Ack{}
	c := cursor{b: f.payload, ok: true}
	a.Seq = c.u64()
	a.Nack = f.flags&flagNack != 0
	if f.flags&flagAckStream != 0 {
		a.Stream = c.str()
	}
	if !c.ok || c.off != len(f.payload) {
		return &CorruptFrameError{Reason: "malformed ack payload"}
	}
	return nil
}
