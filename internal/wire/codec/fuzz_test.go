package codec

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// fuzzSeed returns raw frame bytes for seeding the corpora: a Hello plus
// a few representative frames.
func fuzzSeedMsgs() []byte {
	var buf bytes.Buffer
	enc := BinaryV2.NewEncoder(&buf)
	msgs := []Msg{
		{Site: 1, Kind: DirectionAdd, T: 7, Seq: 1, V: []float64{1.5, -2.5, 3.5}},
		{Site: 2, Kind: SumDelta, Delta: -0.25, Seq: 2, StreamID: "prices", Trace: 9, Span: 10},
		{Site: 3, Kind: DirectionRemove, V: []float64{0}},
	}
	for i := range msgs {
		enc.EncodeMsg(&msgs[i])
	}
	enc.Flush()
	return buf.Bytes()
}

func fuzzSeedAcks() []byte {
	var buf bytes.Buffer
	enc := BinaryV2.NewEncoder(&buf)
	for _, a := range []Ack{{Seq: 1}, {Seq: 2, Stream: "s"}, {Seq: 3, Nack: true}} {
		enc.EncodeAck(a)
	}
	enc.Flush()
	return buf.Bytes()
}

// drain decodes until the stream errors terminally, tolerating any number
// of corrupt-frame rejections. The invariants under fuzzing: no panic, no
// unbounded allocation, termination (every rejection consumes ≥1 byte or
// whole frame), and the terminal error is EOF-shaped or a read error —
// never a CorruptFrameError loop.
func drainMsgs(t *testing.T, raw []byte) {
	t.Helper()
	dec := BinaryV2.NewDecoder(bytes.NewReader(raw))
	defer dec.Release()
	var m Msg
	for i := 0; i <= len(raw)+16; i++ {
		err := dec.DecodeMsg(&m)
		if err == nil {
			continue
		}
		var cfe *CorruptFrameError
		if errors.As(err, &cfe) {
			continue
		}
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return
		}
		t.Fatalf("unexpected terminal error class: %v", err)
	}
	t.Fatalf("decoder did not terminate on %d bytes", len(raw))
}

func FuzzDecodeMsg(f *testing.F) {
	seed := fuzzSeedMsgs()
	f.Add(seed)
	// A corrupted variant and a truncated one steer the fuzzer toward the
	// resync and EOF paths from generation zero.
	bad := append([]byte(nil), seed...)
	if len(bad) > 20 {
		bad[20] ^= 0x40
	}
	f.Add(bad)
	f.Add(seed[:len(seed)/2])
	f.Add([]byte{magic0, magic1})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		drainMsgs(t, raw)
	})
}

func FuzzDecodeAck(f *testing.F) {
	seed := fuzzSeedAcks()
	f.Add(seed)
	trunc := seed
	if len(trunc) > 5 {
		trunc = seed[:len(seed)-5]
	}
	f.Add(trunc)
	f.Add([]byte{magic0, magic1, Version<<4 | ftAck, 0})
	f.Fuzz(func(t *testing.T, raw []byte) {
		dec := BinaryV2.NewDecoder(bytes.NewReader(raw))
		defer dec.Release()
		var a Ack
		for i := 0; i <= len(raw)+16; i++ {
			err := dec.DecodeAck(&a)
			if err == nil {
				continue
			}
			var cfe *CorruptFrameError
			if errors.As(err, &cfe) {
				continue
			}
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return
			}
			t.Fatalf("unexpected terminal error class: %v", err)
		}
		t.Fatalf("ack decoder did not terminate on %d bytes", len(raw))
	})
}
