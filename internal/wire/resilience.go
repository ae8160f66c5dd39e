package wire

import (
	"encoding/gob"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"sync"
	"time"

	"distwindow/internal/obs"
	"distwindow/internal/wire/codec"
	"distwindow/mat"
)

// PendingError is returned by ResilientSender.Close when undelivered
// messages remain in the backlog and DiscardPending is unset. The sender
// is left intact: Flush (or FlushWait) and close again, or set
// DiscardPending to drop the messages knowingly.
type PendingError struct {
	// Pending is the number of undelivered (unacknowledged) messages.
	Pending int
}

func (e *PendingError) Error() string {
	return fmt.Sprintf("wire: close would lose %d undelivered messages (Flush first, or set DiscardPending)", e.Pending)
}

// ResilientSender wraps dial-on-demand reconnection around a gob stream:
// every message is stamped with a sequence number and held in an ordered
// backlog until the coordinator acknowledges it, so a connection that
// dies at ANY point — before the write, during it, or after the bytes
// reached the kernel but never the coordinator — loses nothing: the next
// connection replays the unacknowledged backlog in order, and the
// coordinator's (Site, Seq) dedup makes the replay exactly-once.
//
// Transports that cannot carry acks (a write-only io.WriteCloser from the
// dial seam) degrade to the pre-ack behaviour: a message is retired as
// soon as its encode succeeds, which is at-most-once across connection
// death. Real net.Conns always get the acknowledged path.
//
// While the coordinator is unreachable, dial attempts back off
// exponentially with jitter between BackoffBase and BackoffMax instead of
// re-dialing on every Send; attempts and failures are counted in Metrics.
type ResilientSender struct {
	addr string
	// DialTimeout bounds each reconnection attempt.
	DialTimeout time.Duration
	// MaxBacklog bounds buffered (unacknowledged) messages; 0 means
	// unlimited. When the backlog is full, Send reports an error instead
	// of dropping silently.
	MaxBacklog int
	// MaxInflight is the flow-control window on the acknowledged path: at
	// most this many unacknowledged frames are written per connection
	// before the sender waits for acks to retire the front. Without a
	// window, replaying a deep backlog only makes progress if one
	// connection survives the ENTIRE replay plus an ack round-trip — on a
	// lossy link that probability decays geometrically with backlog depth,
	// and retirement stalls forever while replay traffic burns. 0 means
	// unlimited (the constructors default it to DefaultMaxInflight).
	// Ignored on write-only transports, which retire on write.
	MaxInflight int
	// BackoffBase and BackoffMax bound the exponential backoff between
	// failed dial attempts. BackoffBase <= 0 disables backoff (every Send
	// retries the dial immediately); BackoffMax <= 0 defaults to 30s.
	BackoffBase, BackoffMax time.Duration
	// DiscardPending lets Close drop undelivered messages silently instead
	// of returning a *PendingError.
	DiscardPending bool

	// codec is the wire framing Send speaks (Gob unless WithCodec chose
	// BinaryV2); stream is the default stream id stamped onto messages
	// sent without one (WithStream). Set at construction, read-only after.
	codec  Codec
	stream string

	mu      sync.Mutex
	conn    io.WriteCloser
	enc     codec.Encoder
	ackMode bool   // current conn carries acks (it implements io.Reader)
	gen     uint64 // connection generation; stale ack readers exit on mismatch
	backlog []Msg  // unacknowledged messages, per-stream seq order
	sent    int    // backlog prefix already written on the current conn
	// nextSeq is the default stream's sequence counter; streamSeq holds
	// the counters of the non-default streams (lazily created). Each
	// stream multiplexed through this sender has its own sequence space,
	// matching the coordinator's (site, stream) dedup keying.
	nextSeq       uint64
	streamSeq     map[string]uint64
	maxSent       uint64            // highest default-stream seq ever written (counts replays)
	maxSentStream map[string]uint64 // per-stream counterparts of maxSent
	dial          func() (io.WriteCloser, error)
	rng           *rand.Rand
	backoff       time.Duration
	nextDial      time.Time
	now           func() time.Time

	msgs      obs.Counter
	acked     obs.Counter
	replayed  obs.Counter
	dialTries obs.Counter
	dialFails obs.Counter
}

// DefaultMaxInflight is the flow-control window the constructors install
// when ResilienceConfig.MaxInflight is zero.
const DefaultMaxInflight = 64

// Stream returns a Sender view stamping every message with the given
// stream id before it enters the delivery machinery, so many logical
// streams can multiplex over this one sender and connection.
func (s *ResilientSender) Stream(id string) Sender { return StreamOf(s, id) }

// SetJitterSeed reseeds the dial-jitter RNG, making backoff timing
// reproducible. Call before Send.
func (s *ResilientSender) SetJitterSeed(seed int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rng = rand.New(rand.NewSource(seed))
}

// Send stamps the message with its stream's next sequence number and
// queues it until acknowledged, transparently reconnecting and replaying
// the backlog first. On transport failure the message stays buffered and
// nil is returned (the data is not lost); only a full backlog is an
// error. Messages of different streams (Msg.StreamID) share the backlog
// and the connection but carry independent sequence spaces.
func (s *ResilientSender) Send(m Msg) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.MaxBacklog > 0 && len(s.backlog) >= s.MaxBacklog {
		return fmt.Errorf("wire: backlog full (%d messages)", s.MaxBacklog)
	}
	if m.StreamID == "" {
		// The default stream stamp must land before the sequence stamp:
		// each stream has its own sequence space.
		m.StreamID = s.stream
	}
	if m.StreamID == "" {
		s.nextSeq++
		m.Seq = s.nextSeq
	} else {
		if s.streamSeq == nil {
			s.streamSeq = make(map[string]uint64)
		}
		s.streamSeq[m.StreamID]++
		m.Seq = s.streamSeq[m.StreamID]
	}
	s.backlog = append(s.backlog, m)
	s.drainLocked()
	return nil
}

// SendBestEffort writes one message on the current connection without
// entering the delivery machinery: no sequence number, no backlog, no
// replay. With no live connection it tries one dial (inside the backoff
// window) and otherwise reports an error — the message is dropped, which
// is the contract telemetry frames want: a fleet snapshot competes with
// nothing, and the next ticker interval brings a fresher one anyway. An
// encode failure drops the connection exactly like a data-path failure,
// so the estimate traffic redials and replays as usual.
func (s *ResilientSender) SendBestEffort(m Msg) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	m.Seq = 0
	if s.conn == nil {
		// Reuse the data path's dial/backoff by draining (possibly nothing):
		// drainLocked dials when allowed and leaves conn set on success.
		s.drainLocked()
		if s.conn == nil {
			return fmt.Errorf("wire: no connection for best-effort send")
		}
	}
	if err := s.enc.EncodeMsg(&m); err != nil {
		s.dropConnLocked()
		return err
	}
	if err := s.enc.Flush(); err != nil {
		s.dropConnLocked()
		return err
	}
	return nil
}

// Flush attempts to deliver everything buffered; it returns the number of
// messages still pending. On an acknowledged transport, pending counts
// unacknowledged messages — a frame already written may remain pending
// until its ack arrives, so poll Flush (or use FlushWait) rather than
// expecting one call to reach zero.
func (s *ResilientSender) Flush() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.drainLocked()
	return len(s.backlog)
}

// FlushWait polls Flush until the backlog is empty or the timeout
// elapses, returning the number of messages still pending.
func (s *ResilientSender) FlushWait(timeout time.Duration) int {
	deadline := s.now().Add(timeout)
	for {
		if n := s.Flush(); n == 0 {
			return 0
		}
		if !s.now().Before(deadline) {
			return s.Pending()
		}
		time.Sleep(time.Millisecond)
	}
}

// drainLocked sends as much backlog as the current connection accepts,
// dialing if needed (subject to the backoff window). Frames are encoded
// into the codec's batch buffer and flushed in one writev-style Write at
// the end of the drain, so a deep backlog replay costs one syscall per
// batch, not per frame (the gob codec writes through per frame — its
// stream format has no coalescing seam). On error the connection is
// dropped and the rest stays buffered for the next attempt.
func (s *ResilientSender) drainLocked() {
	if s.conn == nil {
		if s.backoff > 0 && s.now().Before(s.nextDial) {
			return
		}
		s.dialTries.Inc()
		conn, err := s.dial()
		if err != nil {
			s.dialFails.Inc()
			s.bumpBackoffLocked()
			return
		}
		s.backoff = 0
		s.conn = conn
		s.enc = s.cdc().NewEncoder(conn)
		s.sent = 0
		s.gen++
		if r, ok := conn.(io.Reader); ok {
			s.ackMode = true
			go s.readAcks(r, conn, s.gen)
		} else {
			s.ackMode = false
		}
	}
	for s.sent < len(s.backlog) {
		if s.ackMode && s.MaxInflight > 0 && s.sent >= s.MaxInflight {
			// Window full: stop and let acks retire the front (readAcks
			// decrements sent). The next Send/Flush writes the next batch.
			break
		}
		m := s.backlog[s.sent]
		if err := s.enc.EncodeMsg(&m); err != nil {
			s.dropConnLocked()
			return
		}
		s.msgs.Inc()
		if m.StreamID == "" {
			if m.Seq <= s.maxSent {
				s.replayed.Inc()
			} else {
				s.maxSent = m.Seq
			}
		} else {
			if m.Seq <= s.maxSentStream[m.StreamID] {
				s.replayed.Inc()
			} else {
				if s.maxSentStream == nil {
					s.maxSentStream = make(map[string]uint64)
				}
				s.maxSentStream[m.StreamID] = m.Seq
			}
		}
		if s.ackMode {
			s.sent++
		} else {
			// Write-only transport: no acks will ever arrive, so retire on
			// write as the pre-ack sender did (at-most-once delivery).
			s.backlog = s.backlog[1:]
		}
	}
	if err := s.enc.Flush(); err != nil {
		s.dropConnLocked()
	}
}

// cdc returns the sender's codec, defaulting to Gob so zero-value and
// test-constructed senders keep the legacy framing.
func (s *ResilientSender) cdc() Codec {
	if s.codec == nil {
		return Gob
	}
	return s.codec
}

// bumpBackoffLocked doubles the backoff (capped) and schedules the next
// dial attempt a jittered wait from now, so a fleet of sites whose
// coordinator restarts does not re-dial in lockstep.
func (s *ResilientSender) bumpBackoffLocked() {
	if s.BackoffBase <= 0 {
		return
	}
	if s.backoff == 0 {
		s.backoff = s.BackoffBase
	} else {
		s.backoff *= 2
	}
	max := s.BackoffMax
	if max <= 0 {
		max = 30 * time.Second
	}
	if s.backoff > max {
		s.backoff = max
	}
	// Uniform in [backoff/2, backoff): half the interval is deterministic
	// spacing, half is jitter.
	half := s.backoff / 2
	wait := half
	if half > 0 {
		wait += time.Duration(s.rng.Int63n(int64(half)))
	}
	s.nextDial = s.now().Add(wait)
}

// dropConnLocked abandons the current connection; the unacknowledged
// backlog stays queued for replay on the next dial.
func (s *ResilientSender) dropConnLocked() {
	if s.conn != nil {
		s.conn.Close()
	}
	s.conn = nil
	s.enc = nil
	s.sent = 0
}

// readAcks retires acknowledged backlog prefixes for one connection
// generation. A decode error (the connection died, or the peer is an old
// coordinator closing without acks) drops the connection so the next
// Send/Flush redials and replays.
func (s *ResilientSender) readAcks(r io.Reader, conn io.WriteCloser, gen uint64) {
	dec := s.cdc().NewDecoder(r)
	if rel, ok := dec.(interface{ Release() }); ok {
		defer rel.Release()
	}
	for {
		var a Ack
		if err := dec.DecodeAck(&a); err != nil {
			s.mu.Lock()
			if s.gen == gen && s.conn == conn {
				s.dropConnLocked()
			}
			s.mu.Unlock()
			return
		}
		s.mu.Lock()
		if s.gen != gen {
			s.mu.Unlock()
			return
		}
		s.retireLocked(a)
		if a.Nack && s.conn == conn {
			// The coordinator lost a frame (CRC-rejected under the binary
			// framing) and asks for a rewind: everything still in the
			// backlog past the ack horizon must be re-sent on this
			// connection. Resetting the written-prefix cursor makes the
			// next drain replay the whole remaining backlog — the dedup
			// machinery absorbs the frames the coordinator did consume.
			s.sent = 0
			s.drainLocked()
		}
		s.mu.Unlock()
	}
}

// retireLocked drops every backlog entry of the acknowledged stream with
// Seq ≤ a.Seq. With a single stream this is the old prefix pop; with
// multiplexed streams the retired entries may be interleaved with other
// streams' frames, so the backlog is compacted in place and the
// written-prefix cursor adjusted for each retired entry it covered.
func (s *ResilientSender) retireLocked(a Ack) {
	// Fast path: nothing of this stream is pending before the first
	// non-matching entry — common because acks arrive in send order.
	keep := s.backlog[:0]
	sent := s.sent
	for i, m := range s.backlog {
		if m.StreamID == a.Stream && m.Seq <= a.Seq {
			if i < s.sent {
				sent--
			}
			s.acked.Inc()
			continue
		}
		keep = append(keep, m)
	}
	// Clear the vacated tail so retired frames' direction slices are not
	// pinned by the backing array.
	for i := len(keep); i < len(s.backlog); i++ {
		s.backlog[i] = Msg{}
	}
	s.backlog = keep
	s.sent = sent
}

// Pending returns the number of buffered (undelivered) messages.
func (s *ResilientSender) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.backlog)
}

// ResilientMetrics is a snapshot of a ResilientSender's counters.
type ResilientMetrics struct {
	// Msgs counts encode attempts that reached a connection (replays
	// included); Acked counts messages retired by coordinator acks.
	Msgs, Acked int64
	// Replayed counts re-encodes of messages already written once (the
	// recovery traffic after reconnects and restarts).
	Replayed int64
	// Pending is the current backlog length.
	Pending int64
	// DialAttempts and DialFailures count reconnection attempts; their
	// difference is successful dials.
	DialAttempts, DialFailures int64
}

// Metrics snapshots the sender's counters; safe to call concurrently with
// Send.
func (s *ResilientSender) Metrics() ResilientMetrics {
	return ResilientMetrics{
		Msgs:         s.msgs.Load(),
		Acked:        s.acked.Load(),
		Replayed:     s.replayed.Load(),
		Pending:      int64(s.Pending()),
		DialAttempts: s.dialTries.Load(),
		DialFailures: s.dialFails.Load(),
	}
}

// SenderState is a ResilientSender's serializable replay state: the
// unacknowledged backlog and the sequence counter. Checkpoint it next to
// the site's protocol state; after a crash, RestoreState plus replaying
// the input rows since the checkpoint regenerates the exact message
// sequence, and the coordinator's dedup discards everything it already
// consumed.
type SenderState struct {
	// NextSeq is the default stream's sequence counter; StreamSeqs holds
	// the non-default streams' counters (nil when none — pre-stream
	// checkpoints decode with a nil map and restore unchanged).
	NextSeq    uint64
	StreamSeqs map[string]uint64
	Backlog    []Msg
}

// State deep-copies the sender's replay state.
func (s *ResilientSender) State() SenderState {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := SenderState{NextSeq: s.nextSeq, Backlog: make([]Msg, len(s.backlog))}
	if len(s.streamSeq) > 0 {
		st.StreamSeqs = make(map[string]uint64, len(s.streamSeq))
		for id, seq := range s.streamSeq {
			st.StreamSeqs[id] = seq
		}
	}
	for i, m := range s.backlog {
		m.V = append([]float64(nil), m.V...)
		st.Backlog[i] = m
	}
	return st
}

// RestoreState overwrites the sender's replay state from a checkpoint.
// Restore into a fresh sender before its first Send. Sequence ordering is
// validated per stream: each stream's backlog entries must be strictly
// increasing and must not run ahead of that stream's counter.
func (s *ResilientSender) RestoreState(st SenderState) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	last := make(map[string]uint64)
	for i, m := range st.Backlog {
		if prev, ok := last[m.StreamID]; ok && m.Seq <= prev {
			return fmt.Errorf("wire: sender state backlog out of order at %d (stream %q)", i, m.StreamID)
		}
		last[m.StreamID] = m.Seq
	}
	for id, tail := range last {
		next := st.NextSeq
		if id != "" {
			next = st.StreamSeqs[id]
		}
		if tail > next {
			return fmt.Errorf("wire: sender state counter %d behind backlog tail %d (stream %q)", next, tail, id)
		}
	}
	s.nextSeq = st.NextSeq
	s.streamSeq = nil
	if len(st.StreamSeqs) > 0 {
		s.streamSeq = make(map[string]uint64, len(st.StreamSeqs))
		for id, seq := range st.StreamSeqs {
			s.streamSeq[id] = seq
		}
	}
	s.maxSent = 0
	s.maxSentStream = nil
	s.sent = 0
	s.backlog = make([]Msg, len(st.Backlog))
	for i, m := range st.Backlog {
		m.V = append([]float64(nil), m.V...)
		s.backlog[i] = m
	}
	return nil
}

// Close closes the current connection. If undelivered messages remain and
// DiscardPending is unset, Close keeps the sender (and its backlog)
// intact and returns a *PendingError carrying the pending count, so
// callers know to Flush first.
func (s *ResilientSender) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.backlog); n > 0 && !s.DiscardPending {
		return &PendingError{Pending: n}
	}
	s.backlog = nil
	s.sent = 0
	s.gen++ // orphan any ack reader still running
	if s.conn != nil {
		err := s.conn.Close()
		s.conn = nil
		s.enc = nil
		return err
	}
	return nil
}

// Snapshot is a serializable copy of a coordinator's state, for failover
// or checkpoint/restore.
type Snapshot struct {
	D int
	// Chat and Sum are the default stream's estimate; Streams carries the
	// non-default streams' estimates (nil when none — pre-stream
	// snapshots decode with a nil map and restore unchanged).
	Chat    []float64
	Sum     float64
	Streams map[string]StreamState
	Msgs    int64
	Bytes   int64
	// SiteSeqs carries the default stream's per-site dedup horizon, so a
	// failed-over coordinator keeps discarding replays its predecessor
	// already applied. Absent in pre-ack snapshots (gob leaves the map
	// nil). StreamSeqs carries the non-default streams' horizons.
	SiteSeqs   map[int]uint64
	StreamSeqs []StreamSeq
}

// StreamState is one non-default stream's serialized estimate.
type StreamState struct {
	Chat []float64
	Sum  float64
}

// StreamSeq is one non-default (site, stream) dedup horizon.
type StreamSeq struct {
	Site   int
	Stream string
	Seq    uint64
}

// Snapshot captures the coordinator's current state.
func (c *Coordinator) Snapshot() Snapshot {
	c.mu.Lock()
	data := make([]float64, len(c.def.chat.Data()))
	copy(data, c.def.chat.Data())
	sum := c.def.sum
	var streams map[string]StreamState
	if len(c.streams) > 0 {
		streams = make(map[string]StreamState, len(c.streams))
		for id, e := range c.streams {
			streams[id] = StreamState{Chat: append([]float64(nil), e.chat.Data()...), Sum: e.sum}
		}
	}
	c.mu.Unlock()
	c.siteMu.Lock()
	seqs := make(map[int]uint64, len(c.siteStates))
	var streamSeqs []StreamSeq
	for key, st := range c.siteStates {
		if st.lastSeq == 0 {
			continue
		}
		if key.stream == "" {
			seqs[key.site] = st.lastSeq
		} else {
			streamSeqs = append(streamSeqs, StreamSeq{Site: key.site, Stream: key.stream, Seq: st.lastSeq})
		}
	}
	c.siteMu.Unlock()
	sort.Slice(streamSeqs, func(i, j int) bool {
		if streamSeqs[i].Site != streamSeqs[j].Site {
			return streamSeqs[i].Site < streamSeqs[j].Site
		}
		return streamSeqs[i].Stream < streamSeqs[j].Stream
	})
	return Snapshot{
		D: c.d, Chat: data, Sum: sum, Streams: streams,
		Msgs: c.msgs.Load(), Bytes: c.bytes.Load(),
		SiteSeqs: seqs, StreamSeqs: streamSeqs,
	}
}

// WriteSnapshot gob-encodes a snapshot to w.
func (c *Coordinator) WriteSnapshot(w io.Writer) error {
	return gob.NewEncoder(w).Encode(c.Snapshot())
}

// RestoreCoordinator rebuilds a coordinator from a snapshot.
func RestoreCoordinator(s Snapshot) (*Coordinator, error) {
	if s.D < 1 || len(s.Chat) != s.D*s.D {
		return nil, fmt.Errorf("wire: invalid snapshot d=%d chat=%d", s.D, len(s.Chat))
	}
	c := NewCoordinator(s.D)
	copy(c.def.chat.Data(), s.Chat)
	c.def.sum = s.Sum
	for id, ss := range s.Streams {
		if id == "" || len(ss.Chat) != s.D*s.D {
			return nil, fmt.Errorf("wire: invalid snapshot stream %q chat=%d", id, len(ss.Chat))
		}
		e := &streamEst{chat: mat.NewDense(s.D, s.D), sum: ss.Sum}
		copy(e.chat.Data(), ss.Chat)
		if c.streams == nil {
			c.streams = make(map[string]*streamEst, len(s.Streams))
		}
		c.streams[id] = e
	}
	c.msgs.Add(s.Msgs)
	c.bytes.Add(s.Bytes)
	if len(s.SiteSeqs) > 0 || len(s.StreamSeqs) > 0 {
		c.siteStates = make(map[siteKey]*siteState, len(s.SiteSeqs)+len(s.StreamSeqs))
		for site, seq := range s.SiteSeqs {
			c.siteStates[siteKey{site: site}] = &siteState{lastSeq: seq, lastSeen: c.now()}
		}
		for _, ss := range s.StreamSeqs {
			c.siteStates[siteKey{site: ss.Site, stream: ss.Stream}] = &siteState{lastSeq: ss.Seq, lastSeen: c.now()}
		}
	}
	return c, nil
}

// ReadSnapshot decodes a snapshot from r and rebuilds the coordinator.
func ReadSnapshot(r io.Reader) (*Coordinator, error) {
	var s Snapshot
	if err := gob.NewDecoder(r).Decode(&s); err != nil {
		return nil, err
	}
	return RestoreCoordinator(s)
}
