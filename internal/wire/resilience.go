package wire

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"sync"
	"time"

	"distwindow/internal/obs"
	"distwindow/internal/wire/codec"
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

// ResilientSender wraps dial-on-demand reconnection around a binary v2
// stream: every message is stamped with a sequence number and held in an
// ordered backlog until the coordinator acknowledges it, so a connection
// that dies at ANY point — before the write, during it, or after the
// bytes reached the kernel but never the coordinator — loses nothing: the
// next connection replays the unacknowledged backlog in order, and the
// coordinator's (Site, Seq) dedup makes the replay exactly-once.
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
	// MaxInflight is the flow-control window: at most this many
	// unacknowledged frames are written per connection before the sender
	// waits for acks to retire the front. Without a window, replaying a
	// deep backlog only makes progress if one connection survives the
	// ENTIRE replay plus an ack round-trip — on a lossy link that
	// probability decays geometrically with backlog depth, and retirement
	// stalls forever while replay traffic burns. 0 means unlimited (the
	// constructors default it to DefaultMaxInflight).
	MaxInflight int
	// BackoffBase and BackoffMax bound the exponential backoff between
	// failed dial attempts. BackoffBase <= 0 disables backoff (every Send
	// retries the dial immediately); BackoffMax <= 0 defaults to 30s.
	BackoffBase, BackoffMax time.Duration
	// DiscardPending lets Close drop undelivered messages silently instead
	// of returning a *PendingError.
	DiscardPending bool

	// stream is the default stream id stamped onto messages sent without
	// one (WithStream). Set at construction, read-only after.
	stream string

	mu      sync.Mutex
	conn    io.ReadWriteCloser
	enc     codec.Encoder
	gen     uint64 // connection generation; stale ack readers exit on mismatch
	backlog []Msg  // unacknowledged messages, per-stream seq order
	sent    int    // backlog prefix already written on the current conn
	// seqs holds each stream's last assigned sequence number. Each stream
	// multiplexed through this sender has its own sequence space, matching
	// the coordinator's (site, stream) dedup keying.
	seqs     map[string]uint64
	maxSent  map[string]uint64 // per stream, the highest seq ever written (counts replays)
	dial     func() (io.ReadWriteCloser, error)
	rng      *rand.Rand
	backoff  time.Duration
	nextDial time.Time
	now      func() time.Time

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
	s.seqs[m.StreamID]++
	m.Seq = s.seqs[m.StreamID]
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
// messages still pending. Pending counts unacknowledged messages — a
// frame already written remains pending until its ack arrives, so poll
// Flush (or use FlushWait) rather than expecting one call to reach zero.
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

// drainLocked sends as much backlog as the current connection and the
// flow-control window accept, dialing if needed (subject to the backoff
// window). Frames are encoded into the codec's batch buffer and flushed in
// one writev-style Write at the end of the drain, so a deep backlog
// replay costs one syscall per batch, not per frame. On error the
// connection is dropped and the rest stays buffered for the next attempt.
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
		s.enc = codec.BinaryV2.NewEncoder(conn)
		s.sent = 0
		s.gen++
		go s.readAcks(conn, s.gen)
	}
	for s.sent < len(s.backlog) {
		if s.MaxInflight > 0 && s.sent >= s.MaxInflight {
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
		if m.Seq <= s.maxSent[m.StreamID] {
			s.replayed.Inc()
		} else {
			s.maxSent[m.StreamID] = m.Seq
		}
		s.sent++
	}
	if err := s.enc.Flush(); err != nil {
		s.dropConnLocked()
	}
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
// generation. A decode error (the connection died, or the peer closed it)
// drops the connection so the next Send/Flush redials and replays.
func (s *ResilientSender) readAcks(conn io.ReadWriteCloser, gen uint64) {
	dec := codec.BinaryV2.NewDecoder(conn)
	defer dec.Release()
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
			// The coordinator lost a frame (CRC-rejected) and asks for a
			// rewind: everything still in the backlog past the ack horizon
			// must be re-sent on this connection. Resetting the
			// written-prefix cursor makes the next drain replay the whole
			// remaining backlog — the dedup machinery absorbs the frames
			// the coordinator did consume.
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
	st := SenderState{NextSeq: s.seqs[""], Backlog: make([]Msg, len(s.backlog))}
	for id, seq := range s.seqs {
		if id == "" {
			continue
		}
		if st.StreamSeqs == nil {
			st.StreamSeqs = make(map[string]uint64, len(s.seqs))
		}
		st.StreamSeqs[id] = seq
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
	seqs := make(map[string]uint64, len(st.StreamSeqs)+1)
	for id, seq := range st.StreamSeqs {
		seqs[id] = seq
	}
	seqs[""] = st.NextSeq
	last := make(map[string]uint64)
	for i, m := range st.Backlog {
		if prev, ok := last[m.StreamID]; ok && m.Seq <= prev {
			return fmt.Errorf("wire: sender state backlog out of order at %d (stream %q)", i, m.StreamID)
		}
		last[m.StreamID] = m.Seq
	}
	for id, tail := range last {
		if tail > seqs[id] {
			return fmt.Errorf("wire: sender state counter %d behind backlog tail %d (stream %q)", seqs[id], tail, id)
		}
	}
	s.seqs = seqs
	s.maxSent = make(map[string]uint64)
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
// or checkpoint/restore. It is a per-stream consistent cut: each stream is
// copied under its own lock, the lock its frames are admitted and folded
// under, so every frame is wholly in the snapshot (folded, and its
// sequence number consumed) or wholly out of it.
type Snapshot struct {
	D int
	// Streams carries every stream's estimate by stream id; the default
	// stream "" is always present.
	Streams map[string]StreamState
	Msgs    int64
	Bytes   int64
	// StreamSeqs carries every sequenced (site, stream) dedup horizon, so
	// a failed-over coordinator keeps discarding replays its predecessor
	// already applied.
	StreamSeqs []StreamSeq
}

// StreamState is one stream's serialized estimate.
type StreamState struct {
	Chat []float64
	Sum  float64
}

// StreamSeq is one (site, stream) dedup horizon.
type StreamSeq struct {
	Site   int
	Stream string
	Seq    uint64
}

// Snapshot captures the coordinator's current state.
func (c *Coordinator) Snapshot() Snapshot {
	s := Snapshot{D: c.d, Streams: make(map[string]StreamState)}
	c.each(func(id string, e *coordStream) {
		s.Streams[id] = StreamState{Chat: append([]float64(nil), e.chat.Data()...), Sum: e.sum}
		for site, st := range e.sites {
			if st.lastSeq != 0 {
				s.StreamSeqs = append(s.StreamSeqs, StreamSeq{Site: site, Stream: id, Seq: st.lastSeq})
			}
		}
	})
	sort.Slice(s.StreamSeqs, func(i, j int) bool {
		a, b := s.StreamSeqs[i], s.StreamSeqs[j]
		if a.Site != b.Site {
			return a.Site < b.Site
		}
		return a.Stream < b.Stream
	})
	s.Msgs, s.Bytes = c.msgs.Load(), c.bytes.Load()
	return s
}

// WriteSnapshot gob-encodes a snapshot to w.
func (c *Coordinator) WriteSnapshot(w io.Writer) error {
	return gob.NewEncoder(w).Encode(c.Snapshot())
}

// RestoreCoordinator rebuilds a coordinator from a snapshot. A snapshot
// without a default-stream entry is refused: it is the layout written
// before every stream, the default one included, became one entry.
func RestoreCoordinator(s Snapshot) (*Coordinator, error) {
	if s.D < 1 {
		return nil, fmt.Errorf("wire: invalid snapshot d=%d", s.D)
	}
	if _, ok := s.Streams[""]; !ok {
		return nil, errors.New("wire: snapshot has no default stream entry (old checkpoint layout)")
	}
	for id, ss := range s.Streams {
		if len(ss.Chat) != s.D*s.D {
			return nil, fmt.Errorf("wire: invalid snapshot stream %q chat=%d, want %d", id, len(ss.Chat), s.D*s.D)
		}
	}
	c := NewCoordinator(s.D)
	for id, ss := range s.Streams {
		e := c.stream(id)
		copy(e.chat.Data(), ss.Chat)
		e.sum = ss.Sum
	}
	for _, ss := range s.StreamSeqs {
		st := c.stream(ss.Stream).record(ss.Site)
		st.lastSeq, st.lastSeen = ss.Seq, c.now()
	}
	c.msgs.Add(s.Msgs)
	c.bytes.Add(s.Bytes)
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
