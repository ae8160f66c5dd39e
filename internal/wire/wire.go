// Package wire runs the one-way deterministic protocols (SUM, DA1, DA2)
// over real network connections — the deployment the paper leaves as
// future work ("implementing distributed monitoring algorithms in a real
// distributed system"). Each site drives a one-site internal/core tracker
// — the same site logic the in-process trackers run — and pushes the
// updates it emits to a coordinator over TCP (or any net.Conn); the
// coordinator folds them into its covariance estimate with the in-process
// arithmetic and answers sketch queries concurrently.
//
// Frames travel in one of two codecs (package codec): the legacy
// encoding/gob streams, or the binary v2 framing whose per-frame CRC
// lets a corrupted stream resynchronize instead of dying. Senders pick
// their codec (WithCodec); the coordinator detects it per connection
// from the first byte, so v2 and gob sites mix freely on one listener.
//
// Only the one-way family is wired: its sites never wait for coordinator
// responses, so a site is just an encoder over a persistent connection.
// The sampling protocols' threshold negotiation is a synchronous two-way
// exchange and stays in the in-process simulation (package core).
package wire

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"distwindow/internal/obs"
	"distwindow/internal/obs/telemetry"
	"distwindow/internal/trace"
	"distwindow/internal/wire/codec"
	"distwindow/mat"
)

// Msg is the single message type of the one-way protocols. The type
// lives in the codec subpackage next to the framings that carry it; the
// alias keeps this package's API (and the gob wire names) unchanged —
// see codec.Msg for the field and compatibility documentation.
type Msg = codec.Msg

// Ack acknowledges consumed sequenced frames, cumulatively per stream;
// see codec.Ack (including the Nack rewind semantics).
type Ack = codec.Ack

// Kind enumerates message payloads; see codec.Kind.
type Kind = codec.Kind

// Message kinds: directions add/remove vᵀv from the coordinator's Ĉ;
// SumDelta adjusts the scalar estimate; Telemetry carries a metrics frame
// for the fleet view (never part of the estimate or the seq/ack space).
const (
	DirectionAdd    = codec.DirectionAdd
	DirectionRemove = codec.DirectionRemove
	SumDelta        = codec.SumDelta
	Telemetry       = codec.Telemetry
)

// Codec selects a wire framing for a sender (the coordinator detects the
// codec per connection, no configuration needed). The two framings:
// Gob, the legacy stream every release has spoken, and BinaryV2, the
// hand-rolled little-endian framing with per-frame CRC, resynchronization
// and frame coalescing. See PROTOCOLS.md for the negotiation matrix.
type Codec = codec.Codec

// Gob and BinaryV2 are the available wire framings, for WithCodec.
var (
	Gob      = codec.Gob
	BinaryV2 = codec.BinaryV2
)

// CodecByName resolves a codec from its flag name ("gob", "v2").
func CodecByName(name string) (Codec, bool) { return codec.ByName(name) }

// Coordinator receives messages from any number of sites and maintains,
// per logical stream, Ĉ = Σ Delta·vvᵀ (Delta = ±1 by Kind when a frame
// carries 0) plus the scalar sum estimate. Safe for concurrent use.
//
// Frames carry a StreamID ("" = the default stream); each distinct id
// gets its own estimate, created on first frame. Every stream shares the
// coordinator's dimension d — heterogeneous dimensions need separate
// coordinators. The un-suffixed accessors (Sketch, Sum) read the default
// stream, so single-stream deployments are unchanged.
//
// The traffic counters are atomic, so Metrics (and the mux returned by
// MetricsMux) can be read while connections stream; only the matrix state
// is behind the mutex.
type Coordinator struct {
	d  int
	mu sync.Mutex

	// def is the default stream's estimate (always present); streams holds
	// the non-default estimates, lazily created on first frame. Both are
	// guarded by mu.
	def     streamEst
	streams map[string]*streamEst

	msgs     obs.Counter
	bytes    obs.Counter
	perKind  [3]obs.Counter
	badMsgs  obs.Counter
	dups     obs.Counter
	acks     obs.Counter
	nacks    obs.Counter
	teleMsgs obs.Counter
	conns    obs.Gauge
	sink     obs.Sink
	tracer   *trace.Tracer
	// fleet aggregates telemetry frames when EnableTelemetry has been
	// called (nil = frames are counted and discarded). Install before
	// serving; read without synchronization, like sink and tracer.
	fleet *telemetry.Fleet

	// Per-(site, stream) delivery and liveness state: highest consumed
	// sequence number (the dedup horizon for replayed frames) and when the
	// sender was last heard from. Guarded by siteMu, not mu — liveness
	// bookkeeping must not serialize against the matrix fold.
	siteMu     sync.Mutex
	siteStates map[siteKey]*siteState
	staleAfter time.Duration
	now        func() time.Time

	wg     sync.WaitGroup
	lnMu   sync.Mutex
	ln     net.Listener
	closed bool
}

// streamEst is one logical stream's coordinator estimate.
type streamEst struct {
	chat *mat.Dense
	sum  float64
}

// siteKey identifies one sender's sequence space: exactly-once delivery
// holds per (site, stream), so dedup and liveness are recorded at the
// same granularity.
type siteKey struct {
	site   int
	stream string
}

// siteState is the coordinator's per-(site, stream) delivery record.
type siteState struct {
	lastSeq  uint64
	lastT    int64
	lastSeen time.Time
	stale    bool
}

// NewCoordinator returns a coordinator for d-dimensional directions,
// configured by options (WithSink, WithTracer, WithStaleAfter,
// WithTelemetry).
func NewCoordinator(d int, opts ...CoordinatorOption) *Coordinator {
	if d < 1 {
		panic("wire: d must be positive")
	}
	c := &Coordinator{d: d, def: streamEst{chat: mat.NewDense(d, d)}, now: time.Now}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// est returns the estimate for one stream, creating it on first use.
// Callers must hold mu.
func (c *Coordinator) est(stream string) *streamEst {
	if stream == "" {
		return &c.def
	}
	e := c.streams[stream]
	if e == nil {
		e = &streamEst{chat: mat.NewDense(c.d, c.d)}
		if c.streams == nil {
			c.streams = make(map[string]*streamEst)
		}
		c.streams[stream] = e
	}
	return e
}

// reject counts a malformed message and reports it to the sink.
func (c *Coordinator) reject(m Msg) {
	c.badMsgs.Inc()
	if c.sink != nil {
		c.sink.OnEvent(obs.Event{Kind: obs.EvMsgRejected, Site: m.Site, T: m.T})
	}
}

// admit records liveness for the sender and, for sequenced frames,
// reports whether the frame is new (true) or a replay of one already
// consumed (false). The dedup horizon advances for every fresh sequenced
// frame — including frames Apply goes on to reject — so a poison frame is
// consumed once, not re-rejected on every replay. The horizon is keyed by
// (site, stream): multiplexed streams carry independent sequence spaces.
func (c *Coordinator) admit(m Msg) bool {
	c.siteMu.Lock()
	if c.siteStates == nil {
		c.siteStates = make(map[siteKey]*siteState)
	}
	key := siteKey{site: m.Site, stream: m.StreamID}
	st := c.siteStates[key]
	if st == nil {
		st = &siteState{}
		c.siteStates[key] = st
	}
	st.lastSeen = c.now()
	wasStale := st.stale
	st.stale = false
	fresh := m.Seq == 0 || m.Seq > st.lastSeq
	if m.Seq > st.lastSeq {
		st.lastSeq = m.Seq
	}
	if m.T > st.lastT {
		st.lastT = m.T
	}
	c.siteMu.Unlock()
	if wasStale && c.sink != nil {
		c.sink.OnEvent(obs.Event{Kind: obs.EvSiteResync, Site: m.Site, T: m.T})
	}
	if !fresh {
		c.dups.Inc()
		if c.sink != nil {
			c.sink.OnEvent(obs.Event{Kind: obs.EvMsgDeduped, Site: m.Site, T: m.T})
		}
	}
	return fresh
}

// Apply folds one message into the coordinator state. Sequenced frames
// (Seq != 0) the coordinator has already consumed are dropped — counted
// in DupMsgs, reported as EvMsgDeduped — and return nil: a replayed delta
// was applied exactly once already.
func (c *Coordinator) Apply(m Msg) error {
	if m.Kind == Telemetry {
		// Telemetry bypasses admit() and the traffic counters entirely: it
		// must not advance dedup horizons, refresh data-plane liveness or
		// perturb Msgs/Bytes, so a soak with telemetry enabled stays
		// bit-identical to one without.
		c.teleMsgs.Inc()
		if c.fleet != nil && m.Tele != nil {
			c.fleet.Record(*m.Tele)
		}
		return nil
	}
	if m.Site >= 0 {
		if !c.admit(m) {
			return nil
		}
	}
	// A CRC-valid frame can still carry NaN or ±Inf, and one such value
	// folded into Ĉ or the sum poisons it for good. The frame has already
	// consumed its sequence number above, like every other rejected frame.
	if !mat.AllFinite(m.V...) || !mat.AllFinite(m.Delta) {
		c.reject(m)
		return errors.New("wire: non-finite value in frame")
	}
	if c.tracer != nil && m.Trace != 0 {
		sp := c.tracer.StartLinked(trace.Context{Trace: m.Trace, Span: m.Span}, trace.OpApply, m.Site, m.T)
		defer sp.End()
	}
	var payload int64
	switch m.Kind {
	case DirectionAdd, DirectionRemove:
		if len(m.V) != c.d {
			c.reject(m)
			return fmt.Errorf("wire: direction length %d, want %d", len(m.V), c.d)
		}
		payload = int64(8 * (len(m.V) + 3))
		// Delta is the rank-one scale when it is not ±1 (0 = ±1 by Kind):
		// Ĉ += Delta·VVᵀ is exactly the in-process tracker's Apply.
		scale := m.Delta
		if scale == 0 {
			scale = 1
			if m.Kind == DirectionRemove {
				scale = -1
			}
		}
		c.mu.Lock()
		mat.OuterAdd(c.est(m.StreamID).chat, m.V, scale)
		c.mu.Unlock()
	case SumDelta:
		payload = 8 * 3
		c.mu.Lock()
		c.est(m.StreamID).sum += m.Delta
		c.mu.Unlock()
	default:
		c.reject(m)
		return fmt.Errorf("wire: unknown message kind %d", m.Kind)
	}
	c.msgs.Inc()
	c.bytes.Add(payload)
	c.perKind[m.Kind].Inc()
	if c.sink != nil {
		c.sink.OnEvent(obs.Event{Kind: obs.EvMsgReceived, Site: m.Site, T: m.T, Words: payload / 8})
	}
	return nil
}

// Sketch returns B = Σ^{1/2}Vᵀ of the default stream's PSD-clipped Ĉ.
func (c *Coordinator) Sketch() *mat.Dense { return c.SketchOf("") }

// SketchOf returns B = Σ^{1/2}Vᵀ of one stream's PSD-clipped Ĉ. A stream
// the coordinator has never heard from yields the zero sketch.
func (c *Coordinator) SketchOf(stream string) *mat.Dense {
	sp := c.tracer.StartDetached(trace.OpQuery, -1, 0)
	defer sp.End()
	c.mu.Lock()
	var chat *mat.Dense
	if stream == "" {
		chat = c.def.chat.Clone()
	} else if e := c.streams[stream]; e != nil {
		chat = e.chat.Clone()
	} else {
		chat = mat.NewDense(c.d, c.d)
	}
	c.mu.Unlock()
	return mat.PSDSqrt(chat)
}

// Sum returns the default stream's scalar estimate.
func (c *Coordinator) Sum() float64 { return c.SumOf("") }

// SumOf returns one stream's scalar estimate (0 for an unseen stream).
func (c *Coordinator) SumOf(stream string) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if stream == "" {
		return c.def.sum
	}
	if e := c.streams[stream]; e != nil {
		return e.sum
	}
	return 0
}

// Streams lists the non-default stream ids heard from, sorted. The
// default stream "" always exists and is not listed.
func (c *Coordinator) Streams() []string {
	c.mu.Lock()
	out := make([]string, 0, len(c.streams))
	for id := range c.streams {
		out = append(out, id)
	}
	c.mu.Unlock()
	sort.Strings(out)
	return out
}

// Stats returns messages received and approximate payload bytes.
func (c *Coordinator) Stats() (msgs, bytes int64) {
	return c.msgs.Load(), c.bytes.Load()
}

// SiteStatus is the coordinator's liveness view of one (site, stream)
// sender.
type SiteStatus struct {
	// Site is the site's identifier.
	Site int
	// Stream is the logical stream id ("" = default stream).
	Stream string
	// LastSeq is the highest consumed sequence number (0 for unsequenced
	// senders).
	LastSeq uint64
	// LastT is the largest frame timestamp seen from the site.
	LastT int64
	// LastSeen is the wall-clock arrival time of the site's latest frame.
	LastSeen time.Time
	// Stale reports that the site has been silent longer than the
	// WithStaleAfter bound — its window contribution may be degraded.
	Stale bool
}

// CheckLiveness sweeps the per-site records, marks sites silent for
// longer than the WithStaleAfter bound as stale (emitting one EvSiteStale
// per transition), and returns the number of stale sites. With no bound
// configured it reports zero.
func (c *Coordinator) CheckLiveness() int {
	if c.staleAfter <= 0 {
		return 0
	}
	cut := c.now().Add(-c.staleAfter)
	var went []siteKey
	stale := 0
	c.siteMu.Lock()
	for key, st := range c.siteStates {
		if st.lastSeen.Before(cut) {
			if !st.stale {
				st.stale = true
				went = append(went, key)
			}
			stale++
		}
	}
	c.siteMu.Unlock()
	if c.sink != nil {
		for _, key := range went {
			c.sink.OnEvent(obs.Event{Kind: obs.EvSiteStale, Site: key.site})
		}
	}
	return stale
}

// SiteStatuses runs a liveness sweep and returns the per-(site, stream)
// delivery records, sorted by site then stream.
func (c *Coordinator) SiteStatuses() []SiteStatus {
	c.CheckLiveness()
	c.siteMu.Lock()
	out := make([]SiteStatus, 0, len(c.siteStates))
	for key, st := range c.siteStates {
		out = append(out, SiteStatus{
			Site: key.site, Stream: key.stream, LastSeq: st.lastSeq, LastT: st.lastT,
			LastSeen: st.lastSeen, Stale: st.stale,
		})
	}
	c.siteMu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Site != out[j].Site {
			return out[i].Site < out[j].Site
		}
		return out[i].Stream < out[j].Stream
	})
	return out
}

// CoordinatorMetrics is a point-in-time snapshot of a coordinator's
// observable state, serializable as the /metrics payload.
type CoordinatorMetrics struct {
	// Msgs and Bytes total all messages folded in (approximate payload
	// bytes, as in Stats).
	Msgs, Bytes int64
	// DirectionAdds, DirectionRemoves and SumDeltas break Msgs down by
	// message kind.
	DirectionAdds, DirectionRemoves, SumDeltas int64
	// BadMsgs counts rejected messages (dimension mismatch, unknown kind,
	// non-finite value, corrupt frame).
	BadMsgs int64
	// DupMsgs counts sequenced frames dropped because their Seq was
	// already consumed (replays after reconnect or site restart). Dups are
	// acknowledged but not re-applied, so they never double-count a delta.
	DupMsgs int64
	// AckedMsgs counts acknowledgements written back to sites.
	AckedMsgs int64
	// NackMsgs counts rewind requests sent after a corrupt frame on a
	// binary v2 connection (each asks one stream's sender to replay its
	// unacknowledged backlog). Always 0 on healthy links.
	NackMsgs int64
	// TelemetryFrames counts telemetry frames received (recorded into the
	// fleet view when telemetry is enabled, discarded otherwise). Never
	// part of Msgs/Bytes — telemetry stays outside the data accounting.
	TelemetryFrames int64
	// SitesSeen is the number of distinct site ids heard from.
	SitesSeen int64
	// Streams is the number of distinct logical streams heard from (the
	// default stream counts once it has carried a frame).
	Streams int64
	// StaleSites is the number of (site, stream) senders currently past
	// the WithStaleAfter liveness bound (0 when staleness detection is
	// disabled).
	StaleSites int64
	// Conns is the number of currently connected sites (Serve only).
	Conns int64
}

// Metrics snapshots the coordinator's counters; safe to call while
// connections stream.
func (c *Coordinator) Metrics() CoordinatorMetrics {
	stale := int64(c.CheckLiveness())
	c.siteMu.Lock()
	sites := make(map[int]struct{}, len(c.siteStates))
	streams := make(map[string]struct{}, len(c.siteStates))
	for key := range c.siteStates {
		sites[key.site] = struct{}{}
		streams[key.stream] = struct{}{}
	}
	seen := int64(len(sites))
	nstreams := int64(len(streams))
	c.siteMu.Unlock()
	return CoordinatorMetrics{
		Msgs:             c.msgs.Load(),
		Bytes:            c.bytes.Load(),
		DirectionAdds:    c.perKind[DirectionAdd].Load(),
		DirectionRemoves: c.perKind[DirectionRemove].Load(),
		SumDeltas:        c.perKind[SumDelta].Load(),
		BadMsgs:          c.badMsgs.Load(),
		DupMsgs:          c.dups.Load(),
		AckedMsgs:        c.acks.Load(),
		NackMsgs:         c.nacks.Load(),
		TelemetryFrames:  c.teleMsgs.Load(),
		SitesSeen:        seen,
		Streams:          nstreams,
		StaleSites:       stale,
		Conns:            c.conns.Load(),
	}
}

// MetricsMux returns an HTTP mux serving GET /metrics (the JSON-encoded
// CoordinatorMetrics), GET /healthz and /debug/vars, for mounting on an
// operations listener next to the site listener. Options add opt-in
// debug endpoints (obs.WithPprof, obs.WithHandler for /debug/trace).
//
// With telemetry enabled (EnableTelemetry), /metrics also content-
// negotiates the Prometheus text exposition — coordinator counters plus
// the per-(site, stream) fleet series — and /debug/fleet serves the
// fleet dashboard.
func (c *Coordinator) MetricsMux(opts ...obs.MuxOption) *http.ServeMux {
	if c.fleet != nil {
		opts = append([]obs.MuxOption{
			obs.WithPrometheus(c.WritePrometheusTo),
			obs.WithHandler("/debug/fleet", c.fleet.Handler()),
		}, opts...)
	}
	return obs.Mux(
		func() (any, bool) { return c.Metrics(), true },
		nil,
		opts...,
	)
}

// HandleConn decodes messages from one connection until EOF or an
// unrecoverable decode error, detecting the connection's codec (gob or
// binary v2) from its first byte. A message the coordinator refuses to
// apply (wrong dimension, unknown kind, NaN or ±Inf) is counted in
// BadMsgs and reported to the sink, but does NOT end the connection: one
// malformed frame must not drop a site whose stream is otherwise healthy.
//
// Corruption handling depends on the codec. A gob stream cannot
// resynchronize after corruption, so a gob decode error still ends the
// connection. On a binary v2 stream a frame rejected by CRC or structure
// is counted in BadMsgs, reported as EvMsgRejected, and the decoder
// resynchronizes at the next magic boundary — the connection survives.
// Because the rejected frame may have carried a sequenced delta, the
// coordinator then refuses to apply frames that would jump a sequence
// gap and instead sends a rewind request (Ack with Nack set) carrying the
// stream's consumed horizon; the sender replays its unacknowledged
// backlog in order, closing the gap with not one delta lost, double-
// applied or reordered. A corrupted frame belonging to a (site, stream)
// that has not yet appeared on this connection cannot be nacked — the
// coordinator does not know the key — and is recovered by the next
// reconnect's replay instead (see PROTOCOLS.md).
//
// When conn is also a writer (net.Conn is), every sequenced frame is
// acknowledged back on the same connection once consumed — applied,
// deduped or rejected; the frame will never be applied later, so holding
// it in the sender's backlog serves nothing. Acks use the connection's
// detected codec. An ack write failure ends the connection: the site
// will reconnect and replay, and dedup keeps the replay exactly-once.
func (c *Coordinator) HandleConn(conn io.Reader) error {
	dec, cdc, err := codec.Detect(conn)
	if err != nil {
		if errors.Is(err, io.EOF) {
			return nil
		}
		return err
	}
	if rel, ok := dec.(interface{ Release() }); ok {
		defer rel.Release()
	}
	var enc codec.Encoder
	if w, ok := conn.(io.Writer); ok {
		enc = cdc.NewEncoder(w)
	}
	ack := func(a Ack) error {
		if err := enc.EncodeAck(a); err != nil {
			return err
		}
		if err := enc.Flush(); err != nil {
			return err
		}
		c.acks.Inc()
		return nil
	}
	var (
		m    Msg
		lost bool                 // a frame on this conn was rejected by CRC/structure
		seen map[siteKey]struct{} // sequenced (site, stream) keys heard on this conn
		// lastNack records horizon+1 per nacked key, so a window of
		// in-flight frames all jumping the same gap triggers one rewind,
		// not one per frame. A fresh corrupt event always re-nacks.
		lastNack map[siteKey]uint64
	)
	for {
		err := dec.DecodeMsg(&m)
		var corrupt *codec.CorruptFrameError
		if errors.As(err, &corrupt) {
			c.badMsgs.Inc()
			if c.sink != nil {
				c.sink.OnEvent(obs.Event{Kind: obs.EvMsgRejected, Site: -1})
			}
			lost = true
			// The lost frame's key is unknowable; rewind every stream this
			// connection has carried so whichever one lost a delta replays.
			for key := range seen {
				h := c.horizonOf(key)
				if lastNack == nil {
					lastNack = make(map[siteKey]uint64)
				}
				lastNack[key] = h + 1
				if enc != nil {
					c.nacks.Inc()
					if err := ack(Ack{Seq: h, Stream: key.stream, Nack: true}); err != nil {
						return err
					}
				}
			}
			continue
		}
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		if m.Seq != 0 {
			key := siteKey{site: m.Site, stream: m.StreamID}
			if seen == nil {
				seen = make(map[siteKey]struct{})
			}
			seen[key] = struct{}{}
			if lost {
				// After corruption, a sequence jump may span the lost frame:
				// defer the jumped frame (the rewind will re-deliver it in
				// order) instead of applying out of order and letting a
				// cumulative ack retire the lost delta unapplied.
				if h := c.horizonOf(key); m.Seq > h+1 {
					if lastNack[key] != h+1 {
						if lastNack == nil {
							lastNack = make(map[siteKey]uint64)
						}
						lastNack[key] = h + 1
						if enc != nil {
							c.nacks.Inc()
							if err := ack(Ack{Seq: h, Stream: key.stream, Nack: true}); err != nil {
								return err
							}
						}
					}
					continue
				}
			}
		}
		// Rejections are already counted and reported inside Apply.
		_ = c.Apply(m)
		if m.Seq != 0 && enc != nil {
			if err := ack(Ack{Seq: m.Seq, Stream: m.StreamID}); err != nil {
				return err
			}
		}
	}
}

// horizonOf reads one (site, stream) consumed-sequence horizon.
func (c *Coordinator) horizonOf(key siteKey) uint64 {
	c.siteMu.Lock()
	defer c.siteMu.Unlock()
	if st := c.siteStates[key]; st != nil {
		return st.lastSeq
	}
	return 0
}

// Serve accepts site connections on l until Close. Each connection is
// handled on its own goroutine; decoding errors end only that connection.
func (c *Coordinator) Serve(l net.Listener) {
	c.lnMu.Lock()
	c.ln = l
	closed := c.closed
	c.lnMu.Unlock()
	if closed {
		l.Close()
		return
	}
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		c.wg.Add(1)
		c.conns.Add(1)
		go func() {
			defer c.wg.Done()
			defer c.conns.Add(-1)
			defer conn.Close()
			_ = c.HandleConn(conn)
		}()
	}
}

// Close stops accepting and waits for in-flight connections to finish.
func (c *Coordinator) Close() {
	c.lnMu.Lock()
	c.closed = true
	if c.ln != nil {
		c.ln.Close()
	}
	c.lnMu.Unlock()
	c.wg.Wait()
}

// Sender pushes messages toward a coordinator. Implementations: ConnSender
// over a net.Conn, or the coordinator itself in process via Loopback.
type Sender interface {
	Send(Msg) error
}

// ConnSender encodes messages onto a single stream in one codec (gob by
// default, WithCodec selects). Each Send is flushed through immediately.
type ConnSender struct {
	mu     sync.Mutex
	enc    codec.Encoder
	conn   io.WriteCloser
	stream string

	msgs   obs.Counter
	encLat obs.Histogram
}

// Send encodes one message.
func (s *ConnSender) Send(m Msg) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if m.StreamID == "" {
		m.StreamID = s.stream
	}
	start := time.Now()
	err := s.enc.EncodeMsg(&m)
	if err == nil {
		err = s.enc.Flush()
	}
	s.encLat.Observe(time.Since(start))
	if err == nil {
		s.msgs.Inc()
	}
	return err
}

// Stream returns a Sender view stamping every message with the given
// stream id, so many logical streams can multiplex over this sender.
func (s *ConnSender) Stream(id string) Sender { return StreamOf(s, id) }

// SenderMetrics is a snapshot of one sender's counters.
type SenderMetrics struct {
	// Msgs counts successfully encoded messages.
	Msgs int64
	// EncodeLatency is the encode+write latency histogram (messages are
	// rare relative to rows, so every send is timed).
	EncodeLatency obs.HistSnapshot
}

// Metrics snapshots the sender's counters; safe to call concurrently with
// Send.
func (s *ConnSender) Metrics() SenderMetrics {
	return SenderMetrics{Msgs: s.msgs.Load(), EncodeLatency: s.encLat.Snapshot()}
}

// Close closes the underlying connection.
func (s *ConnSender) Close() error { return s.conn.Close() }

// StreamOf returns a Sender stamping every message with the given stream
// id before forwarding to out, so one transport (typically a
// ResilientSender over one TCP connection) can carry many logical
// streams: give each stream's protocol sites their own view of the
// shared sender. The empty id returns out unchanged — the default
// stream needs no stamping. The Stream method on ConnSender and
// ResilientSender is the same wrapper, one call shorter.
func StreamOf(out Sender, id string) Sender {
	if id == "" {
		return out
	}
	return streamSender{out: out, id: id}
}

type streamSender struct {
	out Sender
	id  string
}

func (s streamSender) Send(m Msg) error {
	m.StreamID = s.id
	return s.out.Send(m)
}

// Loopback delivers messages to a coordinator in process — useful in
// tests and single-binary deployments.
type Loopback struct{ C *Coordinator }

// Send applies the message directly.
func (l Loopback) Send(m Msg) error { return l.C.Apply(m) }
