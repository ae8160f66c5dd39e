// Package wire runs the one-way deterministic protocols (SUM, DA1, DA2)
// over real network connections — the deployment the paper leaves as
// future work ("implementing distributed monitoring algorithms in a real
// distributed system"). Each site drives a one-site internal/core tracker
// — the same site logic the in-process trackers run — and pushes the
// updates it emits to a coordinator over TCP (or any net.Conn); the
// coordinator folds them into its covariance estimate with the in-process
// arithmetic and answers sketch queries concurrently through the
// in-process read path (core.FreezeGram).
//
// The coordinator has one store. Each logical stream, the default stream
// "" included, is one entry of a sharded map holding its estimate and its
// senders' delivery records under one per-stream lock; no mutex spans
// streams. A frame is admitted and folded under that lock, so streams
// never contend and a checkpoint (Coordinator.Snapshot) is a per-stream
// consistent cut.
//
// Frames travel in the binary v2 framing (package codec), whose
// per-frame CRC lets a corrupted stream resynchronize instead of dying.
// It is the only wire framing: the coordinator refuses a connection whose
// first byte is not the v2 magic, so sites and coordinator upgrade
// together (PROTOCOLS.md, "Wire versioning").
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

	"distwindow/internal/core"
	"distwindow/internal/obs"
	"distwindow/internal/obs/telemetry"
	"distwindow/internal/tenant"
	"distwindow/internal/trace"
	"distwindow/internal/wire/codec"
	"distwindow/mat"
)

// Msg is the single message type of the one-way protocols. The type
// lives in the codec subpackage next to the framing that carries it; see
// codec.Msg for the field documentation.
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

// Coordinator receives messages from any number of sites and maintains,
// per logical stream, Ĉ = Σ Delta·vvᵀ (Delta = ±1 by Kind when a frame
// carries 0) plus the scalar sum estimate. Safe for concurrent use.
//
// Frames carry a StreamID; each distinct id gets its own entry, created on
// its first frame. The default stream "" is an ordinary entry created at
// construction, and the un-suffixed accessors (Sketch, Sum) read it. Every
// stream shares the coordinator's dimension d — heterogeneous dimensions
// need separate coordinators. An entry holds its stream's Ĉ, sum and
// delivery records under one lock (see the package doc); a query freezes
// Ĉ under that lock with core.FreezeGram and factors it outside.
//
// The traffic counters are atomic, so Metrics (and the mux returned by
// MetricsMux) can be read while connections stream.
type Coordinator struct {
	d       int
	streams *tenant.Map[*coordStream]

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

	staleAfter time.Duration
	now        func() time.Time

	wg     sync.WaitGroup
	lnMu   sync.Mutex
	ln     net.Listener
	closed bool
}

// coordStream is one logical stream's coordinator state. Everything in it
// is guarded by mu.
type coordStream struct {
	mu   sync.Mutex
	chat *mat.Dense
	sum  float64
	// sites holds the per-site delivery records: exactly-once delivery
	// holds per (site, stream), so dedup and liveness are recorded at the
	// same granularity.
	sites map[int]*siteState
}

// siteState is the coordinator's delivery record of one site on one
// stream: the highest consumed sequence number (the dedup horizon for
// replayed frames) and when the sender was last heard from.
type siteState struct {
	lastSeq  uint64
	lastT    int64
	lastSeen time.Time
	stale    bool
}

// siteKey identifies one sender's sequence space.
type siteKey struct {
	site   int
	stream string
}

// NewCoordinator returns a coordinator for d-dimensional directions,
// configured by options (WithSink, WithTracer, WithStaleAfter,
// WithTelemetry).
func NewCoordinator(d int, opts ...CoordinatorOption) *Coordinator {
	if d < 1 {
		panic("wire: d must be positive")
	}
	c := &Coordinator{d: d, streams: tenant.NewMap[*coordStream](0), now: time.Now}
	for _, opt := range opts {
		opt(c)
	}
	c.stream("")
	return c
}

// stream returns one stream's entry, creating it on first use. The
// constructor cannot fail, so LoadOrCreate's error is always nil.
func (c *Coordinator) stream(id string) *coordStream {
	e, _, _ := c.streams.LoadOrCreate(id, func() (*coordStream, error) {
		return &coordStream{chat: mat.NewDense(c.d, c.d), sites: make(map[int]*siteState)}, nil
	})
	return e
}

// each calls fn for every stream, under that stream's lock.
func (c *Coordinator) each(fn func(id string, e *coordStream)) {
	c.streams.Range(func(id string, e *coordStream) bool {
		e.mu.Lock()
		fn(id, e)
		e.mu.Unlock()
		return true
	})
}

// record returns one site's delivery record, creating it on first use.
// Callers hold e.mu.
func (e *coordStream) record(site int) *siteState {
	st := e.sites[site]
	if st == nil {
		st = &siteState{}
		e.sites[site] = st
	}
	return st
}

// admit records liveness for the sender and, for sequenced frames,
// reports whether the frame is new (true) or a replay of one already
// consumed (false); resync reports that the sender was stale until now.
// The dedup horizon advances for every fresh sequenced frame — including
// frames Apply goes on to reject — so a poison frame is consumed once, not
// re-rejected on every replay. Callers hold e.mu.
func (e *coordStream) admit(m Msg, now time.Time) (fresh, resync bool) {
	st := e.record(m.Site)
	st.lastSeen = now
	resync, st.stale = st.stale, false
	fresh = m.Seq == 0 || m.Seq > st.lastSeq
	if m.Seq > st.lastSeq {
		st.lastSeq = m.Seq
	}
	if m.T > st.lastT {
		st.lastT = m.T
	}
	return fresh, resync
}

// reject counts a malformed message and reports it to the sink. Frames
// whose sender is unknown (corrupt or undecodable) are reported as site -1.
func (c *Coordinator) reject(m Msg) {
	c.badMsgs.Inc()
	if c.sink != nil {
		c.sink.OnEvent(obs.Event{Kind: obs.EvMsgRejected, Site: m.Site, T: m.T})
	}
}

// Apply folds one message into the coordinator state. Sequenced frames
// (Seq != 0) the coordinator has already consumed are dropped — counted
// in DupMsgs, reported as EvMsgDeduped — and return nil: a replayed delta
// was applied exactly once already. The frame is admitted and folded
// under its stream's lock, so a concurrent Snapshot sees it wholly or not
// at all; sink events are emitted after the lock is released.
func (c *Coordinator) Apply(m Msg) error {
	if m.Kind == Telemetry {
		// Telemetry bypasses admission and the traffic counters entirely:
		// it must not advance dedup horizons, refresh data-plane liveness
		// or perturb Msgs/Bytes, so a soak with telemetry enabled stays
		// bit-identical to one without.
		c.teleMsgs.Inc()
		if c.fleet != nil && m.Tele != nil {
			c.fleet.Record(*m.Tele)
		}
		return nil
	}
	e := c.stream(m.StreamID)
	e.mu.Lock()
	fresh, resync := true, false
	if m.Site >= 0 {
		fresh, resync = e.admit(m, c.now())
	}
	var payload int64
	var err error
	if fresh {
		payload, err = c.fold(e, m)
	}
	e.mu.Unlock()
	if resync && c.sink != nil {
		c.sink.OnEvent(obs.Event{Kind: obs.EvSiteResync, Site: m.Site, T: m.T})
	}
	if !fresh {
		c.dups.Inc()
		if c.sink != nil {
			c.sink.OnEvent(obs.Event{Kind: obs.EvMsgDeduped, Site: m.Site, T: m.T})
		}
		return nil
	}
	if err != nil {
		c.reject(m)
		return err
	}
	c.msgs.Inc()
	c.bytes.Add(payload)
	c.perKind[m.Kind].Inc()
	if c.sink != nil {
		c.sink.OnEvent(obs.Event{Kind: obs.EvMsgReceived, Site: m.Site, T: m.T, Words: payload / 8})
	}
	return nil
}

// fold validates one admitted frame and folds it into the stream's
// estimate, returning its approximate payload size. A rejected frame has
// already consumed its sequence number in admit. Callers hold e.mu.
func (c *Coordinator) fold(e *coordStream, m Msg) (int64, error) {
	// A CRC-valid frame can still carry NaN or ±Inf, and one such value
	// folded into Ĉ or the sum poisons it for good.
	if !mat.AllFinite(m.V...) || !mat.AllFinite(m.Delta) {
		return 0, errors.New("wire: non-finite value in frame")
	}
	if c.tracer != nil && m.Trace != 0 {
		sp := c.tracer.StartLinked(trace.Context{Trace: m.Trace, Span: m.Span}, trace.OpApply, m.Site, m.T)
		defer sp.End()
	}
	switch m.Kind {
	case DirectionAdd, DirectionRemove:
		if len(m.V) != c.d {
			return 0, fmt.Errorf("wire: direction length %d, want %d", len(m.V), c.d)
		}
		// Delta is the rank-one scale when it is not ±1 (0 = ±1 by Kind):
		// Ĉ += Delta·VVᵀ is exactly the in-process tracker's Apply.
		scale := m.Delta
		if scale == 0 {
			scale = 1
			if m.Kind == DirectionRemove {
				scale = -1
			}
		}
		mat.OuterAdd(e.chat, m.V, scale)
		return int64(8 * (len(m.V) + 3)), nil
	case SumDelta:
		e.sum += m.Delta
		return 8 * 3, nil
	}
	return 0, fmt.Errorf("wire: unknown message kind %d", m.Kind)
}

// Sketch returns B = Σ^{1/2}Vᵀ of the default stream's PSD-clipped Ĉ.
func (c *Coordinator) Sketch() *mat.Dense { return c.SketchOf("") }

// SketchOf returns B = Σ^{1/2}Vᵀ of one stream's PSD-clipped Ĉ, a copy
// owned by the caller. A stream the coordinator has never heard from
// yields the zero sketch.
func (c *Coordinator) SketchOf(stream string) *mat.Dense {
	sp := c.tracer.StartDetached(trace.OpQuery, -1, 0)
	defer sp.End()
	e, ok := c.streams.Get(stream)
	if !ok {
		return mat.NewDense(0, c.d)
	}
	e.mu.Lock()
	g := core.FreezeGram(e.chat)
	e.mu.Unlock()
	return g.Sketch()
}

// Sum returns the default stream's scalar estimate.
func (c *Coordinator) Sum() float64 { return c.SumOf("") }

// SumOf returns one stream's scalar estimate (0 for an unseen stream).
func (c *Coordinator) SumOf(stream string) float64 {
	e, ok := c.streams.Get(stream)
	if !ok {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.sum
}

// Streams lists, sorted, the non-default stream ids a site has sent on,
// including a stream whose every frame was rejected. The default stream
// "" always exists and is not listed.
func (c *Coordinator) Streams() []string {
	ids := c.streams.Keys()
	sort.Strings(ids)
	return ids[1:] // "" sorts first
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
	var went []int
	stale := 0
	c.each(func(_ string, e *coordStream) {
		for site, st := range e.sites {
			if st.lastSeen.Before(cut) {
				if !st.stale {
					st.stale = true
					went = append(went, site)
				}
				stale++
			}
		}
	})
	if c.sink != nil {
		for _, site := range went {
			c.sink.OnEvent(obs.Event{Kind: obs.EvSiteStale, Site: site})
		}
	}
	return stale
}

// SiteStatuses runs a liveness sweep and returns the per-(site, stream)
// delivery records, sorted by site then stream.
func (c *Coordinator) SiteStatuses() []SiteStatus {
	c.CheckLiveness()
	var out []SiteStatus
	c.each(func(id string, e *coordStream) {
		for site, st := range e.sites {
			out = append(out, SiteStatus{
				Site: site, Stream: id, LastSeq: st.lastSeq, LastT: st.lastT,
				LastSeen: st.lastSeen, Stale: st.stale,
			})
		}
	})
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
	// non-finite value, corrupt frame) and refused non-v2 connections.
	BadMsgs int64
	// DupMsgs counts sequenced frames dropped because their Seq was
	// already consumed (replays after reconnect or site restart). Dups are
	// acknowledged but not re-applied, so they never double-count a delta.
	DupMsgs int64
	// AckedMsgs counts acknowledgements written back to sites.
	AckedMsgs int64
	// NackMsgs counts rewind requests sent after a corrupt frame (each
	// asks one stream's sender to replay its unacknowledged backlog).
	// Always 0 on healthy links.
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
	sites := make(map[int]struct{})
	var streams int64
	c.each(func(_ string, e *coordStream) {
		for site := range e.sites {
			sites[site] = struct{}{}
		}
		if len(e.sites) > 0 {
			streams++
		}
	})
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
		SitesSeen:        int64(len(sites)),
		Streams:          streams,
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

// HandleConn decodes binary v2 messages from one connection until EOF or
// an unrecoverable decode error. A message the coordinator refuses to
// apply (wrong dimension, unknown kind, NaN or ±Inf) is counted in
// BadMsgs and reported to the sink, but does NOT end the connection: one
// malformed frame must not drop a site whose stream is otherwise healthy.
//
// A stream that does not open with the v2 magic byte (a stale gob sender,
// say) is refused: counted in BadMsgs, reported as EvMsgRejected from
// site -1, and the connection ends with codec.ErrNotV2, Ĉ and the sums
// untouched.
//
// A frame rejected by CRC or structure is counted in BadMsgs, reported as
// EvMsgRejected, and the decoder resynchronizes at the next magic
// boundary — the connection survives. Because the rejected frame may have
// carried a sequenced delta, the coordinator then refuses to apply frames
// that would jump a sequence gap and instead sends a rewind request (Ack
// with Nack set) carrying the stream's consumed horizon; the sender
// replays its unacknowledged backlog in order, closing the gap with not
// one delta lost, double-applied or reordered. A corrupted frame
// belonging to a (site, stream) that has not yet appeared on this
// connection cannot be nacked — the coordinator does not know the key —
// and is recovered by the next reconnect's replay instead (see
// PROTOCOLS.md).
//
// When conn is also a writer (net.Conn is), every sequenced frame is
// acknowledged back on the same connection once consumed — applied,
// deduped or rejected; the frame will never be applied later, so holding
// it in the sender's backlog serves nothing. An ack write failure ends
// the connection: the site will reconnect and replay, and dedup keeps the
// replay exactly-once.
func (c *Coordinator) HandleConn(conn io.Reader) error {
	dec, _, err := codec.Detect(conn)
	if err != nil {
		if errors.Is(err, io.EOF) {
			return nil
		}
		if errors.Is(err, codec.ErrNotV2) {
			c.reject(Msg{Site: -1})
		}
		return err
	}
	defer dec.Release()
	var enc codec.Encoder
	if w, ok := conn.(io.Writer); ok {
		enc = codec.BinaryV2.NewEncoder(w)
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
			c.reject(Msg{Site: -1})
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
	e, ok := c.streams.Get(key.stream)
	if !ok {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if st := e.sites[key.site]; st != nil {
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

// ConnSender encodes messages onto a single stream in the binary v2
// framing. Each Send is flushed through immediately.
type ConnSender struct {
	mu   sync.Mutex
	enc  codec.Encoder
	conn io.WriteCloser

	msgs   obs.Counter
	encLat obs.Histogram
}

// Send encodes one message.
func (s *ConnSender) Send(m Msg) error {
	s.mu.Lock()
	defer s.mu.Unlock()
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
