package main

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"distwindow/internal/obs"
	"distwindow/internal/stream"
	"distwindow/internal/wire"
	"distwindow/internal/wire/codec"
)

// netParams is net-tcp's setting: da1-seq's stream, every row fed to a
// networked DA1 site and a networked DA2 site of the same id.
var netParams = params{proto: "DA1+DA2", d: 32, sites: 20, eps: 0.05, rpw: 10_000}

// netConns is how many loopback TCP connections the sites share.
const netConns = 2

// netQueryRate is the query goroutine's fixed SketchOf rate: 200 per
// second, raised for short runs so the query p99 keeps 1000 samples.
func netQueryRate(e env) float64 { return max(200, 1500/e.seconds) }

// netStreams are the stream ids the two protocols' sites send on.
var netStreams = []string{"da1", "da2"}

// timedConn wraps a connection handed to wire.NewSender or
// Coordinator.HandleConn, recording each Write or Read as a span on the
// track of the one goroutine that uses that direction.
type timedConn struct {
	net.Conn
	wtk, rtk *track
	written  int64
}

func (c *timedConn) Write(b []byte) (int, error) {
	sp := c.wtk.begin("wire.conn_write")
	n, err := c.Conn.Write(b)
	c.wtk.end(sp)
	c.written += int64(n)
	return n, err
}

func (c *timedConn) Read(b []byte) (int, error) {
	sp := c.rtk.begin("wire.conn_read")
	n, err := c.Conn.Read(b)
	c.rtk.end(sp)
	return n, err
}

// handFIFO matches frames to the rows that caused them: a site's sender
// wrapper pushes the row's hand-over time before each Send, and the
// coordinator sink pops it when the frame is applied. One connection
// carries all of a site's frames in order, so per-site FIFO order holds.
type handFIFO struct {
	mu   sync.Mutex
	q    [][]time.Time
	lat  []time.Duration
	miss int64
}

func (h *handFIFO) push(site int, t time.Time) {
	h.mu.Lock()
	h.q[site] = append(h.q[site], t)
	h.mu.Unlock()
}

func (h *handFIFO) pop(site int, now time.Time) {
	h.mu.Lock()
	if site < 0 || site >= len(h.q) || len(h.q[site]) == 0 {
		h.miss++
	} else {
		h.lat = append(h.lat, now.Sub(h.q[site][0]))
		h.q[site] = h.q[site][1:]
	}
	h.mu.Unlock()
}

// sendWrap is the wire.Sender handed to one networked site.
type sendWrap struct {
	inner wire.Sender
	f     *netFeeder
	site  int
}

func (s sendWrap) Send(m wire.Msg) error {
	s.f.run.fifo.push(s.site, s.f.hand)
	sp := s.f.tk.begin("wire.send")
	err := s.inner.Send(m)
	s.f.tk.end(sp)
	if err != nil {
		s.f.failed++
		return err
	}
	s.f.sent.Add(1)
	return nil
}

// netSite is one site id's pair of networked protocol sites.
type netSite struct {
	da1 *wire.DA1Site
	da2 *wire.DA2Site
}

// netFeeder is one load goroutine: it owns one connection and the sites
// multiplexed on it.
type netFeeder struct {
	run    *netRun
	conn   *timedConn
	sender *wire.ConnSender
	tk     *track
	hand   time.Time // hand-over time of the row being observed
	sent   atomic.Int64
	failed int64
	rows   int64
	work   chan []stream.Event
	done   chan struct{}
}

func (f *netFeeder) feed(evs []stream.Event) {
	root := f.tk.begin("bench.feed")
	for _, ev := range evs {
		s := f.run.sites[ev.Site]
		f.hand = time.Now()
		sp := f.tk.begin("wire.site_observe")
		if err := s.da1.Observe(ev.Row.T, ev.Row.V); err != nil {
			f.failed++
		}
		if err := s.da2.Observe(ev.Row.T, ev.Row.V); err != nil {
			f.failed++
		}
		f.tk.end(sp)
		f.rows++
	}
	f.tk.end(root)
}

// netRun is one instance of the networked system: a coordinator behind a
// loopback listener, netConns connections carrying the sites' frames, and
// the benchmark goroutines around them.
type netRun struct {
	p       params
	coord   *wire.Coordinator
	ln      net.Listener
	fifo    *handFIFO
	sites   []netSite
	feeders []*netFeeder
	handler sync.WaitGroup
}

func startNet(p params, tc *tracer) (*netRun, error) {
	r := &netRun{p: p, fifo: &handFIFO{q: make([][]time.Time, p.sites)}}
	r.coord = wire.NewCoordinator(p.d, wire.WithSink(obs.FuncSink(func(ev obs.Event) {
		if ev.Kind == obs.EvMsgReceived {
			r.fifo.pop(ev.Site, time.Now())
		}
	})))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r.ln = ln
	// Tracks are created here, before any goroutine records on them.
	htk := make([]*track, netConns)
	for i := range htk {
		htk[i] = tc.track(fmt.Sprintf("coordinator-%d", i))
	}
	accepted := make(chan error, 1)
	go func() {
		for i := 0; i < netConns; i++ {
			c, err := ln.Accept()
			if err != nil {
				accepted <- err
				return
			}
			tk := htk[i]
			tcn := &timedConn{Conn: c, rtk: tk}
			r.handler.Add(1)
			go func() {
				defer r.handler.Done()
				sp := tk.begin("wire.handle_conn")
				_ = r.coord.HandleConn(tcn) // ends when the sender closes
				tk.end(sp)
			}()
		}
		accepted <- nil
	}()
	// fail releases everything started so far; the accept goroutine is
	// waited for first, so no handler is added while close waits.
	acceptDone := false
	fail := func(err error) (*netRun, error) {
		ln.Close()
		if !acceptDone {
			<-accepted
		}
		r.close()
		return nil, err
	}
	for i := 0; i < netConns; i++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return fail(err)
		}
		f := &netFeeder{run: r, tk: tc.track(fmt.Sprintf("feeder-%d", i)), work: make(chan []stream.Event), done: make(chan struct{})}
		f.conn = &timedConn{Conn: c, wtk: f.tk}
		r.feeders = append(r.feeders, f)
		if f.sender, err = wire.NewSender(f.conn, wire.WithCodec(codec.BinaryV2)); err != nil {
			return fail(err)
		}
	}
	err = <-accepted
	acceptDone = true
	if err != nil {
		return fail(err)
	}
	r.sites = make([]netSite, p.sites)
	for i := range r.sites {
		f := r.feeders[i%netConns]
		cfg := wire.SiteConfig{ID: i, D: p.d, W: p.W(), Eps: p.eps}
		if r.sites[i].da1, err = wire.NewDA1Site(cfg, sendWrap{inner: f.sender.Stream("da1"), f: f, site: i}); err != nil {
			return fail(err)
		}
		if r.sites[i].da2, err = wire.NewDA2Site(cfg, sendWrap{inner: f.sender.Stream("da2"), f: f, site: i}); err != nil {
			return fail(err)
		}
	}
	for _, f := range r.feeders {
		go func(f *netFeeder) {
			for evs := range f.work {
				f.feed(evs)
				f.done <- struct{}{}
			}
		}(f)
	}
	return r, nil
}

// feed splits a chunk by connection and waits until every feeder is done.
func (r *netRun) feed(evs []stream.Event) {
	parts := make([][]stream.Event, netConns)
	for _, ev := range evs {
		i := ev.Site % netConns
		parts[i] = append(parts[i], ev)
	}
	for i, f := range r.feeders {
		f.work <- parts[i]
	}
	for _, f := range r.feeders {
		<-f.done
	}
}

// sent is the number of frames the sites have sent.
func (r *netRun) sent() int64 {
	var n int64
	for _, f := range r.feeders {
		n += f.sent.Load()
	}
	return n
}

// settle waits until the coordinator has applied every frame sent.
func (r *netRun) settle(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		if r.coord.Metrics().Msgs >= r.sent() {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// close stops the feeders, closes the connections and waits for the
// coordinator's handlers to return.
func (r *netRun) close() {
	for _, f := range r.feeders {
		if f.work != nil {
			close(f.work)
			f.work = nil
		}
		f.conn.Close()
	}
	r.ln.Close()
	r.handler.Wait()
}

// siteSpaceWords is the largest per-site state, both protocols' sites of
// one id together, counted from their snapshots the way the core protocols
// charge space: sketch and replica entries plus per-bucket bookkeeping.
func (r *netRun) siteSpaceWords() int64 {
	var max int64
	d := int64(r.p.d)
	for _, s := range r.sites {
		a := s.da1.Snapshot()
		w := int64(len(a.Chat))
		for _, b := range a.Hist.Buckets {
			w += int64(len(b.Row)) + 4
			if b.Sketch != nil {
				w += int64(len(b.Sketch.Buf))
			}
		}
		b := s.da2.Snapshot()
		w += int64(len(b.A.Sketch.Buf)) + int64(len(b.Ledger)+len(b.Q))*(d+1) + int64(len(b.Mass.Buckets))*3
		if w > max {
			max = w
		}
	}
	return max
}

// queryLoop calls SketchOf at a fixed rate, alternating streams, while
// active is set. Latency is the call itself: an in-process call has no
// queue behind it, and how late each call started is recorded apart.
type queryLoop struct {
	active   atomic.Bool
	chunk    atomic.Int64 // bumped as each measured chunk starts
	stop     chan struct{}
	done     chan struct{}
	lat      []time.Duration
	late     []time.Duration
	tk       *track
	attempts int64
}

func (q *queryLoop) run(c *wire.Coordinator, rate float64) {
	defer close(q.done)
	period := every(rate)
	var next time.Time
	for i := 0; ; {
		select {
		case <-q.stop:
			return
		default:
		}
		if !q.active.Load() {
			next = time.Time{}
			time.Sleep(200 * time.Microsecond)
			continue
		}
		if next.IsZero() {
			next = time.Now().Add(period)
		}
		sleepUntil(next)
		// Only calls made wholly inside one measured chunk count: a call
		// begun during a pause (generation, checks) would time the pause.
		chunk := q.chunk.Load()
		if !q.active.Load() {
			continue
		}
		q0 := time.Now()
		sp := q.tk.begin("wire.sketch_of")
		c.SketchOf(netStreams[i%len(netStreams)])
		q.tk.end(sp)
		q1 := time.Now()
		if q.active.Load() && q.chunk.Load() == chunk {
			q.lat = append(q.lat, q1.Sub(q0))
			q.late = append(q.late, q0.Sub(next))
			q.attempts++
		}
		next = next.Add(period)
		i++
	}
}

// netResult is what one measured pass over a netRun saw.
type netResult struct {
	rows    int64
	frames  int64
	bytes   int64
	busy    time.Duration
	meter   *rateMeter
	maxErr  float64
	checks  int
	t0, t1  int64
	settled bool
	allocs  float64
	gcShare float64
}

// measureNet feeds src through the run for dur of busy time, with the
// query goroutine active, checking covariance error every checkRows rows.
func measureNet(r *netRun, src *source, exact *exactWindow, q *queryLoop, dur time.Duration, checkRows int) netResult {
	res := netResult{meter: newRateMeter(250 * time.Millisecond), t0: src.lastT}
	m0 := r.coord.Metrics()
	r.fifo.mu.Lock()
	r.fifo.lat = r.fifo.lat[:0]
	r.fifo.mu.Unlock()
	mark := markRuntime()
	probe := newRefProbe(netConns)
	since := 0
	for res.busy < dur {
		chunk := src.next(chunkRows)
		q.chunk.Add(1)
		q.active.Store(true)
		c0 := time.Now()
		r.feed(chunk)
		el := time.Since(c0)
		q.active.Store(false)
		res.busy += el
		res.rows += int64(len(chunk))
		res.meter.ref(probe.speed())
		res.meter.add(float64(len(chunk)), el)
		exact.add(chunk)
		since += len(chunk)
		// A run too short to reach a query point checks at its end.
		if since >= checkRows || (res.busy >= dur && res.checks == 0) {
			since = 0
			r.settle(10 * time.Second)
			for _, id := range netStreams {
				if e := exact.covErr(src.lastT, r.coord.SketchOf(id)); e > res.maxErr {
					res.maxErr = e
				}
			}
			res.checks++
		}
	}
	res.allocs = mark.allocsSince()
	res.gcShare = mark.gcShareSince()
	res.settled = r.settle(10 * time.Second)
	m1 := r.coord.Metrics()
	res.frames, res.bytes = m1.Msgs-m0.Msgs, m1.Bytes-m0.Bytes
	res.t1 = src.lastT
	return res
}

// newNet starts a networked system over a fresh source and fills its
// window once.
func newNet(e env, p params, tc *tracer) (*netRun, *source, *exactWindow, error) {
	run, err := startNet(p, tc)
	if err != nil {
		return nil, nil, nil, err
	}
	src := newSource(p.d, p.sites, p.rpw, e.seed)
	pre := src.take(p.rpw)
	for i := 0; i < len(pre); i += chunkRows {
		run.feed(pre[i:min(i+chunkRows, len(pre))])
	}
	if !run.settle(30 * time.Second) {
		run.close()
		return nil, nil, nil, errors.New("prefill frames never reached the coordinator")
	}
	exact := newExactWindow(p.d, p.W())
	exact.add(pre)
	return run, src, exact, nil
}

// runNetTCP is the net-tcp workload.
func runNetTCP(e env, r *report) error {
	p := netParams
	var (
		run   *netRun
		src   *source
		exact *exactWindow
		setup []float64
	)
	for i := 0; i < setupRepeats; i++ {
		if run != nil {
			run.close()
		}
		t0 := time.Now()
		var err error
		if run, src, exact, err = newNet(e, p, nil); err != nil {
			return err
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	if e.trace {
		run.close()
		return traceNet(e, r, p)
	}
	defer run.close()
	q := &queryLoop{stop: make(chan struct{}), done: make(chan struct{})}
	go q.run(run.coord, netQueryRate(e))
	res := measureNet(run, src, exact, q, e.dur(), p.rpw/2)
	close(q.stop)
	<-q.done
	r.set("setup_s", "s", median(setup))
	reportNet(r, p, run, q, res)
	return nil
}

func reportNet(r *report, p params, run *netRun, q *queryLoop, res netResult) {
	var failed int64
	for _, f := range run.feeders {
		failed += f.failed
	}
	r.ops(res.rows+res.frames+q.attempts, failed)
	r.set("ingest_rows_per_kref", "rows/kref", res.meter.medianKref())
	r.set("ingest_rows_per_s", "rows/s", res.meter.median())
	run.fifo.mu.Lock()
	lat := append([]time.Duration(nil), run.fifo.lat...)
	miss := run.fifo.miss
	run.fifo.mu.Unlock()
	r.tail("ingest_to_queryable_p50_ms", "ingest_to_queryable_p99_ms", "ms", lat, time.Millisecond)
	r.tail("query_p50_us", "query_p99_us", "us", q.lat, time.Microsecond)
	windows := float64(res.t1-res.t0) / float64(p.W())
	r.set("words_per_window", "words", float64(res.bytes)/8/windows)
	r.set("site_space_words", "words", float64(run.siteSpaceWords()))
	r.set("max_cov_err", "ratio", res.maxErr)
	if hwm, err := procHWM(0); err == nil {
		r.set("peak_rss_mb", "MB", hwm)
	}
	r.check("max_cov_err", res.checks > 0 && res.maxErr <= p.covLimit(), "max %.4g over %d query points × 2 streams, limit 2ε=%g", res.maxErr, res.checks, p.covLimit())
	r.check("all_frames_applied", res.settled && miss == 0, "coordinator applied %d of %d frames sent, %d unmatched", run.coord.Metrics().Msgs, run.sent(), miss)
	r.check("send_errors", failed == 0, "%d site errors", failed)
	r.note("rows=%d frames=%d (%.2f per 1000 rows) busy=%v queries=%d", res.rows, res.frames, float64(res.frames)/float64(res.rows)*1000, res.busy.Round(time.Millisecond), q.attempts)
}

// traceNet is net-tcp's traced mode: one untraced and one traced pass of
// half the run each, then the isolated layer replays.
func traceNet(e env, r *report, p params) error {
	var rates [2]float64
	for pass := 0; pass < 2; pass++ {
		var tc *tracer
		if pass == 1 {
			tc = newTracer()
		}
		run, src, exact, err := newNet(e, p, tc)
		if err != nil {
			return err
		}
		q := &queryLoop{stop: make(chan struct{}), done: make(chan struct{}), tk: tc.track("query")}
		go q.run(run.coord, netQueryRate(e))
		res := measureNet(run, src, exact, q, e.dur()/2, p.rpw/2)
		close(q.stop)
		<-q.done
		run.close()
		rates[pass] = res.meter.median()
		r.check(fmt.Sprintf("max_cov_err[%d]", pass), res.maxErr <= p.covLimit() && res.settled, "max %.4g, settled=%v", res.maxErr, res.settled)
		if pass == 0 {
			r.set("runtime.allocs_per_row", "allocs/row", res.allocs/float64(res.rows))
			r.set("wire.site_allocs_per_row", "allocs/row", res.allocs/float64(res.rows))
			r.set("runtime.gc_cpu_share", "ratio", res.gcShare)
			r.set("bench.gen_late_p99_ms", "ms", percentile(durations(q.late, time.Millisecond), 0.99).Value)
			r.tailAt("e2e.ingest_to_queryable_tail_ms", "ms", run.fifo.lat, time.Millisecond)
			r.tailAt("e2e.query_tail_us", "us", q.lat, time.Microsecond)
			continue
		}
		var names []string
		for _, f := range run.feeders {
			names = append(names, f.tk.name)
		}
		stageCheck(r, tc.times(names...))
		wireMetrics(r, run, tc)
		if err := tc.write(spanPath(e, "net-tcp")); err != nil {
			return err
		}
	}
	r.set("bench.trace_overhead_pct", "pct", (rates[0]/rates[1]-1)*100)
	return probeLayers(e, r, p, true)
}
