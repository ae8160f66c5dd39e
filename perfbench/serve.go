package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os/exec"
	"runtime"
	"strconv"
	"time"

	"distwindow"
	"distwindow/internal/csvio"
	"distwindow/internal/stream"
)

// serveParams is serve-mixed's per-stream setting: cheap DA2 site steps,
// so HTTP, CSV, registry, publish and query factorization dominate.
var serveParams = params{proto: distwindow.DA2, d: 16, sites: 4, eps: 0.1, rpw: 2_000}

const (
	serveStreams = 16
	// The open-loop rates are fixed here against the closed-loop capacity
	// -calibrate measured with both connections busy at once on a 2-core
	// Xeon VM (about 470 ingests/s and 5000 queries/s): a quarter of the
	// ingest capacity and a tenth of the query capacity. At half, the
	// VM's capacity swings (a third either way within minutes) pushed some
	// runs into backlog, and latency medians moved tenfold between runs.
	// The rates never adapt to the server.
	serveIngestRate = 120.0 // POST /ingest per second, 64 rows each
	serveQueryRate  = 500.0 // GET /query?top=5 per second
)

// serveRefCores is the reference probe's width for serve-mixed: the
// server's goroutines may run on either core.
const serveRefCores = 2

// serveRef is the mean of a few reference speeds.
func serveRef(p *refProbe) float64 {
	const n = 4
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += p.speed()
	}
	return sum / n
}

// server is a running `sketchd -serve` child process.
type server struct {
	cmd  *exec.Cmd
	base string
}

// startServer launches sketchd on a free loopback port and waits for
// /healthz.
func startServer(bin string) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	cmd := exec.Command(bin, "-serve", addr)
	cmd.Stdout, cmd.Stderr = io.Discard, io.Discard
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start sketchd: %w", err)
	}
	s := &server{cmd: cmd, base: "http://" + addr}
	c := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := c.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("sketchd did not become healthy: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop kills the server and waits for it to exit.
func (s *server) stop() {
	if s == nil || s.cmd.Process == nil {
		return
	}
	_ = s.cmd.Process.Kill() // already exited is fine
	_ = s.cmd.Wait()         // the kill is the expected exit status
}

// oneConnClient is an HTTP client that keeps to a single connection.
func oneConnClient() *http.Client {
	return &http.Client{
		Timeout:   10 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
}

// do sends one request and drains the response; a non-2xx status is an
// error.
func do(c *http.Client, method, url string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(context.Background(), method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return b, fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(b))
	}
	return b, nil
}

// csvBody formats events as an /ingest body, with every float printed to
// round-trip exactly so the server sees the generated values bit for bit.
func csvBody(evs []stream.Event) []byte {
	var b []byte
	for _, ev := range evs {
		b = strconv.AppendInt(b, ev.Row.T, 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(ev.Site), 10)
		for _, v := range ev.Row.V {
			b = append(b, ',')
			b = strconv.AppendFloat(b, v, 'g', -1, 64)
		}
		b = append(b, '\n')
	}
	return b
}

func streamID(i int) string { return fmt.Sprintf("s%02d", i) }

// streamSeed derives one stream's data seed from the run seed.
func streamSeed(seed int64, i int) int64 { return seed*131 + int64(i) }

// openURL is the /open request for stream i under p.
func openURL(base string, p params, i int) string {
	return fmt.Sprintf("%s/open?stream=%s&proto=%s&d=%d&eps=%g&sites=%d&w=%d&seed=1",
		base, streamID(i), p.proto, p.d, p.eps, p.sites, p.W())
}

// serveRun is one server with its streams open and windows filled.
type serveRun struct {
	srv   *server
	srcs  []*source
	sizes [][]int // rows in each body sent, per stream, in order
	pre   []int   // bodies per stream sent during set-up
	next  int     // next stream to ingest into (round robin)
}

// prefillBodies is how many bodies fill one stream's window during set-up:
// a few large ones, so set-up time is the server's work rather than the
// VM's wake-up latency over hundreds of round trips.
const prefillBodies = 4

// newServe starts a server, opens the streams and fills each window once
// through closed-loop ingests.
func newServe(e env, p params, streams int) (*serveRun, error) {
	srv, err := startServer(e.sketchd)
	if err != nil {
		return nil, err
	}
	s := &serveRun{srv: srv, srcs: make([]*source, streams), sizes: make([][]int, streams), pre: make([]int, streams)}
	c := oneConnClient()
	defer c.CloseIdleConnections()
	for i := range s.srcs {
		if _, err := do(c, http.MethodPost, openURL(srv.base, p, i), nil); err != nil {
			srv.stop()
			return nil, err
		}
		s.srcs[i] = newSource(p.d, p.sites, p.rpw, streamSeed(e.seed, i))
	}
	for k := 0; k < prefillBodies*streams; k++ {
		if _, err := s.ingest(c, p.rpw/prefillBodies); err != nil {
			srv.stop()
			return nil, err
		}
	}
	for i := range s.pre {
		s.pre[i] = len(s.sizes[i])
	}
	return s, nil
}

// body builds the next ingest body of the given rows in round-robin
// stream order.
func (s *serveRun) body(rows int) (int, []byte) {
	i := s.next
	s.next = (s.next + 1) % len(s.srcs)
	evs := s.srcs[i].take(rows)
	s.sizes[i] = append(s.sizes[i], len(evs))
	return i, csvBody(evs)
}

// sent is the number of rows sent to stream i.
func (s *serveRun) sent(i int) int {
	n := 0
	for _, r := range s.sizes[i] {
		n += r
	}
	return n
}

func (s *serveRun) ingest(c *http.Client, rows int) (time.Duration, error) {
	i, b := s.body(rows)
	t0 := time.Now()
	_, err := do(c, http.MethodPost, s.srv.base+"/ingest?stream="+streamID(i), b)
	return time.Since(t0), err
}

// openLoop runs requests on a fixed schedule until the deadline: request
// k is due at start + k·period whatever happened to earlier ones. Each
// request is timed from when it was due, so a stall shows in every
// request queued behind it; lateness is how far behind schedule the send
// itself ran. prepare runs before waiting for the due time.
type openLoop struct {
	lat, late, service []time.Duration
	attempted, failed  int64
	span               time.Duration // first due time to last response
}

func runOpenLoop(clk clock, start time.Time, period time.Duration, until time.Time,
	prepare func(k int) func() error, tk *track) *openLoop {
	ol := &openLoop{}
	root := tk.begin("bench.openloop")
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * period)
		if !due.Before(until) {
			break
		}
		sp := tk.begin("bench.gen")
		req := prepare(k)
		tk.end(sp)
		sp = tk.begin("bench.wait")
		clk.SleepUntil(due)
		tk.end(sp)
		sent := clk.Now()
		err := req()
		done := clk.Now()
		ol.attempted++
		if err != nil {
			ol.failed++
		}
		ol.lat = append(ol.lat, done.Sub(due))
		ol.late = append(ol.late, sent.Sub(due))
		ol.service = append(ol.service, done.Sub(sent))
		ol.span = done.Sub(start)
	}
	tk.end(root)
	return ol
}

// clock is the open loop's time source; tests substitute a fake.
type clock interface {
	Now() time.Time
	SleepUntil(time.Time)
}

type wallClock struct{}

func (wallClock) Now() time.Time         { return time.Now() }
func (wallClock) SleepUntil(t time.Time) { sleepUntil(t) }

// serveResult is one measured open-loop pass.
type serveResult struct {
	ingest, query *openLoop
	dur           time.Duration
}

// measureServe runs the ingest and query generators concurrently, each on
// its own connection, for dur.
func measureServe(s *serveRun, dur time.Duration, tc *tracer) serveResult {
	ic, qc := oneConnClient(), oneConnClient()
	defer ic.CloseIdleConnections()
	defer qc.CloseIdleConnections()
	itk, qtk := tc.track("ingest"), tc.track("query")
	// Build every ingest body the schedule will send before it starts, so
	// generating rows (and collecting their garbage) never makes the
	// generator late.
	type ingestBody struct {
		stream int
		body   []byte
	}
	period := every(serveIngestRate)
	n := 0
	for time.Duration(n)*period < dur { // exactly the requests runOpenLoop sends
		n++
	}
	bodies := make([]ingestBody, n)
	for k := range bodies {
		bodies[k].stream, bodies[k].body = s.body(batchRows)
	}
	runtime.GC()
	start := time.Now().Add(10 * time.Millisecond)
	until := start.Add(dur)
	qdone := make(chan *openLoop)
	go func() {
		qdone <- runOpenLoop(wallClock{}, start, every(serveQueryRate), until, func(k int) func() error {
			url := s.srv.base + "/query?top=5&stream=" + streamID(k%len(s.srcs))
			return func() error {
				sp := qtk.begin("sketchd.query")
				_, err := do(qc, http.MethodGet, url, nil)
				qtk.end(sp)
				return err
			}
		}, qtk)
	}()
	ing := runOpenLoop(wallClock{}, start, period, until, func(k int) func() error {
		b := bodies[k]
		url := s.srv.base + "/ingest?stream=" + streamID(b.stream)
		return func() error {
			sp := itk.begin("sketchd.ingest")
			_, err := do(ic, http.MethodPost, url, b.body)
			itk.end(sp)
			return err
		}
	}, itk)
	return serveResult{ingest: ing, query: <-qdone, dur: dur}
}

// queryReply is the part of /query's answer the checks read.
type queryReply struct {
	SnapshotRows int64     `json:"snapshotRows"`
	TopSigma2    []float64 `json:"topSigma2"`
}

// replayStats is what the in-process replay of every stream measured.
type replayStats struct {
	maxErr       float64
	checks       int
	words        float64 // mean words per window per stream, measured phase
	siteWords    int64
	bodyTimes    []time.Duration // csvio.Read + TryObserve + Drain per body
	readNs       float64         // csvio.Read alone, per row
	drains       []time.Duration
	firstQuery   []time.Duration
	cachedQuery  []time.Duration
	publishes    int64
	mismatchRows int
	mismatchTop  int
}

// replayServe rebuilds every stream in process from the same bodies, in
// the same batches, through a distwindow registry: the reference the
// server's final answers must equal, and the source of the paper metrics
// and covariance-error checks.
func replayServe(e env, p params, s *serveRun, finals []queryReply) (replayStats, error) {
	var st replayStats
	reg := distwindow.NewRegistry()
	defer reg.Close()
	var wordsSum float64
	var readTotal time.Duration
	var readRows int
	for i := range s.srcs {
		tr, _, err := reg.Open(streamID(i), p.config(), distwindow.WithSnapshots(0))
		if err != nil {
			return st, err
		}
		src := newSource(p.d, p.sites, p.rpw, streamSeed(e.seed, i))
		exact := newExactWindow(p.d, p.W())
		var words0, t0 int64
		since := 0
		for b, n := range s.sizes[i] {
			evs := src.take(n)
			body := csvBody(evs)
			measured := b >= s.pre[i] // the open loop's 64-row bodies
			if b == s.pre[i] {
				words0, t0 = tr.Stats().TotalWords(), src.lastT
			}
			if measured {
				r0 := time.Now()
				if _, _, err := csvio.Read(bytes.NewReader(body), func(csvio.Event) error { return nil }); err != nil {
					return st, err
				}
				readTotal += time.Since(r0)
				readRows += len(evs)
			}
			a := time.Now()
			got, ok := reg.Get(streamID(i))
			if !ok {
				return st, errors.New("replay stream vanished")
			}
			if _, _, err := csvio.Read(bytes.NewReader(body), func(ev csvio.Event) error {
				return got.TryObserve(ev.Site, distwindow.Row{T: ev.Row.T, V: ev.Row.V})
			}); err != nil {
				return st, fmt.Errorf("replay %s: %w", streamID(i), err)
			}
			d0 := time.Now()
			got.Drain()
			if measured {
				st.drains = append(st.drains, time.Since(d0))
				st.bodyTimes = append(st.bodyTimes, time.Since(a))
			}
			exact.add(evs)
			if since += n; since >= p.rpw/2 {
				since = 0
				snap, err := tr.Snapshot()
				if err != nil {
					return st, err
				}
				q0 := time.Now()
				sk := snap.Sketch()
				snap.PCA(5)
				st.firstQuery = append(st.firstQuery, time.Since(q0))
				q1 := time.Now()
				snap.Sketch()
				snap.PCA(5)
				st.cachedQuery = append(st.cachedQuery, time.Since(q1))
				if err := exact.covErr(src.lastT, sk); err > st.maxErr {
					st.maxErr = err
				}
				st.checks++
			}
		}
		if ws := float64(src.lastT-t0) / float64(p.W()); ws > 0 {
			wordsSum += float64(tr.Stats().TotalWords()-words0) / ws
		}
		if w := tr.Stats().MaxSiteWords; w > st.siteWords {
			st.siteWords = w
		}
		st.publishes += tr.Metrics().SnapshotPublishes
		snap, err := tr.Snapshot()
		if err != nil {
			return st, err
		}
		if snap.Rows() != finals[i].SnapshotRows || snap.Rows() != int64(s.sent(i)) {
			st.mismatchRows++
		}
		var want []float64
		if snap.Sketch().Rows() > 0 {
			want = snap.PCA(5).Values
		}
		if !sameBits(want, finals[i].TopSigma2) {
			st.mismatchTop++
		}
	}
	st.words = wordsSum / float64(len(s.srcs))
	st.readNs = float64(readTotal) / float64(readRows)
	return st, nil
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// finalQueries asks the server for every stream's final answer.
func finalQueries(s *serveRun) ([]queryReply, error) {
	c := oneConnClient()
	defer c.CloseIdleConnections()
	out := make([]queryReply, len(s.srcs))
	for i := range out {
		b, err := do(c, http.MethodGet, s.srv.base+"/query?top=5&stream="+streamID(i), nil)
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(b, &out[i]); err != nil {
			return nil, fmt.Errorf("decode /query: %w", err)
		}
	}
	return out, nil
}

// calibrateServe measures the closed-loop capacity the open-loop rates
// are set against: the ingest and the query connection each sending its
// next request as soon as the last one returns, both at once (the mix the
// workload runs), for dur.
func calibrateServe(e env, w io.Writer) error {
	s, err := newServe(e, serveParams, serveStreams)
	if err != nil {
		return err
	}
	defer s.srv.stop()
	ic, qc := oneConnClient(), oneConnClient()
	defer ic.CloseIdleConnections()
	defer qc.CloseIdleConnections()
	t0 := time.Now()
	qn := make(chan int)
	go func() {
		n := 0
		for time.Since(t0) < e.dur() {
			if _, err := do(qc, http.MethodGet, s.srv.base+"/query?top=5&stream="+streamID(n%serveStreams), nil); err != nil {
				break
			}
			n++
		}
		qn <- n
	}()
	n := 0
	for time.Since(t0) < e.dur() {
		if _, err := s.ingest(ic, batchRows); err != nil {
			return err
		}
		n++
	}
	q := <-qn
	el := time.Since(t0).Seconds()
	fmt.Fprintf(w, "closed-loop capacity under the mix: %.0f ingests/s of %d rows, %.0f queries/s\n", float64(n)/el, batchRows, float64(q)/el)
	return nil
}

// runServeMixed is the serve-mixed workload.
func runServeMixed(e env, r *report) error {
	p := serveParams
	var (
		s     *serveRun
		setup []float64
	)
	for i := 0; i < setupRepeats; i++ {
		if s != nil {
			s.srv.stop()
		}
		t0 := time.Now()
		var err error
		if s, err = newServe(e, p, serveStreams); err != nil {
			return err
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	defer s.srv.stop()
	if e.trace {
		return traceServe(e, r, p, s)
	}
	// The server's CPU time over the open loop, against reference speeds
	// taken on both cores just before and just after it.
	pid := s.srv.cmd.Process.Pid
	probe := newRefProbe(serveRefCores)
	ref := serveRef(probe)
	cpu0, err := procCPU(pid)
	if err != nil {
		return err
	}
	res := measureServe(s, e.dur(), nil)
	cpu1, err := procCPU(pid)
	if err != nil {
		return err
	}
	ref = (ref + serveRef(probe)) / 2
	hwm, hwmErr := procHWM(pid)
	finals, err := finalQueries(s)
	if err != nil {
		return err
	}
	s.srv.stop()
	st, err := replayServe(e, p, s, finals)
	if err != nil {
		return err
	}
	r.set("setup_s", "s", median(setup))
	r.ops(res.ingest.attempted+res.query.attempted, res.ingest.failed+res.query.failed)
	// The achieved rate: rows acknowledged over the time from the first
	// due time to the last response, so a backlog shows as a shortfall.
	okRows := (res.ingest.attempted - res.ingest.failed) * batchRows
	r.set("ingest_rows_per_s", "rows/s", float64(okRows)/res.ingest.span.Seconds())
	// In open loop the rate is the schedule's; the server's cost is its CPU
	// time, so the per-kref rate is rows per kref of server CPU time.
	r.set("ingest_rows_per_kref", "rows/kref", perKref(float64(okRows)/(cpu1-cpu0), ref))
	r.note("server CPU %.2f s over %.2f s of open loop (%.0f%% of one core)", cpu1-cpu0, res.ingest.span.Seconds(), 100*(cpu1-cpu0)/res.ingest.span.Seconds())
	r.tail("ingest_to_queryable_p50_ms", "ingest_to_queryable_p99_ms", "ms", res.ingest.lat, time.Millisecond)
	r.tail("query_p50_us", "query_p99_us", "us", res.query.lat, time.Microsecond)
	r.set("words_per_window", "words", st.words)
	r.set("site_space_words", "words", float64(st.siteWords))
	r.set("max_cov_err", "ratio", st.maxErr)
	if hwmErr == nil {
		r.set("peak_rss_mb", "MB", hwm)
	}
	serveChecks(r, p, res, st)
	return nil
}

func serveChecks(r *report, p params, res serveResult, st replayStats) {
	r.check("max_cov_err", st.checks > 0 && st.maxErr <= p.covLimit(), "max %.4g over %d query points, limit 2ε=%g", st.maxErr, st.checks, p.covLimit())
	r.check("snapshot_rows", st.mismatchRows == 0, "%d of %d streams report snapshotRows ≠ rows sent", st.mismatchRows, serveStreams)
	r.check("top_sigma2_replay", st.mismatchTop == 0, "%d of %d streams' topSigma2 differ from the in-process replay", st.mismatchTop, serveStreams)
	r.check("requests", res.ingest.failed+res.query.failed == 0, "%d ingest and %d query requests failed", res.ingest.failed, res.query.failed)
	late := percentile(durations(res.ingest.late, time.Millisecond), 0.99)
	r.note("offered %.0f ingests/s and %.0f queries/s; ingests=%d queries=%d; generator late p99=%.3g ms",
		serveIngestRate, serveQueryRate, res.ingest.attempted, res.query.attempted, late.Value)
}

// memStats is the part of the server's runtime.MemStats (from expvar's
// /debug/vars) the traced run reads: allocations, and the GC's share of
// the server's CPU since it started.
type memStats struct {
	Mallocs       uint64
	GCCPUFraction float64
}

func serverMem(s *serveRun) (memStats, error) {
	c := oneConnClient()
	defer c.CloseIdleConnections()
	b, err := do(c, http.MethodGet, s.srv.base+"/debug/vars", nil)
	if err != nil {
		return memStats{}, err
	}
	var v struct{ Memstats memStats }
	if err := json.Unmarshal(b, &v); err != nil {
		return memStats{}, fmt.Errorf("decode /debug/vars: %w", err)
	}
	return v.Memstats, nil
}

// traceServe is serve-mixed's traced mode: an untraced and a traced open-
// loop pass of half the run each, with the in-process replay giving the
// server's self time and the distwindow layer figures.
func traceServe(e env, r *report, p params, s *serveRun) error {
	half := e.dur() / 2
	m0, err := serverMem(s)
	if err != nil {
		return err
	}
	res := measureServe(s, half, nil)
	m1, err := serverMem(s)
	if err != nil {
		return err
	}
	rows := float64((res.ingest.attempted - res.ingest.failed) * batchRows)
	r.set("runtime.allocs_per_row", "allocs/row", float64(m1.Mallocs-m0.Mallocs)/rows)
	r.set("runtime.gc_cpu_share", "ratio", m1.GCCPUFraction)
	untraced := median(durations(res.ingest.lat, time.Microsecond))
	r.set("bench.gen_late_p99_ms", "ms", percentile(durations(append(res.ingest.late, res.query.late...), time.Millisecond), 0.99).Value)
	r.tailAt("e2e.ingest_to_queryable_tail_ms", "ms", res.ingest.lat, time.Millisecond)
	r.tailAt("e2e.query_tail_us", "us", res.query.lat, time.Microsecond)
	tc := newTracer()
	tres := measureServe(s, half, tc)
	traced := median(durations(tres.ingest.lat, time.Microsecond))
	r.set("bench.trace_overhead_pct", "pct", (traced/untraced-1)*100)
	stageCheck(r, tc.times("ingest"))
	finals, err := finalQueries(s)
	if err != nil {
		return err
	}
	s.srv.stop()
	st, err := replayServe(e, p, s, finals)
	if err != nil {
		return err
	}
	serveChecks(r, p, tres, st)
	inproc := median(durations(st.bodyTimes, time.Microsecond))
	r.set("sketchd.ingest_self_us", "us", median(durations(tres.ingest.service, time.Microsecond))-inproc)
	r.set("sketchd.query_self_us", "us", median(durations(tres.query.service, time.Microsecond))-median(durations(st.firstQuery, time.Microsecond)))
	r.set("csvio.read_ns_per_row", "ns", st.readNs)
	r.set("distwindow.drain_publish_us", "us", median(durations(st.drains, time.Microsecond)))
	var sent int
	for i := range s.srcs {
		sent += s.sent(i)
	}
	r.set("distwindow.snapshot_publishes", "1/krow", float64(st.publishes)/float64(sent)*1000)
	r.set("distwindow.snapshot_first_query_us", "us", median(durations(st.firstQuery, time.Microsecond)))
	r.set("distwindow.snapshot_cached_query_ns", "ns", median(durations(st.cachedQuery, time.Nanosecond)))
	if err := tc.write(spanPath(e, "serve-mixed")); err != nil {
		return err
	}
	return probeLayers(e, r, p, false)
}
