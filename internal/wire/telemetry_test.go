package wire

import (
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"distwindow/internal/obs"
	"distwindow/internal/obs/telemetry"
	"distwindow/internal/wire/codec"
)

// TestOldCoordinatorIgnoresTelemetryCleanly drives a telemetry frame
// through a coordinator that has NOT enabled telemetry and checks the
// "ignore cleanly" half of the contract at the Apply layer: the frame is
// counted, the estimates, traffic counters and liveness records stay
// untouched, and the connection-level handler keeps consuming.
func TestOldCoordinatorIgnoresTelemetryCleanly(t *testing.T) {
	c := NewCoordinator(2)
	if err := c.Apply(Msg{Site: 0, Kind: SumDelta, Delta: 1, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	before := c.Metrics()

	fr := telemetry.Frame{Site: 0, Rows: 10}
	if err := c.Apply(Msg{Site: 0, Kind: Telemetry, Tele: &fr}); err != nil {
		t.Fatalf("telemetry frame errored: %v", err)
	}
	after := c.Metrics()
	if after.TelemetryFrames != 1 {
		t.Fatalf("TelemetryFrames = %d, want 1", after.TelemetryFrames)
	}
	if after.Msgs != before.Msgs || after.Bytes != before.Bytes || after.BadMsgs != before.BadMsgs {
		t.Fatalf("telemetry perturbed data accounting: before %+v after %+v", before, after)
	}
	if c.Sum() != 1 {
		t.Fatalf("estimate moved: %v", c.Sum())
	}
	// Liveness untouched: a telemetry-only site never appears.
	if err := c.Apply(Msg{Site: 9, Kind: Telemetry, Tele: &fr}); err != nil {
		t.Fatal(err)
	}
	for _, st := range c.SiteStatuses() {
		if st.Site == 9 {
			t.Fatalf("telemetry frame created a liveness record: %+v", st)
		}
	}
}

// TestTelemetryOutsideSeqSpace checks the determinism guarantee: with
// telemetry frames interleaved, the coordinator's estimates, Msgs/Bytes,
// dedup and ack accounting are bit-identical to a run without them.
func TestTelemetryOutsideSeqSpace(t *testing.T) {
	run := func(withTele bool) (CoordinatorMetrics, float64) {
		c := NewCoordinator(2)
		fleet := c.EnableTelemetry()
		_ = fleet
		srv, cli := net.Pipe()
		done := make(chan struct{})
		go func() { defer close(done); _ = c.HandleConn(srv) }()
		enc := codec.BinaryV2.NewEncoder(cli)
		ackDone := make(chan struct{})
		allAcked := make(chan struct{})
		go func() { // drain acks so the pipe never blocks
			defer close(ackDone)
			dec := codec.BinaryV2.NewDecoder(cli)
			n := 0
			for {
				var a Ack
				if dec.DecodeAck(&a) != nil {
					return
				}
				if n++; n == 20 {
					close(allAcked)
				}
			}
		}()
		for i := 1; i <= 20; i++ {
			if err := enc.EncodeMsg(&Msg{Site: 0, Kind: SumDelta, Delta: float64(i), Seq: uint64(i)}); err != nil {
				t.Fatal(err)
			}
			if withTele && i%5 == 0 {
				fr := telemetry.Frame{Site: 0, Rows: int64(i)}
				if err := enc.EncodeMsg(&Msg{Site: 0, Kind: Telemetry, Tele: &fr}); err != nil {
					t.Fatal(err)
				}
			}
			if err := enc.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		// Wait for every data frame's ack before closing, so shutdown
		// timing cannot differ between the two runs.
		<-allAcked
		cli.Close()
		<-done
		<-ackDone
		m := c.Metrics()
		m.TelemetryFrames = 0 // the only counter allowed to differ
		return m, c.Sum()
	}
	mOff, sumOff := run(false)
	mOn, sumOn := run(true)
	if mOff != mOn {
		t.Fatalf("telemetry perturbed coordinator accounting:\noff %+v\non  %+v", mOff, mOn)
	}
	if sumOff != sumOn {
		t.Fatalf("telemetry perturbed the estimate: %v vs %v", sumOff, sumOn)
	}
}

// TestSendBestEffortBypassesBacklog checks the sender half of the
// seq/ack exclusion: best-effort sends carry Seq 0, never enter the
// backlog, and a dead connection drops the frame instead of buffering.
func TestSendBestEffortBypassesBacklog(t *testing.T) {
	c := NewCoordinator(2)
	c.EnableTelemetry()
	var mu sync.Mutex
	var conns []net.Conn
	dead := false
	dial := func() (io.ReadWriteCloser, error) {
		mu.Lock()
		isDead := dead
		mu.Unlock()
		if isDead {
			return nil, errors.New("coordinator unreachable")
		}
		srv, cli := net.Pipe()
		go func() { _ = c.HandleConn(srv) }()
		mu.Lock()
		conns = append(conns, cli)
		mu.Unlock()
		return cli, nil
	}
	s := mustDialFunc(t, dial)
	defer func() { s.DiscardPending = true; _ = s.Close() }()

	// A data frame establishes the connection and the seq space.
	if err := s.Send(Msg{Site: 0, Kind: SumDelta, Delta: 1}); err != nil {
		t.Fatal(err)
	}
	fr := telemetry.Frame{Site: 0, Rows: 5}
	if err := s.SendBestEffort(Msg{Site: 0, Kind: Telemetry, Tele: &fr, Seq: 999}); err != nil {
		t.Fatalf("best-effort send: %v", err)
	}
	// The telemetry frame is not in the backlog and did not consume a
	// sequence number.
	if n := s.Pending(); n > 1 {
		t.Fatalf("backlog = %d after best-effort send, want ≤ 1 (the data frame)", n)
	}
	s.mu.Lock()
	seq := s.nextSeq
	s.mu.Unlock()
	if seq != 1 {
		t.Fatalf("best-effort send consumed a sequence number: nextSeq = %d", seq)
	}

	waitFor(t, func() bool { return c.Fleet().Snapshot().FramesTotal == 1 })

	// Kill the connection and the dial seam: best-effort reports the
	// error, nothing buffers.
	mu.Lock()
	dead = true
	for _, conn := range conns {
		conn.Close()
	}
	mu.Unlock()
	pendingBefore := -1
	for i := 0; i < 100; i++ {
		if err := s.SendBestEffort(Msg{Site: 0, Kind: Telemetry, Tele: &fr}); err != nil {
			pendingBefore = s.Pending()
			break
		}
		time.Sleep(time.Millisecond)
	}
	if pendingBefore < 0 {
		t.Fatalf("best-effort send never failed on a dead connection")
	}
	if got := s.Pending(); got != pendingBefore {
		t.Fatalf("failed best-effort send grew the backlog: %d -> %d", pendingBefore, got)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("condition never became true")
}

// TestTelemetrySenderEndToEnd runs publishers at two sites through
// resilient senders into a telemetry-enabled coordinator and checks the
// fleet view and the Prometheus exposition served by MetricsMux.
func TestTelemetrySenderEndToEnd(t *testing.T) {
	c := NewCoordinator(2)
	fleet := c.EnableTelemetry()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go c.Serve(ln)
	defer c.Close()

	var rows0, rows1 obs.Counter
	mkSite := func(site int, rows *obs.Counter) (*ResilientSender, *telemetry.Publisher) {
		s, err := Dial(ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		collect := CollectSite(site, "", "DA2", rows.Load, s)
		pub := telemetry.NewPublisher(collect, TelemetrySender(s))
		return s, pub
	}
	s0, p0 := mkSite(0, &rows0)
	s1, p1 := mkSite(1, &rows1)
	defer func() {
		s0.DiscardPending, s1.DiscardPending = true, true
		_ = s0.Close()
		_ = s1.Close()
	}()

	// Some data traffic so the senders have live connections and counters.
	for i := 1; i <= 10; i++ {
		rows0.Inc()
		if err := s0.Send(Msg{Site: 0, Kind: SumDelta, Delta: 1}); err != nil {
			t.Fatal(err)
		}
	}
	rows1.Add(3)
	if err := s1.Send(Msg{Site: 1, Kind: SumDelta, Delta: 1}); err != nil {
		t.Fatal(err)
	}

	if err := p0.Publish(); err != nil {
		t.Fatalf("site 0 publish: %v", err)
	}
	if err := p1.Publish(); err != nil {
		t.Fatalf("site 1 publish: %v", err)
	}

	waitFor(t, func() bool { return fleet.Snapshot().FramesTotal >= 2 })
	m := fleet.Snapshot()
	if len(m.Series) != 2 {
		t.Fatalf("series = %d, want 2", len(m.Series))
	}
	if m.Series[0].Rows != 10 || m.Series[1].Rows != 3 {
		t.Fatalf("fleet rows = %d/%d, want 10/3", m.Series[0].Rows, m.Series[1].Rows)
	}

	// MetricsMux: JSON by default, Prometheus when negotiated, dashboard
	// mounted.
	mux := c.MetricsMux()
	srv := httptest.NewServer(mux)
	defer srv.Close()

	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body := new(strings.Builder)
	_, _ = io.Copy(body, resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != obs.PromContentType {
		t.Fatalf("negotiated Content-Type = %q", ct)
	}
	samples, err := obs.ParseProm(strings.NewReader(body.String()))
	if err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, body.String())
	}
	found := make(map[string]bool)
	for _, s := range samples {
		found[s.Name] = true
	}
	for _, name := range []string{
		"distwindow_coord_msgs_total",
		"distwindow_coord_telemetry_frames_total",
		"distwindow_site_rows_total",
		"distwindow_update_latency_seconds_count",
	} {
		if !found[name] {
			t.Errorf("exposition missing %s", name)
		}
	}

	resp, err = http.Get(srv.URL + "/debug/fleet")
	if err != nil {
		t.Fatal(err)
	}
	page := new(strings.Builder)
	_, _ = io.Copy(page, resp.Body)
	resp.Body.Close()
	if !strings.Contains(page.String(), "fleet telemetry") {
		t.Fatalf("/debug/fleet not serving the dashboard")
	}
}
