package wire

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"distwindow/internal/chaos"
	"distwindow/internal/obs"
	"distwindow/internal/obs/telemetry"
)

// TestFleetSmoke is the CI fleet-telemetry smoke (make fleet-smoke): a
// telemetry-enabled coordinator, two sites ingesting through
// chaos-injected resilient senders while publishing telemetry frames,
// and a Prometheus-format scrape of /metrics validated with the in-repo
// exposition parser. It asserts the acceptance criteria end to end: the
// exposition is syntactically valid, carries per-(site, stream) series
// with site/stream/protocol labels from live telemetry, and the data
// plane stayed exactly-once under the injected faults.
func TestFleetSmoke(t *testing.T) {
	runFleetSmoke(t, chaos.Config{Seed: 42, PDrop: 0.05, PCut: 0.02, PReadCut: 0.02})
}

// TestFleetSmokeBinaryV2 runs the smoke under duplicated writes and
// refused dials, where TestFleetSmoke drops, cuts and loses acks. A
// duplicated write repeats a whole v2 batch on the same live connection,
// so the coordinator must dedup its data frames and absorb its repeated
// telemetry frames while the exposition stays as TestFleetSmoke checks.
func TestFleetSmokeBinaryV2(t *testing.T) {
	runFleetSmoke(t, chaos.Config{Seed: 42, PDup: 0.1, PDialFail: 0.1})
}

func runFleetSmoke(t *testing.T, faults chaos.Config) {
	const sites = 2
	const rowsPerSite = 200

	coord := NewCoordinator(2, WithStaleAfter(30*time.Second))
	fleet := coord.EnableTelemetry()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go coord.Serve(ln)
	defer coord.Close()

	inj := chaos.New(faults)
	addr := ln.Addr().String()

	type site struct {
		sender *ResilientSender
		pub    *telemetry.Publisher
		rows   obs.Counter
	}
	var fleetSites [sites]*site
	for i := 0; i < sites; i++ {
		s := &site{}
		sender, err := DialFunc(inj.Dial(func() (io.ReadWriteCloser, error) {
			return net.DialTimeout("tcp", addr, time.Second)
		}))
		if err != nil {
			t.Fatal(err)
		}
		s.sender = sender
		stream := fmt.Sprintf("stream-%c", 'a'+i)
		base := CollectSite(i, stream, "SUM", s.rows.Load, s.sender)
		var lat obs.Histogram
		collect := func() telemetry.Frame {
			fr := base()
			fr.UpdateLat = lat.Snapshot()
			return fr
		}
		s.pub = telemetry.NewPublisher(collect, TelemetrySender(s.sender))
		s.pub.Start(5 * time.Millisecond)
		fleetSites[i] = s

		siteNo, streamID := i, stream
		go func() {
			for r := 0; r < rowsPerSite; r++ {
				start := time.Now()
				s.rows.Inc()
				_ = s.sender.Send(Msg{Site: siteNo, Kind: SumDelta, Delta: 1, StreamID: streamID})
				lat.Observe(time.Since(start))
			}
		}()
	}

	// Wait for every delta to land exactly once despite the chaos.
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		done := true
		for i := 0; i < sites; i++ {
			stream := fmt.Sprintf("stream-%c", 'a'+i)
			if coord.SumOf(stream) != rowsPerSite {
				done = false
			}
			fleetSites[i].sender.Flush()
		}
		if done {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	for i := 0; i < sites; i++ {
		stream := fmt.Sprintf("stream-%c", 'a'+i)
		if got := coord.SumOf(stream); got != rowsPerSite {
			t.Fatalf("stream %s sum = %v, want %d (chaos broke exactly-once)", stream, got, rowsPerSite)
		}
	}
	if st := inj.Stats(); st.Drops+st.Cuts+st.Dups+st.ReadCuts+st.DialFails == 0 {
		t.Fatalf("no fault injected (stats %+v); the smoke proved nothing", st)
	}
	// One final frame per site so the fleet sees the finished counters.
	for i := 0; i < sites; i++ {
		fleetSites[i].pub.Stop()
	}
	defer func() {
		for i := 0; i < sites; i++ {
			fleetSites[i].sender.DiscardPending = true
			_ = fleetSites[i].sender.Close()
		}
	}()
	wantFrames := func() bool {
		m := fleet.Snapshot()
		if len(m.Series) != sites {
			return false
		}
		for _, v := range m.Series {
			if v.Rows != rowsPerSite {
				return false
			}
		}
		return true
	}
	for time.Now().Before(deadline) && !wantFrames() {
		time.Sleep(5 * time.Millisecond)
	}
	if !wantFrames() {
		t.Fatalf("fleet never saw final frames: %+v", fleet.Snapshot().Series)
	}

	// Scrape /metrics the way Prometheus does and validate the exposition.
	srv := httptest.NewServer(coord.MetricsMux())
	defer srv.Close()
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/metrics", nil)
	req.Header.Set("Accept", "text/plain;version=0.0.4;q=0.5,*/*;q=0.1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var body strings.Builder
	_, _ = io.Copy(&body, resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != obs.PromContentType {
		t.Fatalf("scrape Content-Type = %q, want %q", ct, obs.PromContentType)
	}
	samples, err := obs.ParseProm(strings.NewReader(body.String()))
	if err != nil {
		t.Fatalf("exposition failed validation: %v\n%s", err, body.String())
	}

	// Per-(site, stream) series present with the full label set.
	seen := make(map[string]bool) // "name|site|stream"
	names := make(map[string]bool)
	for _, s := range samples {
		names[s.Name] = true
		var siteL, streamL, protoL string
		for _, l := range s.Labels {
			switch l.Name {
			case "site":
				siteL = l.Value
			case "stream":
				streamL = l.Value
			case "protocol":
				protoL = l.Value
			}
		}
		if siteL != "" && protoL != "" {
			seen[s.Name+"|"+siteL+"|"+streamL] = true
		}
	}
	for i := 0; i < sites; i++ {
		stream := fmt.Sprintf("stream-%c", 'a'+i)
		for _, fam := range []string{"distwindow_site_rows_total", "distwindow_site_words_per_second", "distwindow_site_replays_total"} {
			key := fmt.Sprintf("%s|%d|%s", fam, i, stream)
			if !seen[key] {
				t.Errorf("exposition missing %s for site %d stream %s", fam, i, stream)
			}
		}
	}
	for _, fam := range []string{
		"distwindow_coord_msgs_total",
		"distwindow_coord_dup_msgs_total",
		"distwindow_coord_telemetry_frames_total",
		"distwindow_update_latency_seconds_bucket",
		"distwindow_fleet_series",
	} {
		if !names[fam] {
			t.Errorf("exposition missing family %s", fam)
		}
	}

	// The merged fleet latency histogram carries the sites' observations.
	if lat := fleet.Snapshot().UpdateLat; lat.Count == 0 {
		t.Errorf("fleet latency histogram empty after %d observed rows", sites*rowsPerSite)
	}

	// The JSON path still works on the same endpoint.
	jresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer jresp.Body.Close()
	if ct := jresp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("JSON path Content-Type = %q", ct)
	}
}
