package wire

import (
	"encoding/json"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"distwindow/internal/obs"
)

// TestMetricsEndpointsWhileStreaming drives two TCP sites into a
// coordinator and hits /metrics and /healthz from another goroutine while
// the rows are still flowing — the deployment shape the metrics layer
// exists for.
func TestMetricsEndpointsWhileStreaming(t *testing.T) {
	const (
		d     = 4
		w     = int64(400)
		m     = 2
		nRows = 3000
	)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var sink obs.CountingSink
	coord := NewCoordinator(d, WithSink(&sink))
	go coord.Serve(ln)

	srv := httptest.NewServer(coord.MetricsMux())
	defer srv.Close()

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, body
	}

	started := make(chan struct{})
	var once sync.Once
	var wg sync.WaitGroup
	senders := make([]*ConnSender, m)
	siteErrs := make([]error, m)
	for si := 0; si < m; si++ {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				siteErrs[si] = err
				return
			}
			sender, err := NewSender(conn)
			if err != nil {
				siteErrs[si] = err
				return
			}
			senders[si] = sender
			defer sender.Close()
			site, err := NewDA1Site(SiteConfig{ID: si, D: d, W: w, Eps: 0.15}, sender)
			if err != nil {
				siteErrs[si] = err
				return
			}
			rng := rand.New(rand.NewSource(int64(si)))
			for i := 1; i <= nRows; i++ {
				v := make([]float64, d)
				for j := range v {
					v[j] = rng.NormFloat64()
				}
				if err := site.Observe(int64(i), v); err != nil {
					siteErrs[si] = err
					return
				}
				if i == 50 {
					once.Do(func() { close(started) })
				}
			}
		}(si)
	}

	// Poll the endpoints mid-stream.
	<-started
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz mid-stream = %d", code)
	}
	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics mid-stream = %d", code)
	}
	var mid CoordinatorMetrics
	if err := json.Unmarshal(body, &mid); err != nil {
		t.Fatalf("mid-stream /metrics not valid JSON: %v\n%s", err, body)
	}

	wg.Wait()
	for si, err := range siteErrs {
		if err != nil {
			t.Fatalf("site %d: %v", si, err)
		}
	}
	// Every sender has closed, so its count is final; closing does not
	// wait for the coordinator, so let it drain the in-flight frames
	// before the final read.
	var sent int64
	for _, s := range senders {
		sent += s.Metrics().Msgs
	}
	deadline := time.Now().Add(5 * time.Second)
	var fin CoordinatorMetrics
	for {
		_, body = get("/metrics")
		if err := json.Unmarshal(body, &fin); err != nil {
			t.Fatal(err)
		}
		if fin.Msgs >= sent || time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	coord.Close()

	if fin.Msgs == 0 || fin.Bytes == 0 {
		t.Fatalf("final metrics empty: %+v", fin)
	}
	if fin.DirectionAdds+fin.DirectionRemoves+fin.SumDeltas != fin.Msgs {
		t.Fatalf("per-kind counters (%d+%d+%d) don't sum to Msgs (%d)",
			fin.DirectionAdds, fin.DirectionRemoves, fin.SumDeltas, fin.Msgs)
	}
	if msgs, _ := coord.Stats(); msgs != fin.Msgs {
		t.Fatalf("Stats (%d) and Metrics (%d) disagree", msgs, fin.Msgs)
	}
	if got := sink.Count(obs.EvMsgReceived); got != fin.Msgs {
		t.Fatalf("sink saw %d EvMsgReceived, coordinator counted %d", got, fin.Msgs)
	}

	for _, s := range senders {
		sm := s.Metrics()
		if sm.Msgs > 0 && sm.EncodeLatency.Count != sm.Msgs {
			t.Fatalf("sender timed %d encodes for %d msgs", sm.EncodeLatency.Count, sm.Msgs)
		}
	}
	if sent != fin.Msgs {
		t.Fatalf("senders sent %d, coordinator received %d", sent, fin.Msgs)
	}
}

func TestCoordinatorConnsGauge(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(2)
	go coord.Serve(ln)

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	sender, err := NewSender(conn)
	if err != nil {
		t.Fatal(err)
	}
	if err := sender.Send(Msg{Site: 0, Kind: DirectionAdd, T: 1, V: []float64{1, 0}}); err != nil {
		t.Fatal(err)
	}
	waitFor := func(want int64) {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for coord.Metrics().Conns != want {
			if time.Now().After(deadline) {
				t.Fatalf("Conns = %d, want %d", coord.Metrics().Conns, want)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitFor(1)
	sender.Close()
	waitFor(0)
	coord.Close()
}
