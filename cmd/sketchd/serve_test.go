package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"distwindow"
)

func doReq(t *testing.T, h http.Handler, method, target, body string) *httptest.ResponseRecorder {
	t.Helper()
	var rd *strings.Reader
	if body == "" {
		rd = strings.NewReader("")
	} else {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, target, rd)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func decodeJSON(t *testing.T, w *httptest.ResponseRecorder) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &m); err != nil {
		t.Fatalf("bad JSON %q: %v", w.Body.String(), err)
	}
	return m
}

// csvRows builds n in-order events for site 0 in the d=3 wire format.
func csvRows(start, n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "%d,0,%d,1,0.5\n", start+i, i%7)
	}
	return sb.String()
}

func TestServeLifecycle(t *testing.T) {
	reg := distwindow.NewRegistry()
	defer reg.Close()
	h := newServeHandler(reg, false)

	if w := doReq(t, h, "POST", "/open?stream=a&proto=DA1&d=3&w=1000", ""); w.Code != 200 {
		t.Fatalf("open: %d %s", w.Code, w.Body.String())
	}
	if w := doReq(t, h, "POST", "/ingest?stream=a", csvRows(1, 200)); w.Code != 200 {
		t.Fatalf("ingest: %d %s", w.Code, w.Body.String())
	} else if m := decodeJSON(t, w); m["rows"].(float64) != 200 {
		t.Fatalf("ingest counted %v rows, want 200", m["rows"])
	}

	w := doReq(t, h, "GET", "/query?stream=a&top=2", "")
	if w.Code != 200 {
		t.Fatalf("query: %d %s", w.Code, w.Body.String())
	}
	m := decodeJSON(t, w)
	if m["protocol"] != "DA1" {
		t.Errorf("protocol = %v, want DA1", m["protocol"])
	}
	if v := m["snapshotVersion"].(float64); v < 2 {
		t.Errorf("snapshotVersion = %v, want ≥2 after a 200-row batch", v)
	}
	// Ingest publishes an exact snapshot at the end of every batch, so a
	// query after the ingest response sees all of the batch's rows.
	if r := m["snapshotRows"].(float64); r != 200 {
		t.Errorf("snapshotRows = %v, want 200 (batch-boundary publish)", r)
	}
	if sg, ok := m["topSigma2"].([]any); !ok || len(sg) != 2 {
		t.Errorf("topSigma2 = %v, want 2 values", m["topSigma2"])
	}

	w = doReq(t, h, "GET", "/pca?stream=a&k=2", "")
	if w.Code != 200 {
		t.Fatalf("pca: %d %s", w.Code, w.Body.String())
	}
	m = decodeJSON(t, w)
	if comps := m["components"].([]any); len(comps) != 2 || len(comps[0].([]any)) != 3 {
		t.Errorf("components shape = %dx?, want 2x3", len(comps))
	}

	w = doReq(t, h, "POST", "/score?stream=a", `{"v":[1,1,0.5],"k":2}`)
	if w.Code != 200 {
		t.Fatalf("score: %d %s", w.Code, w.Body.String())
	}
	m = decodeJSON(t, w)
	if _, ok := m["score"].(float64); !ok {
		t.Errorf("score missing: %v", m)
	}

	if w := doReq(t, h, "POST", "/evict?stream=a", ""); w.Code != 200 {
		t.Fatalf("evict: %d %s", w.Code, w.Body.String())
	}
	if w := doReq(t, h, "GET", "/query?stream=a", ""); w.Code != http.StatusNotFound {
		t.Errorf("query after evict: %d, want 404", w.Code)
	}
	if w := doReq(t, h, "POST", "/ingest?stream=a", csvRows(300, 1)); w.Code != http.StatusNotFound {
		t.Errorf("ingest after evict: %d, want 404", w.Code)
	}
}

func TestServeBadRequests(t *testing.T) {
	reg := distwindow.NewRegistry()
	defer reg.Close()
	h := newServeHandler(reg, false)

	if w := doReq(t, h, "GET", "/query?stream=nope", ""); w.Code != http.StatusNotFound {
		t.Errorf("unknown query: %d, want 404", w.Code)
	}
	if w := doReq(t, h, "POST", "/evict?stream=nope", ""); w.Code != http.StatusNotFound {
		t.Errorf("unknown evict: %d, want 404", w.Code)
	}
	if w := doReq(t, h, "POST", "/open?stream=x&proto=DA1&d=oops", ""); w.Code != http.StatusBadRequest {
		t.Errorf("bad d: %d, want 400", w.Code)
	}
	doReq(t, h, "POST", "/open?stream=x&proto=DA1&d=3&w=100", "")
	if w := doReq(t, h, "GET", "/query?stream=x&top=-1", ""); w.Code != http.StatusBadRequest {
		t.Errorf("negative top: %d, want 400", w.Code)
	}
	if w := doReq(t, h, "GET", "/pca?stream=x&k=0", ""); w.Code != http.StatusBadRequest {
		t.Errorf("k=0 pca: %d, want 400", w.Code)
	}
	if w := doReq(t, h, "POST", "/score?stream=x", `{"v":[]}`); w.Code != http.StatusBadRequest {
		t.Errorf("empty vector: %d, want 400", w.Code)
	}
}

// TestServeIngestRejectsNonFinite: a CSV batch holding nan or inf answers
// 400 without touching the stream (before the fix DA1 kept the NaN in its
// estimate for good and DA2 panicked on +Inf); queries keep answering the
// pre-batch state and later ingest works.
func TestServeIngestRejectsNonFinite(t *testing.T) {
	for _, proto := range []string{"DA1", "DA2"} {
		t.Run(proto, func(t *testing.T) {
			reg := distwindow.NewRegistry()
			defer reg.Close()
			h := newServeHandler(reg, false)
			if w := doReq(t, h, "POST", "/open?stream=s&proto="+proto+"&d=3&w=1000", ""); w.Code != 200 {
				t.Fatalf("open: %d %s", w.Code, w.Body.String())
			}
			if w := doReq(t, h, "POST", "/ingest?stream=s", csvRows(1, 100)); w.Code != 200 {
				t.Fatalf("ingest: %d %s", w.Code, w.Body.String())
			}
			before := doReq(t, h, "GET", "/query?stream=s&top=3", "").Body.String()
			for _, bad := range []string{"101,0,nan,1,0.5\n", "101,0,1,inf,0.5\n", "101,0,1,1,-Inf\n"} {
				if w := doReq(t, h, "POST", "/ingest?stream=s", bad+csvRows(102, 5)); w.Code != http.StatusBadRequest {
					t.Fatalf("ingest %q: %d %s, want 400", bad, w.Code, w.Body.String())
				}
			}
			w := doReq(t, h, "GET", "/query?stream=s&top=3", "")
			if w.Code != 200 || w.Body.String() != before {
				t.Fatalf("query after refused batches: %d %s, want 200 %s", w.Code, w.Body.String(), before)
			}
			if w := doReq(t, h, "POST", "/ingest?stream=s", csvRows(101, 50)); w.Code != 200 {
				t.Fatalf("ingest after refused batches: %d %s", w.Code, w.Body.String())
			}
			m := decodeJSON(t, doReq(t, h, "GET", "/query?stream=s&top=3", ""))
			for _, v := range m["topSigma2"].([]any) {
				if f, ok := v.(float64); !ok || f < 0 {
					t.Fatalf("topSigma2 = %v after refused batches", m["topSigma2"])
				}
			}
		})
	}
}

// TestServeGateLeak verifies the per-stream gate map does not accumulate
// entries for unknown ids or evicted streams — the leak the old
// lock-per-stream map had.
func TestServeGateLeak(t *testing.T) {
	reg := distwindow.NewRegistry()
	defer reg.Close()
	s := &serveState{reg: reg}

	for i := 0; i < 10; i++ {
		id := fmt.Sprintf("ghost-%d", i)
		w := httptest.NewRecorder()
		s.handleIngest(w, httptest.NewRequest("POST", "/ingest?stream="+id, strings.NewReader(csvRows(1, 1))))
		if w.Code != http.StatusNotFound {
			t.Fatalf("ingest %s: %d, want 404", id, w.Code)
		}
		w = httptest.NewRecorder()
		s.handleEvict(w, httptest.NewRequest("POST", "/evict?stream="+id, nil))
		if w.Code != http.StatusNotFound {
			t.Fatalf("evict %s: %d, want 404", id, w.Code)
		}
	}
	// Open/evict churn: the gate created by a real ingest must die with the
	// stream.
	for i := 0; i < 10; i++ {
		id := fmt.Sprintf("churn-%d", i)
		if _, _, err := reg.Open(id, distwindow.Config{Protocol: distwindow.DA1, D: 3, W: 100, Eps: 0.1, Sites: 1}); err != nil {
			t.Fatal(err)
		}
		w := httptest.NewRecorder()
		s.handleIngest(w, httptest.NewRequest("POST", "/ingest?stream="+id, strings.NewReader(csvRows(1, 4))))
		if w.Code != 200 {
			t.Fatalf("ingest %s: %d %s", id, w.Code, w.Body.String())
		}
		w = httptest.NewRecorder()
		s.handleEvict(w, httptest.NewRequest("POST", "/evict?stream="+id, nil))
		if w.Code != 200 {
			t.Fatalf("evict %s: %d", id, w.Code)
		}
	}
	n := 0
	s.gates.Range(func(_, _ any) bool { n++; return true })
	if n != 0 {
		t.Errorf("gate map holds %d entries after churn, want 0", n)
	}
}

// TestServeConcurrentChurn hammers ingest, query and evict/reopen for the
// same streams from many goroutines. Run under -race this is the
// regression test for the evict/ingest double-mutex window and for queries
// touching an evicted tracker: every response must be
// one of 200/404/409, and the process must neither race nor deadlock.
func TestServeConcurrentChurn(t *testing.T) {
	reg := distwindow.NewRegistry()
	defer reg.Close()
	h := newServeHandler(reg, false)

	const streams = 3
	iters := 60
	if testing.Short() {
		iters = 20
	}
	openStream := func(i int) string {
		id := fmt.Sprintf("s%d", i)
		w := doReq(t, h, "POST", "/open?stream="+id+"&proto=DA1&d=3&w=1000", "")
		if w.Code != 200 {
			t.Errorf("open %s: %d", id, w.Code)
		}
		return id
	}
	for i := 0; i < streams; i++ {
		openStream(i)
	}

	var wg sync.WaitGroup
	fail := make(chan string, 64)
	check := func(kind string, w *httptest.ResponseRecorder) {
		switch w.Code {
		case 200, http.StatusNotFound, http.StatusConflict:
		default:
			select {
			case fail <- fmt.Sprintf("%s: unexpected status %d: %s", kind, w.Code, w.Body.String()):
			default:
			}
		}
	}
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 1))
			for i := 0; i < iters; i++ {
				id := fmt.Sprintf("s%d", rng.Intn(streams))
				switch rng.Intn(5) {
				case 0:
					check("ingest", doReq(t, h, "POST", "/ingest?stream="+id, csvRows(g*100000+i*16+1, 8)))
				case 1:
					check("query", doReq(t, h, "GET", "/query?stream="+id+"&top=2", ""))
				case 2:
					check("pca", doReq(t, h, "GET", "/pca?stream="+id+"&k=2", ""))
				case 3:
					check("score", doReq(t, h, "POST", "/score?stream="+id, `{"v":[1,0,1],"k":2}`))
				case 4:
					check("evict", doReq(t, h, "POST", "/evict?stream="+id, ""))
					check("reopen", doReq(t, h, "POST", "/open?stream="+id+"&proto=DA1&d=3&w=1000", ""))
				}
			}
		}(g)
	}
	wg.Wait()
	close(fail)
	for msg := range fail {
		t.Error(msg)
	}
}
