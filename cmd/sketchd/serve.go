package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"sync"

	"distwindow"
	"distwindow/internal/csvio"
)

// runServe is sketchd's multi-tenant mode: a stream registry behind an
// HTTP API, so one process tracks any number of independent windows.
//
//	POST /open?stream=id&proto=DA1&d=8[&w=&eps=&sites=&ell=&seed=]
//	POST /ingest?stream=id          body: CSV rows `timestamp,site,v1,...,vd`
//	GET  /query?stream=id[&top=k]   sketch shape, top-k σ², snapshot version,
//	                                cost
//	GET  /pca?stream=id[&k=n]       top-k principal directions + variances
//	POST /score?stream=id           body: {"v":[...],"k":n} → anomaly score
//	POST /evict?stream=id
//	GET  /streams                   per-stream listing (id, protocol, rows)
//	GET  /metrics                   aggregate registry metrics (JSON, or the
//	                                Prometheus text exposition when Accept
//	                                or ?format=prom asks for it)
//	GET  /healthz
//
// Every query endpoint serves the stream's latest published snapshot
// without taking any lock: queries never block ingest, ingest never blocks
// queries, and N concurrent queriers of one snapshot version share one
// factorization. Ingest drains the stream after every batch, which
// publishes the version those queries see.
// Ingest and evict for one stream serialize on a per-stream gate (the
// facade's single-ingester contract enforced server-side); a query that
// races an eviction gets HTTP 409, not a hang. Different streams never
// contend.
func runServe(addr string, pprofOn bool) {
	reg := distwindow.NewRegistry()
	defer reg.Close()
	log.Printf("sketchd: serving stream registry on %s", addr)
	if err := http.ListenAndServe(addr, newServeHandler(reg, pprofOn)); err != nil {
		log.Fatal(err)
	}
}

// streamGate serializes ingest and eviction for one stream id. dead
// (guarded by mu) tombstones the gate when its stream is evicted: a
// goroutine that loses the race and locks a dead gate retries against the
// map instead of proceeding under a gate that no longer guards anything —
// without the tombstone, evict's map delete and a concurrent LoadOrStore
// could leave two goroutines holding two different mutexes for one id.
type streamGate struct {
	mu   sync.Mutex
	dead bool
}

// serveState carries the handler set's shared state.
type serveState struct {
	reg   *distwindow.Registry
	gates sync.Map // stream id → *streamGate
}

// lockStream returns the stream's gate, locked and live. Callers must
// Unlock it (after marking it dead first, if they evicted the stream).
func (s *serveState) lockStream(id string) *streamGate {
	for {
		v, _ := s.gates.LoadOrStore(id, &streamGate{})
		g := v.(*streamGate)
		g.mu.Lock()
		if !g.dead {
			return g
		}
		g.mu.Unlock()
	}
}

// killGate tombstones the held gate and removes it from the map (only if
// still the map's entry — a retrying ingester may already have installed a
// fresh one). Used on evict and to clean up gates created for unknown ids,
// so churn workloads (open/evict many ids) cannot grow the map without
// bound.
func (s *serveState) killGate(id string, g *streamGate) {
	g.dead = true
	s.gates.CompareAndDelete(id, g)
}

// newServeHandler builds the registry-mode HTTP handler; split from
// runServe so tests can drive it through httptest.
func newServeHandler(reg *distwindow.Registry, pprofOn bool) http.Handler {
	s := &serveState{reg: reg}

	mux := http.NewServeMux()
	mux.HandleFunc("POST /open", s.handleOpen)
	mux.HandleFunc("POST /ingest", s.handleIngest)
	mux.HandleFunc("GET /query", s.handleQuery)
	mux.HandleFunc("GET /pca", s.handlePCA)
	mux.HandleFunc("POST /score", s.handleScore)
	mux.HandleFunc("POST /evict", s.handleEvict)

	// The registry's fleet view provides /metrics, /streams, /healthz and
	// /debug/vars; mount it as the fallback so both APIs share the port.
	var regOpts []distwindow.MuxOption
	if pprofOn {
		regOpts = append(regOpts, distwindow.WithPprof())
	}
	mux.Handle("/", reg.MetricsHandler(regOpts...))
	return mux
}

func (s *serveState) handleOpen(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	id := q.Get("stream")
	cfg := distwindow.Config{
		Protocol: distwindow.Protocol(q.Get("proto")),
		W:        1_000_000,
		Eps:      0.05,
		Sites:    1,
	}
	var err error
	for name, dst := range map[string]*int{"d": &cfg.D, "sites": &cfg.Sites, "ell": &cfg.Ell} {
		if s := q.Get(name); s != "" {
			if *dst, err = strconv.Atoi(s); err != nil {
				http.Error(w, fmt.Sprintf("bad %s: %v", name, err), http.StatusBadRequest)
				return
			}
		}
	}
	if s := q.Get("w"); s != "" {
		if cfg.W, err = strconv.ParseInt(s, 10, 64); err != nil {
			http.Error(w, fmt.Sprintf("bad w: %v", err), http.StatusBadRequest)
			return
		}
	}
	if s := q.Get("seed"); s != "" {
		if cfg.Seed, err = strconv.ParseInt(s, 10, 64); err != nil {
			http.Error(w, fmt.Sprintf("bad seed: %v", err), http.StatusBadRequest)
			return
		}
	}
	if s := q.Get("eps"); s != "" {
		if cfg.Eps, err = strconv.ParseFloat(s, 64); err != nil {
			http.Error(w, fmt.Sprintf("bad eps: %v", err), http.StatusBadRequest)
			return
		}
	}
	_, created, err := s.reg.Open(id, cfg)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, map[string]any{"stream": id, "created": created})
}

func (s *serveState) handleIngest(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("stream")
	g := s.lockStream(id)
	defer g.mu.Unlock()
	// Resolve the tracker under the gate: an eviction cannot slip between
	// the lookup and the rows, so a batch lands whole in a live stream or
	// is refused with 404, never cut short by ErrClosed.
	tr, ok := s.reg.Get(id)
	if !ok {
		// The gate may have been created just now for an id that does not
		// exist; drop it so unknown-id probes cannot grow the map.
		s.killGate(id, g)
		http.Error(w, "unknown stream", http.StatusNotFound)
		return
	}
	rows, stale := 0, 0
	_, _, err := csvio.Read(r.Body, func(e csvio.Event) error {
		err := tr.TryObserve(e.Site, distwindow.Row{T: e.Row.T, V: e.Row.V})
		switch {
		case err == nil:
			rows++
		case errors.Is(err, distwindow.ErrStale):
			stale++
		default:
			return err
		}
		return nil
	})
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// The end of an HTTP batch is a natural consistency point: publish an
	// exact snapshot (cheap d×ℓ copy) so a query issued after this response
	// sees every row of the batch.
	tr.Drain()
	writeJSON(w, map[string]any{"stream": id, "rows": rows, "stale": stale})
}

// snapshotFor resolves a stream for the lock-free query endpoints. It
// takes no gate: queries are served from published snapshots, which stay
// valid even across a concurrent eviction — the explicit Closed check
// turns queries against an evicted stream into 409.
func (s *serveState) snapshotFor(w http.ResponseWriter, id string) (*distwindow.Tracker, *distwindow.Snapshot, bool) {
	tr, ok := s.reg.Get(id)
	if !ok {
		http.Error(w, "unknown stream", http.StatusNotFound)
		return nil, nil, false
	}
	if tr.Closed() {
		http.Error(w, "stream evicted", http.StatusConflict)
		return nil, nil, false
	}
	snap, _ := tr.Snapshot() // never fails
	return tr, snap, true
}

func (s *serveState) handleQuery(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("stream")
	topk := 5
	if v := r.URL.Query().Get("top"); v != "" {
		k, err := strconv.Atoi(v)
		if err != nil || k < 0 {
			http.Error(w, fmt.Sprintf("bad top: %q", v), http.StatusBadRequest)
			return
		}
		topk = k
	}
	tr, snap, ok := s.snapshotFor(w, id)
	if !ok {
		return
	}
	b := snap.Sketch()
	var sigma2 []float64
	if topk > 0 && b.Rows() > 0 {
		sigma2 = snap.PCA(topk).Values
	}
	writeJSON(w, map[string]any{
		"stream":          id,
		"protocol":        snap.Protocol(),
		"sketchRows":      b.Rows(),
		"sketchCols":      b.Cols(),
		"topSigma2":       sigma2,
		"snapshotVersion": snap.Version(),
		"snapshotRows":    snap.Rows(),
		"cost":            distwindow.FormatStats(tr.Stats()),
	})
}

func (s *serveState) handlePCA(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("stream")
	k := 3
	if v := r.URL.Query().Get("k"); v != "" {
		kk, err := strconv.Atoi(v)
		if err != nil || kk < 1 {
			http.Error(w, fmt.Sprintf("bad k: %q", v), http.StatusBadRequest)
			return
		}
		k = kk
	}
	_, snap, ok := s.snapshotFor(w, id)
	if !ok {
		return
	}
	p := snap.PCA(k)
	comps := make([][]float64, p.Components.Rows())
	for i := range comps {
		comps[i] = p.Components.Row(i)
	}
	writeJSON(w, map[string]any{
		"stream":          id,
		"components":      comps,
		"values":          p.Values,
		"snapshotVersion": snap.Version(),
	})
}

func (s *serveState) handleScore(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("stream")
	var req struct {
		V []float64 `json:"v"`
		K int       `json:"k"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("bad body: %v", err), http.StatusBadRequest)
		return
	}
	if req.K < 1 {
		req.K = 3
	}
	if len(req.V) == 0 {
		http.Error(w, "empty vector", http.StatusBadRequest)
		return
	}
	_, snap, ok := s.snapshotFor(w, id)
	if !ok {
		return
	}
	score := snap.AnomalyScorer(req.K).Score(req.V)
	writeJSON(w, map[string]any{
		"stream":          id,
		"score":           score,
		"k":               req.K,
		"snapshotVersion": snap.Version(),
	})
}

func (s *serveState) handleEvict(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("stream")
	g := s.lockStream(id)
	ok := s.reg.Evict(id)
	// Tombstone + remove the gate whether or not the stream existed: the
	// per-stream entry must not outlive the stream (or exist at all for
	// unknown ids), and the tombstone sends racing ingesters back to the
	// map for a fresh gate.
	s.killGate(id, g)
	g.mu.Unlock()
	if !ok {
		http.Error(w, "unknown stream", http.StatusNotFound)
		return
	}
	writeJSON(w, map[string]any{"stream": id, "evicted": true})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
