package distwindow

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"sync/atomic"

	"distwindow/internal/obs"
	"distwindow/internal/tenant"
)

// Registry owns many concurrently-tracked streams behind one handle: a
// sharded map of stream id → Tracker, plus aggregate observability across
// every stream it owns. Each tracker owns its storage; the registry
// shares nothing between streams but the map and the event tally.
//
// Concurrency: Open, Get, Evict, Range, Len, Metrics and the HTTP
// handler may all be called concurrently from any goroutine — lookups
// take only a shard read lock and do not allocate, so a per-row
// Registry.Get costs nothing against the 0 allocs/row ingest budget.
// Each Tracker keeps its own concurrency contract (one ingest goroutine
// per sequential tracker; per-site feeders with WithParallel), and Evict
// may race with ingestion on the evicted stream (see Evict).
//
// Determinism survives multi-tenancy: a stream tracked through a
// Registry is bit-for-bit identical to the same stream tracked by a
// standalone New tracker (the registry determinism test locks this in).
type Registry struct {
	entries *tenant.Map[*registryEntry]
	// events tallies every stream's events in one place; each entry also
	// counts privately, so per-stream and aggregate views are both O(1).
	events  *obs.CountingSink
	opened  atomic.Int64
	evicted atomic.Int64
}

// registryEntry pairs a tracker with its private event tally.
type registryEntry struct {
	t      *Tracker
	events *obs.CountingSink
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		entries: tenant.NewMap[*registryEntry](0),
		events:  &obs.CountingSink{},
	}
}

// Open returns the tracker for id, creating it from cfg and opts if the
// id is new. created reports which happened; when the stream already
// exists, cfg and opts are ignored — the first Open wins, matching the
// exactly-one-constructor guarantee the sharded map provides under
// concurrent opens. Construction errors (invalid cfg, unsupported option
// combinations) are New's errors and store nothing.
//
// The tracker's events flow into the registry's aggregate tally and a
// per-stream tally (see Metrics and StreamMetrics) as well as any sink
// passed via WithSink. Everything else about the returned *Tracker —
// TryObserve, Advance, Sketch, Estimate, checkpointing — is the ordinary
// facade API.
func (r *Registry) Open(id string, cfg Config, opts ...Option) (t *Tracker, created bool, err error) {
	if id == "" {
		return nil, false, fmt.Errorf("distwindow: empty stream id")
	}
	e, created, err := r.entries.LoadOrCreate(id, func() (*registryEntry, error) {
		o := buildOptions(opts)
		per := &obs.CountingSink{}
		sinks := obs.MultiSink{per, r.events}
		if o.haveSink {
			sinks = append(sinks, o.sink)
		}
		o.sink, o.haveSink = sinks, true
		trk, err := newWithOptions(cfg, o)
		if err != nil {
			return nil, err
		}
		return &registryEntry{t: trk, events: per}, nil
	})
	if err != nil {
		return nil, false, err
	}
	if created {
		r.opened.Add(1)
	}
	return e.t, created, nil
}

// Get returns the tracker for id, if open. It takes only a shard read
// lock and performs no allocations — safe to call per row.
func (r *Registry) Get(id string) (*Tracker, bool) {
	e, ok := r.entries.Get(id)
	if !ok {
		return nil, false
	}
	return e.t, true
}

// ShardOf returns the index of the internal shard owning id — a stable,
// alloc-free hash assignment in [0, registry shard count). Use it to give
// ingest workers shard-ownership of streams: a feeder plane that routes
// stream id to worker ShardOf(id) % workers keeps each stream's whole row
// path on one goroutine (handle resolution hoisted out of the row loop, no
// cross-worker handoff) and aligns worker lock traffic with the registry's
// lock stripes.
func (r *Registry) ShardOf(id string) int { return r.entries.ShardOf(id) }

// IngestWorkers clamps a requested ingest-plane worker count to what can
// actually run in parallel: at most one worker per stream (a stream's rows
// are ordered, so extra workers would idle) and at most GOMAXPROCS
// (oversubscribing cores makes the scheduler rotate working sets through
// the cache and *loses* throughput — the BENCH_PR8 registry sweep measured
// 4 workers on one core at two-thirds the 1-worker rate). Feeders should
// size their goroutine pool with this and stripe streams across it,
// resolving each stream's handle once per run, not per row.
func (r *Registry) IngestWorkers(requested, streams int) int {
	w := requested
	if w < 1 {
		w = runtime.GOMAXPROCS(0)
	}
	if streams >= 1 && w > streams {
		w = streams
	}
	if max := runtime.GOMAXPROCS(0); w > max {
		w = max
	}
	return w
}

// Evict removes the id and closes its tracker. It reports whether the
// stream existed. An ingest call racing Evict on the same stream either
// lands before the close, and is in the tracker's final snapshot, or
// returns ErrClosed; handles obtained earlier stay safe to query.
func (r *Registry) Evict(id string) bool {
	e, ok := r.entries.Delete(id)
	if !ok {
		return false
	}
	e.t.Close()
	r.evicted.Add(1)
	return true
}

// Range calls fn for every open stream until fn returns false. fn may
// call back into the registry (including Evict); streams opened or
// evicted while Range runs may or may not be visited.
func (r *Registry) Range(fn func(id string, t *Tracker) bool) {
	r.entries.Range(func(id string, e *registryEntry) bool {
		return fn(id, e.t)
	})
}

// Len returns the number of open streams.
func (r *Registry) Len() int { return r.entries.Len() }

// Close evicts every stream. The registry remains usable (zero streams),
// so Close doubles as a reset.
func (r *Registry) Close() {
	for _, id := range r.entries.Keys() {
		r.Evict(id)
	}
}

// RegistryMetrics is a point-in-time aggregate snapshot across every
// stream a Registry owns.
type RegistryMetrics struct {
	// Streams is the number of currently-open streams.
	Streams int
	// Opened and Evicted count lifecycle transitions since creation;
	// Opened-Evicted equals Streams when nothing is mid-churn.
	Opened  int64
	Evicted int64
	// Events tallies every stream's observability events by kind name
	// (bucket lifecycle, message traffic, skew drops, …).
	Events map[string]int64
}

// Metrics returns the aggregate snapshot. Safe to call at any time from
// any goroutine.
func (r *Registry) Metrics() RegistryMetrics {
	return RegistryMetrics{
		Streams: r.entries.Len(),
		Opened:  r.opened.Load(),
		Evicted: r.evicted.Load(),
		Events:  r.events.Counts(),
	}
}

// StreamMetrics returns one stream's tracker Metrics plus its private
// event tally, if the stream is open.
func (r *Registry) StreamMetrics(id string) (Metrics, map[string]int64, bool) {
	e, ok := r.entries.Get(id)
	if !ok {
		return Metrics{}, nil, false
	}
	return e.t.Metrics(), e.events.Counts(), true
}

// streamSummary is one row of the /streams listing.
type streamSummary struct {
	ID       string
	Protocol string
	Rows     int64
	Events   map[string]int64
}

// MetricsHandler returns an http.Handler for the registry:
//
//	GET /metrics  — aggregate RegistryMetrics (JSON)
//	GET /streams  — per-stream listing, sorted by id: protocol, row
//	                count and event tally for every open stream
//	GET /healthz  — process liveness
//
// plus expvar under /debug/vars and whatever extra endpoints the options
// mount (WithPprof, WithHandler). Per-stream deep dives keep using the
// individual Tracker.MetricsHandler; this handler is the fleet view.
func (r *Registry) MetricsHandler(opts ...MuxOption) http.Handler {
	streams := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		var out []streamSummary
		r.entries.Range(func(id string, e *registryEntry) bool {
			out = append(out, streamSummary{
				ID:       id,
				Protocol: e.t.inner.Name(),
				Rows:     e.t.rows.Load(),
				Events:   e.events.Counts(),
			})
			return true
		})
		sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(out)
	})
	all := append([]MuxOption{
		obs.WithHandler("/streams", streams),
		obs.WithPrometheus(r.WritePrometheusTo),
	}, opts...)
	return obs.Mux(
		func() (any, bool) { return r.Metrics(), true },
		func() bool { return true },
		all...,
	)
}

// WritePrometheusTo writes the registry's aggregate counters plus one
// per-stream series set (rows, words, update latency, labeled by stream
// and protocol) in the Prometheus text exposition format — what
// MetricsHandler serves to scrapers via content negotiation. With
// thousands of streams the exposition grows linearly; scrape accordingly
// or front it with the aggregate-only JSON view.
func (r *Registry) WritePrometheusTo(w io.Writer) error {
	pw := obs.NewPromWriter(w)
	m := r.Metrics()
	pw.Gauge("distwindow_registry_streams", "Currently open streams.", nil, float64(m.Streams))
	pw.Counter("distwindow_registry_opened_total", "Streams opened since creation.", nil, float64(m.Opened))
	pw.Counter("distwindow_registry_evicted_total", "Streams evicted since creation.", nil, float64(m.Evicted))
	names := make([]string, 0, len(m.Events))
	for name := range m.Events {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		pw.Counter("distwindow_registry_events_total", "Observability events across every stream, by kind.",
			[]obs.Label{{Name: "kind", Value: name}}, float64(m.Events[name]))
	}
	r.entries.Range(func(id string, e *registryEntry) bool {
		sm := e.t.Metrics()
		ls := []obs.Label{
			{Name: "stream", Value: id},
			{Name: "protocol", Value: sm.Protocol},
		}
		pw.Counter("distwindow_stream_rows_total", "Rows delivered into the stream's protocol.", ls, float64(sm.Rows))
		pw.Counter("distwindow_stream_words_up_total", "Stream words sent from sites to the coordinator.", ls, float64(sm.Net.WordsUp))
		pw.Histogram("distwindow_stream_update_latency_seconds", "Sampled per-row update latency.", ls, sm.UpdateLatency)
		pw.Gauge("distwindow_stream_snapshot_version", "Latest published sketch snapshot version.", ls, float64(sm.SnapshotVersion))
		pw.Gauge("distwindow_stream_snapshot_lag_rows", "Rows delivered since the latest snapshot.", ls, float64(sm.SnapshotLagRows))
		return true
	})
	return pw.Err()
}
