package distwindow

// options collects the construction-time settings applied by New.
type options struct {
	parallel bool
	workers  int
	ringSize int
	sink     Sink
	haveSink bool
	tracing  *TraceConfig
	audit    *AuditConfig
	// publishEvery overrides the parallel coordinator's publication
	// cadence; set only by tests (withPublishEvery).
	publishEvery int
}

// buildOptions folds an option list into its settings struct.
func buildOptions(opts []Option) *options {
	o := &options{}
	for _, fn := range opts {
		if fn != nil {
			fn(o)
		}
	}
	return o
}

// withPublishEvery sets the parallel coordinator's publication cadence in
// applied updates (≤0 means the default, 256). Unexported: the cadence is
// an implementation detail that tests tighten to make soaks see more
// versions.
func withPublishEvery(n int) Option {
	return func(o *options) { o.publishEvery = n }
}

// Option configures a Tracker at construction. Options are applied by New
// in the order given; later options override earlier ones. Observability
// (WithSink, WithTracing, WithAudit) is installed only through options, so
// the tracker is fully wired before the first row arrives — there is no
// window in which traffic goes unobserved, and no field write after
// ingestion may have started.
type Option func(*options)

// WithParallel runs ingestion through the per-site pipeline: each site's
// local work (skew reordering, histogram upkeep, sketch updates) runs on a
// worker goroutine, and a single coordinator goroutine applies the
// resulting site→coordinator updates in global (T, site) order, so the
// coordinator state — and therefore Sketch — is bit-for-bit identical to
// the sequential path's.
//
// workers is the number of site-work goroutines (≤0 means GOMAXPROCS;
// capped at Sites). Only the one-way deterministic protocols (DA1, DA2,
// DA2C, Decay) support the pipeline; New fails with ErrParallelUnsupported
// for the sampling family, and when combined with WithTracing or
// WithAudit, whose instrumentation assumes the sequential path.
//
// In parallel mode each site must be fed by at most one goroutine (see
// the Tracker concurrency contract), per-site rather than global timestamp
// ordering is enforced, and stale rows are counted in Metrics instead of
// being returned as errors from TryObserve. Call Drain (or an exact query,
// Sketch or SketchGram) to synchronize, and Close when done to stop the
// goroutines. The pipeline's coordinator goroutine also publishes a
// snapshot every 256 applied updates, so Snapshot readers see progress
// while the feeders run.
func WithParallel(workers int) Option {
	return func(o *options) {
		o.parallel = true
		o.workers = workers
	}
}

// WithRingSize sets the per-site input ring capacity for WithParallel,
// in row blocks (rounded up to a power of two; ≤0 means the default,
// 256). A TryObserve row occupies one block; an ObserveBatch run fills
// blocks to capacity. When a site's ring fills, TryObserve/ObserveBatch
// block until its worker catches up — backpressure, not loss. The depth
// bounds how many blocks a site may have in flight; the memory a site's
// ring holds follows the blocks it has actually had in flight at once, so
// a deep ring costs memory only while a feeder runs that far ahead.
func WithRingSize(n int) Option {
	return func(o *options) { o.ringSize = n }
}

// WithSnapshots is a no-op: every tracker publishes snapshots, so
// Snapshot is always a lock-free read of the latest published version and
// Sketch/SketchGram are always exact (see Tracker).
//
// Deprecated: drop the option; publication is unconditional.
func WithSnapshots(every int) Option { return nil }

// WithSink installs an event sink receiving the tracker's typed events:
// message traffic, bucket lifecycle, skew drops, sketch queries, snapshot
// publications and threshold renegotiations. Sketch queries, and the
// snapshot publications exact reads trigger, are reported from the
// querying goroutine, under the gate that holds off ingest. With
// WithParallel the sink is also invoked from the worker and coordinator
// goroutines and must be safe for concurrent use (CountingSink and other
// atomic sinks qualify).
func WithSink(s Sink) Option {
	return func(o *options) {
		o.sink = s
		o.haveSink = true
	}
}

// WithTracing installs span-based causal tracing: each sampled row's
// journey (ingest → bucket create/merge/expire → send → recv → query) is
// recorded into a bounded lock-free ring and exportable as Chrome
// trace-event JSON via TraceChrome or the /debug/trace endpoint mounted
// by MetricsHandler. SampleEvery ≤ 0 leaves tracing off, which costs one
// nil-check per hook site. Live tracing is incompatible with WithParallel:
// New fails with ErrParallelUnsupported.
func WithTracing(cfg TraceConfig) Option {
	return func(o *options) { o.tracing = &cfg }
}

// WithAudit installs a live ε-error auditor: a shadow path keeping the
// exact windowed covariance next to the protocol and periodically
// measuring the observed err(A_w, B) against the configured ε, together
// with the communication spent per window. Results surface through
// Metrics().Audit, AuditSamples, and the /debug/audit SVG panel mounted
// by MetricsHandler.
//
// The shadow window costs O(window·d) memory and an O(d²) Gram update per
// row — the very costs the protocols exist to avoid — so enable it on
// canaries and soak tests, not on every production instance. Incompatible
// with WithParallel (the shadow path rides the sequential ingest hook):
// New fails with ErrParallelUnsupported.
func WithAudit(cfg AuditConfig) Option {
	return func(o *options) { o.audit = &cfg }
}
