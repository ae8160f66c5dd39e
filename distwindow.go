// Package distwindow tracks covariance sketches of matrix streams over
// distributed time-based sliding windows, implementing the protocols of
// Zhang, Huang, Wei, Zhang and Lin, "Tracking Matrix Approximation over
// Distributed Sliding Windows" (ICDE 2017).
//
// # Model
//
// m distributed sites each observe a stream of timestamped d-dimensional
// rows. A coordinator continuously maintains a small matrix B that is an
// ε-covariance sketch of A_w — the matrix of all rows, across all sites,
// whose timestamps lie in the sliding window (now−W, now]:
//
//	‖A_wᵀA_w − BᵀB‖₂ / ‖A_w‖_F² ≤ ε.
//
// The package simulates the distributed system in-process (the standard
// evaluation methodology for the distributed monitoring model) while
// accounting every transmitted word, so protocols can be compared on the
// communication/accuracy trade-off the paper studies.
//
// # Protocols
//
//   - PWOR / PWOR-ALL — priority sampling without replacement with
//     lazy-broadcast threshold maintenance (Algorithms 1–2).
//   - ESWOR / ESWOR-ALL — Efraimidis–Spirakis sampling, same framework.
//   - PWORSimple — Algorithm 1's exact threshold maintenance (ablation).
//   - PWR / ESWR — with-replacement extensions.
//   - DA1 — deterministic tracking via per-site covariance differences
//     (Algorithm 4); one-way communication, O(md/ε·log NR) words/window.
//   - DA2 / DA2C — deterministic forward–backward tracking built on IWMT
//     (Algorithm 5); one-way, better update time for large d.
//
// # Quick start
//
//	tr, err := distwindow.New(distwindow.Config{
//		Protocol: distwindow.DA2,
//		D:        64,            // row dimension
//		W:        3_600_000,     // window in ticks
//		Eps:      0.05,          // target covariance error
//		Sites:    20,
//	})
//	...
//	if err := tr.TryObserve(site, distwindow.Row{T: now, V: features}); err != nil {
//		... // ErrStale and friends; see TryObserve
//	}
//	b := tr.Sketch() // ε-covariance sketch of the current window
//
// Construction options configure observability and concurrency, e.g.
//
//	tr, err := distwindow.New(cfg, distwindow.WithParallel(0))
//
// runs each site's local work on worker goroutines while keeping the
// coordinator's sketch bit-identical to the sequential path (one-way
// protocols only; see WithParallel).
package distwindow

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"distwindow/internal/audit"
	"distwindow/internal/core"
	"distwindow/internal/obs"
	"distwindow/internal/protocol"
	"distwindow/internal/sampling"
	"distwindow/internal/stream"
	"distwindow/internal/trace"
	"distwindow/mat"
)

// Row is one stream item: a d-dimensional record V observed at time T.
// Timestamps are int64 ticks and must be fed in non-decreasing order.
type Row struct {
	T int64
	V []float64
}

// Protocol selects a tracking algorithm.
type Protocol string

// The available protocols. See the package documentation for the
// trade-offs; the paper's recommendations are PWORAll within the sampling
// family, DA1 for small d, and DA2 for large d.
const (
	PWOR       Protocol = "PWOR"
	PWORAll    Protocol = "PWOR-ALL"
	PWORSimple Protocol = "PWOR-simple"
	ESWOR      Protocol = "ESWOR"
	ESWORAll   Protocol = "ESWOR-ALL"
	PWR        Protocol = "PWR"
	ESWR       Protocol = "ESWR"
	DA1        Protocol = "DA1"
	DA2        Protocol = "DA2"
	DA2C       Protocol = "DA2-C"
	// Decay tracks exponentially time-decayed covariance instead of a
	// sliding window (set Config.DecayGamma); an extension beyond the
	// paper's model.
	Decay Protocol = "DECAY"
	// Uniform is the unweighted-sampling baseline the paper's §II rules
	// out for covariance sketching; it is included so the motivating
	// counterexample is reproducible (see TestUniformSamplingFailsOnSkew).
	Uniform Protocol = "UNIFORM"
)

// Protocols lists every implemented protocol in presentation order.
func Protocols() []Protocol {
	return []Protocol{PWOR, PWORAll, PWORSimple, ESWOR, ESWORAll, PWR, ESWR, DA1, DA2, DA2C}
}

// Stats aggregates a run's communication and space counters; one word is
// one transmitted float64/int64, the paper's unit.
type Stats = protocol.Stats

// Config configures a Tracker.
type Config struct {
	// Protocol selects the algorithm.
	Protocol Protocol
	// D is the row dimension.
	D int
	// W is the window length in ticks. A row with timestamp t is active at
	// time now iff t ∈ (now−W, now].
	W int64
	// Eps is the target covariance error ε ∈ (0,1).
	Eps float64
	// Sites is the number of distributed sites m.
	Sites int
	// Ell overrides the sample-set size ℓ for the sampling protocols
	// (0 derives ℓ = Θ(1/ε²·log 1/ε) from Eps). Ignored by DA1/DA2.
	Ell int
	// Seed drives the sampling protocols' randomness; runs with equal
	// seeds and inputs are bit-for-bit reproducible.
	Seed int64
	// DecayGamma is the per-tick decay factor for Protocol == Decay
	// (ignored otherwise; W is ignored by the decay tracker).
	DecayGamma float64
	// MaxSkew, when positive, lets TryObserve accept timestamps up to
	// MaxSkew ticks out of order: each site's rows pass through a reorder
	// buffer that delays them until no earlier row can still arrive. Rows
	// older than the skew horizon are dropped (counted in
	// Metrics().SkewDropped).
	MaxSkew int64
}

// ConfigError reports which Config field failed validation and why. New,
// NewAggregate and Config.Validate return it, so callers can attribute a
// failure to a field with errors.As instead of parsing the message.
type ConfigError struct {
	Field string
	Msg   string
}

func (e *ConfigError) Error() string {
	return "distwindow: invalid Config." + e.Field + ": " + e.Msg
}

// Validate checks the configuration without building a tracker. It is the
// validation New performs: the shared parameter constraints (dimension,
// window, ε, site count — delegated to the core layer, the single source
// of truth also guarding the protocol constructors) plus the facade-level
// ones (known Protocol, DecayGamma for Decay, nonnegative MaxSkew). The
// returned error is a *ConfigError.
func (c Config) Validate() error {
	switch c.Protocol {
	case PWOR, PWORAll, PWORSimple, ESWOR, ESWORAll, PWR, ESWR, DA1, DA2, DA2C, Decay, Uniform:
	default:
		return &ConfigError{Field: "Protocol", Msg: fmt.Sprintf("unknown protocol %q", c.Protocol)}
	}
	if err := c.coreConfig().Validate(); err != nil {
		return wrapCoreConfigErr(err)
	}
	if c.Protocol == Decay && (c.DecayGamma <= 0 || c.DecayGamma >= 1) {
		return &ConfigError{Field: "DecayGamma", Msg: fmt.Sprintf("= %v, want in (0,1)", c.DecayGamma)}
	}
	if c.MaxSkew < 0 {
		return &ConfigError{Field: "MaxSkew", Msg: fmt.Sprintf("= %d, want ≥ 0", c.MaxSkew)}
	}
	return nil
}

// coreConfig maps the facade Config onto the core parameter set. The decay
// tracker ignores W; substitute 1 so the shared validation passes.
func (c Config) coreConfig() core.Config {
	ccfg := core.Config{D: c.D, W: c.W, Eps: c.Eps, Sites: c.Sites, Ell: c.Ell, Seed: c.Seed}
	if c.Protocol == Decay && ccfg.W <= 0 {
		ccfg.W = 1
	}
	return ccfg
}

// wrapCoreConfigErr rewraps the core layer's field attribution in the
// facade's error type.
func wrapCoreConfigErr(err error) error {
	var fe *core.FieldError
	if errors.As(err, &fe) {
		return &ConfigError{Field: fe.Field, Msg: fe.Msg}
	}
	return err
}

// Tracker is a live protocol instance: m simulated sites plus the
// coordinator, with every logical transmission accounted.
//
// Concurrency: a sequential Tracker (the default) accepts ingestion from
// one goroutine at a time. A parallel Tracker (built with WithParallel)
// accepts concurrent TryObserve calls for distinct sites — at most one
// feeder goroutine per site. Advance, FlushSkew, Drain and Close still
// require the feeders to be quiescent in parallel mode. In both modes
// Metrics and Stats may be called from other goroutines (e.g. an HTTP
// metrics handler) at any time.
//
// Every query reads a published, immutable Snapshot of the coordinator
// state, so no query ever changes what later queries return. Snapshot and
// SnapshotVersion are lock-free: one atomic load of the latest published
// version, safe from any number of goroutines while feeders run, and never
// blocking ingest. Sketch and SketchGram are exact: each briefly holds off
// ingest (waiting out in-flight calls) to publish the current state, then
// reads that version. On a parallel tracker the catch-up drains the
// pipeline, so only the feeder side should call them; a reader that must
// never block ingest uses Snapshot.
type Tracker struct {
	inner protocol.Tracker
	net   *protocol.Network
	cfg   Config
	// skew holds one reorder buffer per site when cfg.MaxSkew > 0.
	skew []*stream.SkewBuffer

	// maxT is the highest timestamp seen by Observe/Advance; delivered is
	// the highest timestamp handed to the inner protocol (they differ only
	// while rows sit in the skew buffers). Both start at math.MinInt64.
	maxT      int64
	delivered int64

	// buckets is the inner tracker's bucket counter, when it has one.
	buckets core.BucketCounter
	sink    obs.Sink

	// tracer/traceRing hold the causal-tracing state installed by
	// WithTracing; aud is the live ε-error auditor from WithAudit. All
	// three are fixed at construction, nil by default, and cost one
	// nil-check when off.
	tracer    *trace.Tracer
	traceRing *trace.Ring
	aud       *audit.Auditor

	rows        obs.Counter
	staleDrops  obs.Counter
	skewDropped obs.Counter
	queries     obs.Counter
	liveBuckets obs.Gauge
	updateLat   obs.Histogram
	// latTick drives latency/gauge sampling; touched only by the ingest
	// goroutine.
	latTick uint

	// pipe, ow and lanes carry the parallel ingestion state installed by
	// WithParallel; all three are nil/empty on a sequential tracker. ow is
	// the inner tracker's one-way seam (site half / coordinator half).
	pipe  *protocol.Pipeline
	ow    protocol.OneWay
	lanes []laneState
	// closed flips once in Close, under the exclusive gate. Ingest calls
	// read it under the shared gate, so each lands before the close or
	// returns ErrClosed; queries stay usable afterwards. Atomic so serving
	// tiers can check it from any goroutine.
	closed atomic.Bool

	// lastAppliedT is the emission time of the last update applied at the
	// coordinator in parallel mode. Written only by the pipeline's
	// coordinator goroutine (via the apply wrapper); the facade reads it
	// only after a drain barrier.
	lastAppliedT int64

	// Snapshot publication state (see snapshot.go). snap is the latest
	// published immutable version, never nil after construction. gate is
	// held shared by ingest calls and exclusively by drains and exact
	// reads, which publish.
	snapVer atomic.Uint64
	snap    atomic.Pointer[Snapshot]
	gate    sync.RWMutex

	// batch holds per-site staging slices for ObserveBatch's parallel
	// path. Indexed by site and touched only by that site's feeder
	// goroutine (the same single-producer contract as TryObserve), so no
	// locking; cleared after each enqueue so no caller slice is retained.
	batch [][]stream.Row
}

// newTracker wires the facade bookkeeping around a built protocol; New and
// Restore share it so the metric fields are always initialized.
func newTracker(inner protocol.Tracker, net *protocol.Network, cfg Config) *Tracker {
	t := &Tracker{inner: inner, net: net, cfg: cfg, maxT: math.MinInt64, delivered: math.MinInt64, lastAppliedT: math.MinInt64}
	if bc, ok := inner.(core.BucketCounter); ok {
		t.buckets = bc
	}
	if cfg.MaxSkew > 0 {
		t.skew = make([]*stream.SkewBuffer, cfg.Sites)
		for i := range t.skew {
			t.skew[i] = stream.NewSkewBuffer(cfg.MaxSkew)
		}
	}
	return t
}

// New builds a tracker. The configuration is validated up front (see
// Config.Validate; failures are *ConfigError), then the options are
// applied: observability first (WithSink, WithTracing, WithAudit), the
// parallel pipeline last (WithParallel), so incompatible combinations are
// rejected with ErrParallelUnsupported before any goroutine starts.
func New(cfg Config, opts ...Option) (*Tracker, error) {
	return newWithOptions(cfg, buildOptions(opts))
}

// newWithOptions is New after option folding; the Registry calls it
// directly so it can fan the folded sink out to its tallies before
// construction.
func newWithOptions(cfg Config, o *options) (*Tracker, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	net := protocol.NewNetwork(cfg.Sites)
	ccfg := cfg.coreConfig()
	var (
		inner protocol.Tracker
		err   error
	)
	switch cfg.Protocol {
	case PWOR:
		inner, err = core.NewSampler(ccfg, core.SamplerOpts{Scheme: sampling.Priority{}}, net)
	case PWORAll:
		inner, err = core.NewSampler(ccfg, core.SamplerOpts{Scheme: sampling.Priority{}, UseAll: true}, net)
	case PWORSimple:
		inner, err = core.NewSampler(ccfg, core.SamplerOpts{Scheme: sampling.Priority{}, Exact: true}, net)
	case ESWOR:
		inner, err = core.NewSampler(ccfg, core.SamplerOpts{Scheme: sampling.ES{}}, net)
	case ESWORAll:
		inner, err = core.NewSampler(ccfg, core.SamplerOpts{Scheme: sampling.ES{}, UseAll: true}, net)
	case Uniform:
		inner, err = core.NewSampler(ccfg, core.SamplerOpts{Scheme: sampling.Uniform{}}, net)
	case PWR:
		inner, err = core.NewPWR(ccfg, net)
	case ESWR:
		inner, err = core.NewESWR(ccfg, net)
	case DA1:
		inner, err = core.NewDA1(ccfg, net)
	case DA2:
		inner, err = core.NewDA2(ccfg, net)
	case DA2C:
		inner, err = core.NewDA2C(ccfg, net)
	case Decay:
		inner, err = core.NewDecay(ccfg, cfg.DecayGamma, net)
	default:
		// Unreachable: Validate vetted the protocol above.
		return nil, &ConfigError{Field: "Protocol", Msg: fmt.Sprintf("unknown protocol %q", cfg.Protocol)}
	}
	if err != nil {
		return nil, err
	}
	t := newTracker(inner, net, cfg)
	if err := t.applyOptions(o); err != nil {
		return nil, err
	}
	return t, nil
}

// applyOptions installs the folded option settings on a freshly built (or
// freshly restored) tracker: the sink, then snapshot version 1, then
// tracing and audit, the parallel pipeline last, so incompatible
// combinations are rejected before any goroutine starts and the
// coordinator goroutine inherits a published snapshot. Shared by New and
// Restore.
func (t *Tracker) applyOptions(o *options) error {
	if o.haveSink {
		t.sink = o.sink
		t.net.SetSink(o.sink)
		if ss, ok := t.inner.(core.SinkSetter); ok {
			ss.SetSink(o.sink)
		}
	}
	t.publishAt(math.MinInt64)
	if o.tracing != nil && o.tracing.SampleEvery > 0 {
		t.traceRing = trace.NewRing(o.tracing.RingSize)
		t.tracer = trace.New(t.traceRing, o.tracing.SampleEvery)
		t.net.SetTracer(t.tracer)
		if ts, ok := t.inner.(core.TracerSetter); ok {
			ts.SetTracer(t.tracer)
		}
	}
	if o.audit != nil {
		if err := t.startAudit(*o.audit); err != nil {
			return err
		}
	}
	if o.parallel {
		return t.startParallel(o.workers, o.ringSize, o.publishEvery)
	}
	return nil
}

// latSampleMask makes one Observe in 16 pay for two time.Now calls and a
// bucket-gauge refresh; the rest of the hot path stays untimed.
const latSampleMask = 15

// TryObserve delivers a row to the given site (0 ≤ site < Sites). It is
// the primary ingestion entry point: delivery problems come back as errors
// instead of panics:
//
//   - ErrSiteRange and ErrDimension flag caller bugs, and ErrNonFinite a
//     row holding NaN or ±Inf; the row was not consumed and the tracker
//     is unchanged.
//   - ErrStale flags a row whose timestamp is older than the maximum
//     already observed (or beyond the skew horizon when Config.MaxSkew is
//     set). The row is dropped and counted — in Metrics().StaleDrops, or
//     Metrics().SkewDropped for skew-horizon rejections — and the tracker
//     remains consistent, so ingestion can continue. Match with
//     errors.Is(err, ErrStale).
//
// Timestamps must be non-decreasing across all observe and Advance calls;
// Config.MaxSkew relaxes this to bounded per-site reordering through a
// reorder buffer.
//
// The tracker never retains r.V after the call returns: every layer that
// outlives the call (samplers, histogram buckets, the skew buffer, the
// parallel pipeline's rings) copies the values it keeps. Callers may reuse
// the backing slice freely.
//
// On a parallel tracker (WithParallel) the structural checks still happen
// synchronously, but the row itself is handed to the site's worker:
// distinct sites may call TryObserve concurrently (one goroutine per
// site), timestamps need only be non-decreasing per site, and staleness is
// detected on the worker — stale rows are counted in Metrics, never
// returned as ErrStale. The call blocks for backpressure when the site's
// ring is full.
//
// After Close (or Registry.Evict) TryObserve returns ErrClosed. A call
// racing Close either lands before it, and is in the final snapshot, or
// gets ErrClosed.
func (t *Tracker) TryObserve(site int, r Row) error {
	t.gate.RLock()
	err := ErrClosed
	if !t.closed.Load() {
		err = t.tryObserve1(site, r)
	}
	t.gate.RUnlock()
	return err
}

// tryObserve1 is TryObserve without the gate — ObserveBatch's sequential
// loop calls it once per row under a single gate entry.
func (t *Tracker) tryObserve1(site int, r Row) error {
	if site < 0 || site >= t.cfg.Sites {
		return fmt.Errorf("%w: site %d not in [0,%d)", ErrSiteRange, site, t.cfg.Sites)
	}
	if err := t.checkRow(r); err != nil {
		return err
	}
	if t.pipe != nil {
		t.pipe.EnqueueRow(site, r.T, r.V)
		return nil
	}
	if t.skew == nil {
		if r.T < t.maxT {
			t.staleDrops.Inc()
			if t.sink != nil {
				t.sink.OnEvent(obs.Event{Kind: obs.EvSkewDrop, Site: site, T: r.T, N: 1})
			}
			return fmt.Errorf("%w: t=%d after t=%d was observed", ErrStale, r.T, t.maxT)
		}
		t.maxT = r.T
		t.deliver(site, stream.Row{T: r.T, V: r.V})
		return nil
	}
	if r.T > t.maxT {
		t.maxT = r.T
	}
	released, ok := t.skew[site].Add(stream.Row{T: r.T, V: append([]float64(nil), r.V...)})
	if !ok {
		t.skewDropped.Inc()
		if t.sink != nil {
			t.sink.OnEvent(obs.Event{Kind: obs.EvSkewDrop, Site: site, T: r.T, N: 1})
		}
		return fmt.Errorf("%w: t=%d beyond the skew horizon", ErrStale, r.T)
	}
	for _, rr := range released {
		t.deliverSkew(site, rr)
	}
	return nil
}

// checkRow is the per-row structural check shared by every ingest path:
// the row must have Config.D values, all of them finite.
func (t *Tracker) checkRow(r Row) error {
	if len(r.V) != t.cfg.D {
		return fmt.Errorf("%w: got %d values, want %d", ErrDimension, len(r.V), t.cfg.D)
	}
	if !mat.AllFinite(r.V...) {
		return fmt.Errorf("%w: row at t=%d", ErrNonFinite, r.T)
	}
	return nil
}

// deliver hands one in-order row to the inner protocol, with sampled
// latency accounting. A sampled ingest opens the trace root under which
// the protocol's bucket and message spans attach; the audit shadow runs
// after the span closes so its O(d²) upkeep never inflates ingest spans.
func (t *Tracker) deliver(site int, r stream.Row) {
	t.latTick++
	if t.latTick&latSampleMask != 0 {
		sp := t.tracer.Start(trace.OpIngest, site, r.T)
		t.inner.Observe(site, r)
		sp.End()
		t.rows.Inc()
		t.delivered = r.T
		if t.aud != nil {
			t.aud.Observe(r.T, r.V)
		}
		return
	}
	sp := t.tracer.Start(trace.OpIngest, site, r.T)
	start := time.Now()
	t.inner.Observe(site, r)
	t.updateLat.Observe(time.Since(start))
	sp.End()
	t.rows.Inc()
	t.delivered = r.T
	if t.buckets != nil {
		t.liveBuckets.Set(int64(t.buckets.LiveBuckets()))
	}
	if t.aud != nil {
		t.aud.Observe(r.T, r.V)
	}
}

// deliverSkew forwards a buffer-released row, dropping it if delivery
// would move the inner protocol's clock backwards (a row released late by
// a lagging site after a faster site already advanced the stream).
func (t *Tracker) deliverSkew(site int, r stream.Row) {
	if r.T < t.delivered {
		t.skewDropped.Inc()
		if t.sink != nil {
			t.sink.OnEvent(obs.Event{Kind: obs.EvSkewDrop, Site: site, T: r.T, N: 1})
		}
		return
	}
	t.deliver(site, r)
}

// ObserveBatch delivers rows[0:] in order to the given site and returns
// how many the protocol accepted. Stale rows are dropped and counted (in
// Metrics) without stopping the batch; the first structural error
// (ErrSiteRange, ErrDimension, ErrNonFinite) aborts and is returned, with
// accepted telling how far the batch got: the offending row and those
// after it are not delivered. Distinguish outcomes on single rows with
// errors.Is(err, ErrStale) against TryObserve — see the package example.
//
// Because no layer retains row values (see TryObserve), callers may reuse
// both the []Row slice and each row's V backing array across batches —
// fill, ObserveBatch, refill — without reallocating.
//
// On a parallel tracker (WithParallel) ObserveBatch is the fast ingestion
// path: the whole run is handed to the site's lane in ring blocks — one
// ring operation and one worker wakeup per block instead of per row — so
// feeders that can batch amortize nearly all pipeline overhead. As with
// parallel TryObserve, staleness is detected on the worker and counted in
// Metrics rather than reported here, so accepted counts the structurally
// valid rows. On a closed tracker it accepts nothing and returns
// ErrClosed.
func (t *Tracker) ObserveBatch(site int, rows []Row) (accepted int, err error) {
	t.gate.RLock()
	defer t.gate.RUnlock()
	if t.closed.Load() {
		return 0, ErrClosed
	}
	if t.pipe != nil {
		return t.observeBatchParallel(site, rows)
	}
	for _, r := range rows {
		if err := t.tryObserve1(site, r); err != nil {
			if errors.Is(err, ErrStale) {
				continue
			}
			return accepted, err
		}
		accepted++
	}
	return accepted, nil
}

// observeBatchParallel validates the run and enqueues it into the site's
// lane as ring blocks. On a structural error the valid prefix is still
// enqueued (matching the sequential path, which delivers rows up to the
// failure) and accepted reports its length.
func (t *Tracker) observeBatchParallel(site int, rows []Row) (accepted int, err error) {
	if site < 0 || site >= t.cfg.Sites {
		return 0, fmt.Errorf("%w: site %d not in [0,%d)", ErrSiteRange, site, t.cfg.Sites)
	}
	staged := t.batch[site][:0]
	for _, r := range rows {
		if err = t.checkRow(r); err != nil {
			break
		}
		staged = append(staged, stream.Row{T: r.T, V: r.V})
	}
	if len(staged) > 0 {
		t.pipe.EnqueueRows(site, staged)
	}
	accepted = len(staged)
	// The staging slice aliases the callers' value slices; the ring has
	// copied them, so drop the references before the next batch.
	clear(staged)
	t.batch[site] = staged[:0]
	return accepted, err
}

// FlushSkew releases every row still held in the reorder buffers (call at
// end of stream when MaxSkew is set). Rows are merged across sites and
// delivered in global timestamp order — ties broken by site index, so a
// flush is deterministic — and rows that fell behind the already-delivered
// stream are dropped and counted in Metrics().SkewDropped. Like Drain it
// then publishes a caught-up snapshot; on a parallel tracker it drains
// the pipeline, and feeders must be quiescent. On a closed tracker it
// does nothing.
func (t *Tracker) FlushSkew() {
	t.gate.Lock()
	defer t.gate.Unlock()
	if t.closed.Load() {
		return
	}
	if t.pipe == nil {
		t.flushSkewSeq()
	}
	t.catchUp(true)
}

// flushSkewSeq is FlushSkew's sequential merge; the caller holds the gate.
func (t *Tracker) flushSkewSeq() {
	type tagged struct {
		site int
		r    stream.Row
	}
	var all []tagged
	for site, b := range t.skew {
		for _, rr := range b.Flush() {
			all = append(all, tagged{site: site, r: rr})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].r.T != all[j].r.T {
			return all[i].r.T < all[j].r.T
		}
		return all[i].site < all[j].site
	})
	for _, x := range all {
		t.deliverSkew(x.site, x.r)
	}
}

// Advance moves the global clock forward without new data, processing
// expirations and any resulting protocol traffic. With MaxSkew set it also
// commits the clock: buffered rows older than now will be dropped when
// released. On a parallel tracker Advance broadcasts the new clock to
// every site's lane (feeders must be quiescent); the expiry work itself
// runs on the workers and is awaited by the next Drain or query. On a
// closed tracker it does nothing.
func (t *Tracker) Advance(now int64) {
	t.gate.RLock()
	defer t.gate.RUnlock()
	if t.closed.Load() {
		return
	}
	if t.pipe != nil {
		t.pipe.Advance(now)
		return
	}
	if now > t.maxT {
		t.maxT = now
	}
	if now > t.delivered {
		t.delivered = now
	}
	t.inner.AdvanceTime(now)
	if t.aud != nil {
		t.aud.Advance(now)
	}
}

// Sketch returns the coordinator's current covariance sketch B. The
// number of rows varies by protocol; the column count is always D.
//
// Sketch is an exact read: it briefly holds off ingest (waiting out
// in-flight calls) to publish a snapshot of the current state, then
// factors that snapshot outside the gate. On a parallel tracker the
// catch-up drains the pipeline first, so the sketch reflects every row
// previously handed to TryObserve; call it from the feeder side. A reader
// that must never block ingest uses Snapshot instead.
func (t *Tracker) Sketch() *mat.Dense {
	s := t.exactQuery()
	sp := t.tracer.StartDetached(trace.OpQuery, -1, s.deliveredAt)
	defer sp.End()
	return s.Sketch()
}

// SketchGram returns the coordinator's covariance estimate Ĉ ≈ A_wᵀA_w
// directly, when the protocol keeps one (the deterministic family: DA1,
// DA2, DA2-C and Decay; the sampling protocols keep rows, not a Gram).
// Sketch() factors the PSD-clipped Ĉ, an O(d³) step per query that
// evaluation loops can skip by comparing against Ĉ instead. It is an exact
// read with the same catch-up as Sketch.
func (t *Tracker) SketchGram() (*mat.Dense, bool) {
	if _, ok := t.snap.Load().coord.Gram(); !ok {
		return nil, false
	}
	s := t.exactQuery()
	sp := t.tracer.StartDetached(trace.OpQuery, -1, s.deliveredAt)
	defer sp.End()
	return s.SketchGram()
}

// clampT maps the "nothing delivered yet" watermark to 0 for event stamps.
func clampT(at int64) int64 {
	if at == math.MinInt64 {
		return 0
	}
	return at
}

// Stats returns the communication and space counters accumulated so far.
func (t *Tracker) Stats() Stats { return t.inner.Stats() }

// Name returns the protocol's display name.
func (t *Tracker) Name() string { return t.inner.Name() }

// Config returns the configuration the tracker was built with.
func (t *Tracker) Config() Config { return t.cfg }

// CovErr computes ‖refᵀref − bᵀb‖₂/‖ref‖_F² — the covariance error of
// sketch b against an explicitly materialized reference matrix. It is the
// metric of the paper's experiments; production users typically cannot
// afford the reference and rely on the protocols' guarantees instead.
func CovErr(ref, b *mat.Dense) float64 { return mat.CovErr(ref, b) }

// AggregateTracker tracks the sum of nonnegative item weights over the
// distributed sliding window (Algorithm 3) — COUNT when all weights are 1.
// It is the deterministic scalar special case (d = 1) of matrix tracking
// and also a reusable primitive in its own right.
type AggregateTracker struct {
	inner *core.SumTracker
	net   *protocol.Network
	sites int
	// lastT tracks each site's clock so stale observations are rejected
	// before they can corrupt the site's histogram.
	lastT []int64
}

// NewAggregate builds a SUM/COUNT tracker; only W, Eps and Sites of cfg
// are used. Validation failures are *ConfigError, as with New — the field
// constraints come from the same core-layer source of truth.
//
// Options share New's vocabulary, so the two constructors read the same;
// the scalar tracker honors WithSink (installed before the first
// observation, like New) and rejects the matrix-only options —
// WithParallel, WithTracing, WithAudit — with ErrOptionUnsupported
// instead of silently ignoring them.
func NewAggregate(cfg Config, opts ...Option) (*AggregateTracker, error) {
	o := buildOptions(opts)
	switch {
	case o.parallel:
		return nil, fmt.Errorf("%w: NewAggregate cannot run WithParallel (scalar updates have no site pipeline)", ErrOptionUnsupported)
	case o.tracing != nil:
		return nil, fmt.Errorf("%w: NewAggregate cannot run WithTracing", ErrOptionUnsupported)
	case o.audit != nil:
		return nil, fmt.Errorf("%w: NewAggregate cannot run WithAudit (the auditor shadows a matrix window)", ErrOptionUnsupported)
	}
	ccfg := core.Config{D: 1, W: cfg.W, Eps: cfg.Eps, Sites: cfg.Sites}
	if err := ccfg.Validate(); err != nil {
		return nil, wrapCoreConfigErr(err)
	}
	net := protocol.NewNetwork(cfg.Sites)
	inner, err := core.NewSumTracker(ccfg, net)
	if err != nil {
		return nil, err
	}
	lastT := make([]int64, cfg.Sites)
	for i := range lastT {
		lastT[i] = math.MinInt64
	}
	if o.haveSink {
		net.SetSink(o.sink)
		inner.SetSink(o.sink)
	}
	return &AggregateTracker{inner: inner, net: net, sites: cfg.Sites, lastT: lastT}, nil
}

// TryObserve records weight w at the given site and time, reporting
// delivery problems as errors: ErrSiteRange for a bad site index,
// ErrNonFinite for a NaN or ±Inf weight, ErrStale when now precedes an
// earlier observation at the same site (the weight is dropped; the
// tracker is unchanged). Each site's clock is independent —
// sites may run at different times.
func (t *AggregateTracker) TryObserve(site int, now int64, w float64) error {
	if site < 0 || site >= t.sites {
		return fmt.Errorf("%w: site %d not in [0,%d)", ErrSiteRange, site, t.sites)
	}
	if !mat.AllFinite(w) {
		return fmt.Errorf("%w: weight %v at t=%d", ErrNonFinite, w, now)
	}
	if now < t.lastT[site] {
		return fmt.Errorf("%w: t=%d after t=%d was observed at site %d", ErrStale, now, t.lastT[site], site)
	}
	t.lastT[site] = now
	t.inner.ObserveWeight(site, now, w)
	return nil
}

// Observe records weight w at the given site and time. It is TryObserve
// with the historical contract: a bad site index or a non-finite weight
// panics, stale observations are silently dropped.
func (t *AggregateTracker) Observe(site int, now int64, w float64) {
	if err := t.TryObserve(site, now, w); err != nil && !errors.Is(err, ErrStale) {
		panic(err)
	}
}

// Advance moves every site's clock forward; observations older than now
// are stale afterwards.
func (t *AggregateTracker) Advance(now int64) {
	for i := range t.lastT {
		if now > t.lastT[i] {
			t.lastT[i] = now
		}
	}
	t.inner.AdvanceAll(now)
}

// Estimate returns the coordinator's current window-sum estimate, within
// ε relative error of the truth.
func (t *AggregateTracker) Estimate() float64 { return t.inner.Estimate() }

// Stats returns the communication counters accumulated so far.
func (t *AggregateTracker) Stats() Stats { return t.net.Stats() }
