package wire

import (
	"fmt"

	"distwindow/internal/core"
	"distwindow/internal/protocol"
	"distwindow/internal/stream"
	"distwindow/internal/trace"
	"distwindow/mat"
)

// sendTraced stamps the current span's context onto m and pushes it: the
// shared send path of every networked site. A send during a traced
// Observe becomes a child "send" span whose context rides in the frame;
// with no tracer (or an unsampled row) the message goes out untraced at
// the cost of one nil-check.
func sendTraced(tr *trace.Tracer, out Sender, m Msg) error {
	sp := tr.Child(trace.OpSend, m.Site, m.T)
	if sp.Sampled() {
		ctx := sp.Context()
		m.Trace, m.Span = ctx.Trace, ctx.Span
	}
	err := out.Send(m)
	sp.End()
	return err
}

// SiteConfig parameterizes a networked site.
type SiteConfig struct {
	// ID is the site's identifier in messages.
	ID int
	// D is the row dimension.
	D int
	// W is the window length in ticks.
	W int64
	// Eps is the local covariance-error budget; with m sites each running
	// at ε, the coordinator's global error is ε by the triangle
	// inequality (§III-B).
	Eps float64
}

// newCore builds (or restores) the one-site core tracker a networked site
// drives. The site's parameters are validated by core.Config.Validate —
// the single source of parameter validation — before build runs.
func newCore[T any](cfg SiteConfig, build func(core.Config, *protocol.Network) (T, error)) (T, error) {
	cc := core.Config{D: cfg.D, W: cfg.W, Eps: cfg.Eps, Sites: 1}
	if err := cc.Validate(); err != nil {
		var zero T
		return zero, fmt.Errorf("wire: site %d: %w", cfg.ID, err)
	}
	return build(cc, protocol.NewNetwork(1))
}

// driver is what every networked site shares. The protocol itself runs in
// a one-site internal/core tracker — the same site code the in-process
// trackers run — and the driver maps each update the tracker emits onto
// one frame. Sites are one-way: they only ever call Sender.Send.
type driver struct {
	cfg SiteConfig
	out Sender
	tr  *trace.Tracer
	// emit is the core-facing callback (direction or sum), bound once.
	emit protocol.Emit
	// t is the time of the row or advance being processed, stamped on
	// every frame the step emits; err is the step's first Send error.
	t   int64
	err error
}

// direction maps a matrix update Scale·VVᵀ onto a direction frame: Kind
// carries the sign, and Delta the scale itself when it is not ±1 (DA1's
// eigenvalues), so the coordinator applies exactly OuterAdd(Ĉ, V, Scale),
// the arithmetic of core's Apply.
func (d *driver) direction(scale float64, v []float64) {
	m := Msg{Kind: DirectionAdd, V: v}
	if scale < 0 {
		m.Kind = DirectionRemove
	}
	if scale != 1 && scale != -1 {
		m.Delta = scale
	}
	d.send(m)
}

// sum maps a SUM site's delta onto a SumDelta frame.
func (d *driver) sum(delta float64, _ []float64) { d.send(Msg{Kind: SumDelta, Delta: delta}) }

func (d *driver) send(m Msg) {
	m.Site, m.T = d.cfg.ID, d.t
	if err := sendTraced(d.tr, d.out, m); err != nil && d.err == nil {
		d.err = err
	}
}

// begin opens a step at time t; d.err then holds the step's first Send
// error. Every emitted update is still sent after a failure, because the
// core site has already folded it into its replica.
func (d *driver) begin(t int64) { d.t, d.err = t, nil }

// checkRow refuses a row with a NaN or ±Inf value before it reaches the
// site state.
func (d *driver) checkRow(t int64, v ...float64) error {
	if !mat.AllFinite(v...) {
		return fmt.Errorf("wire: site %d: non-finite value in row at t=%d", d.cfg.ID, t)
	}
	return nil
}

// matrixCore is the site half of a one-way matrix protocol in core
// (core.DA1, core.DA2).
type matrixCore interface {
	ObserveSite(site int, r stream.Row, emit protocol.Emit)
	AdvanceSite(site int, now int64, emit protocol.Emit)
	SetSiteTracer(site int, tr *trace.Tracer, label int)
}

// matrixSite drives a one-site DA1 or DA2 tracker.
type matrixSite struct {
	driver
	site matrixCore
}

func newMatrixSite(cfg SiteConfig, out Sender, site matrixCore) matrixSite {
	return matrixSite{driver: driver{cfg: cfg, out: out}, site: site}
}

// SetTracer installs a causal tracer: each Observe becomes a (sampled)
// root "ingest" span, sends become child spans whose context rides in
// the outgoing frames, and the site's histogram records its bucket
// lifecycle as instants labelled with the site's ID. The site owns the
// tracer — sites run one goroutine each, so give every site its own
// Tracer over a shared Ring. Install before feeding data; nil disables.
func (s *matrixSite) SetTracer(tr *trace.Tracer) {
	s.tr = tr
	s.site.SetSiteTracer(0, tr, s.cfg.ID)
}

// Observe feeds one local row; timestamps must be non-decreasing. A row
// with a NaN or ±Inf value is refused with an error and changes nothing.
func (s *matrixSite) Observe(t int64, v []float64) error {
	if err := s.checkRow(t, v...); err != nil {
		return err
	}
	sp := s.tr.Start(trace.OpIngest, s.cfg.ID, t)
	defer sp.End()
	s.begin(t)
	s.site.ObserveSite(0, stream.Row{T: t, V: v}, s.emit)
	return s.err
}

// Advance moves the site's clock without new data.
func (s *matrixSite) Advance(t int64) error {
	s.begin(t)
	s.site.AdvanceSite(0, t, s.emit)
	return s.err
}

// DA1Site is the networked DA1 site (core.DA1's site half): an mEH plus a
// replica of the coordinator's Ĉ⁽ʲ⁾, shipping significant eigendirections
// on trigger.
type DA1Site struct {
	matrixSite
	core *core.DA1
}

// NewDA1Site returns a site pushing to out.
func NewDA1Site(cfg SiteConfig, out Sender) (*DA1Site, error) {
	t, err := newCore(cfg, core.NewDA1)
	if err != nil {
		return nil, err
	}
	return newDA1Site(cfg, out, t), nil
}

func newDA1Site(cfg SiteConfig, out Sender, t *core.DA1) *DA1Site {
	s := &DA1Site{matrixSite: newMatrixSite(cfg, out, t), core: t}
	s.emit = s.direction
	return s
}

// DA2Site is the networked DA2 site (core.DA2's site half): IWMT forward
// tracking of arrivals plus backward tracking of the closed window's
// ledger — exact subtraction of each ledger message as it expires (ledger
// replay, NewDA2Site), or the compressed DA2-C variant (NewDA2CSite).
type DA2Site struct {
	matrixSite
	core *core.DA2
}

// NewDA2Site returns a ledger-replay site pushing to out.
func NewDA2Site(cfg SiteConfig, out Sender) (*DA2Site, error) {
	return buildDA2Site(cfg, out, core.NewDA2)
}

// NewDA2CSite returns a compressed (DA2-C) site pushing to out.
func NewDA2CSite(cfg SiteConfig, out Sender) (*DA2Site, error) {
	return buildDA2Site(cfg, out, core.NewDA2C)
}

func buildDA2Site(cfg SiteConfig, out Sender, build func(core.Config, *protocol.Network) (*core.DA2, error)) (*DA2Site, error) {
	t, err := newCore(cfg, build)
	if err != nil {
		return nil, err
	}
	return newDA2Site(cfg, out, t), nil
}

func newDA2Site(cfg SiteConfig, out Sender, t *core.DA2) *DA2Site {
	s := &DA2Site{matrixSite: newMatrixSite(cfg, out, t), core: t}
	s.emit = s.direction
	return s
}

// SumSite is the networked Algorithm-3 site (core.SumTracker's site half).
type SumSite struct {
	driver
	core *core.SumTracker
}

// NewSumSite returns a site pushing scalar deltas to out.
func NewSumSite(cfg SiteConfig, out Sender) (*SumSite, error) {
	cfg.D = 1
	t, err := newCore(cfg, core.NewSumTracker)
	if err != nil {
		return nil, err
	}
	return newSumSite(cfg, out, t), nil
}

func newSumSite(cfg SiteConfig, out Sender, t *core.SumTracker) *SumSite {
	s := &SumSite{driver: driver{cfg: cfg, out: out}, core: t}
	s.emit = s.sum
	return s
}

// SetTracer installs a causal tracer (see DA1Site.SetTracer). Install
// before feeding data; nil disables.
func (s *SumSite) SetTracer(tr *trace.Tracer) {
	s.tr = tr
	s.core.SetSiteTracer(0, tr, s.cfg.ID)
}

// Observe records a positive weight (a non-positive one only advances the
// clock). A NaN or ±Inf weight is refused with an error.
func (s *SumSite) Observe(t int64, w float64) error {
	if err := s.checkRow(t, w); err != nil {
		return err
	}
	sp := s.tr.Start(trace.OpIngest, s.cfg.ID, t)
	defer sp.End()
	s.begin(t)
	s.core.ObserveSite(0, t, w, s.emit)
	return s.err
}

// Advance moves the clock without new data.
func (s *SumSite) Advance(t int64) error {
	s.begin(t)
	s.core.AdvanceSite(0, t, s.emit)
	return s.err
}
