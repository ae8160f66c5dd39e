package core

import (
	"distwindow/internal/meh"
	"distwindow/internal/protocol"
	"distwindow/internal/stream"
)

// DA1 is the first deterministic protocol (Algorithm 4). Each site keeps a
// matrix exponential histogram over its local window, giving C ≈ A_w⁽ʲ⁾ᵀA_w⁽ʲ⁾
// and F̂² ≈ ‖A_w⁽ʲ⁾‖_F², plus the coordinator's view Ĉ⁽ʲ⁾. Whenever
// ‖C − Ĉ⁽ʲ⁾‖₂ > ε·F̂², the site eigendecomposes D = C − Ĉ⁽ʲ⁾ and ships every
// direction with |λᵢ| ≥ ε·F̂², updating both copies of Ĉ⁽ʲ⁾ (the reporter).
// The coordinator answers queries with the PSD square root of
// Ĉ = Σⱼ Ĉ⁽ʲ⁾ (the gramCoord).
//
// Communication is one-way (sites → coordinator), O(md/ε·log NR) words per
// window; per-site space is O(d/ε²·log NR + d²).
//
// The histogram keeps C as one d×d matrix in step with its buckets, so a
// row costs O(d²) to fold in (plus the histogram's amortized compaction),
// and a spectral test costs O(iters·d²), whatever the number of stored
// bucket rows.
type DA1 struct {
	*gramCoord
	cfg   Config
	sites []*da1Site
	now   int64
}

type da1Site struct {
	reporter
	hist  *meh.Histogram
	lastF float64
	now   int64
}

var _ protocol.OneWay = (*DA1)(nil)

// NewDA1 builds the protocol over cfg.Sites sites reporting to net.
func NewDA1(cfg Config, net *protocol.Network) (*DA1, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t := &DA1{gramCoord: newGramCoord(cfg, net), cfg: cfg, sites: make([]*da1Site, cfg.Sites)}
	for i := range t.sites {
		// Run the mEH at ε/2 so structure error plus reporting slack stay
		// within O(ε) overall.
		t.sites[i] = &da1Site{reporter: newReporter(cfg, net, i), hist: meh.New(cfg.W, cfg.D, cfg.Eps/2)}
	}
	return t, nil
}

// Name returns "DA1".
func (t *DA1) Name() string { return "DA1" }

// Observe feeds a row into the site's histogram and applies the amortized
// reporting rule, folding any resulting directions into Ĉ inline.
func (t *DA1) Observe(site int, r stream.Row) {
	t.now = r.T
	t.ObserveSite(site, r, t.applyInline)
}

// ObserveSite is the site-local half of Observe: it runs the histogram
// update and the reporting rule for one site and emits the directions that
// would have been shipped, leaving the coordinator state untouched. Calls
// for distinct sites may run concurrently; calls for one site must be
// serialized with non-decreasing timestamps.
func (t *DA1) ObserveSite(site int, r stream.Row, emit protocol.Emit) {
	s := t.sites[site]
	s.now = r.T
	s.hist.Add(r.T, r.V)
	added := r.NormSq()
	est := s.hist.FrobSqEstimate()
	expired := s.lastF + added - est
	if expired < 0 {
		expired = 0
	}
	s.churn += added + expired
	s.lastF = est
	s.report(est, s.hist.GramView(), emit)
	t.net.SampleSiteSpace(int64(t.cfg.D*t.cfg.D) + int64(s.hist.SpaceWords()))
	t.net.SampleCoordSpace(int64(t.cfg.D * t.cfg.D))
}

// AdvanceTime expires window content at every site and re-tests sites
// whose mass moved.
func (t *DA1) AdvanceTime(now int64) {
	if now <= t.now {
		return
	}
	t.now = now
	for i := range t.sites {
		t.AdvanceSite(i, now, t.applyInline)
	}
}

// AdvanceSite is the site-local half of AdvanceTime for one site.
func (t *DA1) AdvanceSite(site int, now int64, emit protocol.Emit) {
	s := t.sites[site]
	if now <= s.now {
		return
	}
	s.now = now
	s.hist.Advance(now)
	est := s.hist.FrobSqEstimate()
	if d := s.lastF - est; d > 0 {
		s.churn += d
	}
	s.lastF = est
	s.report(est, s.hist.GramView(), emit)
}
