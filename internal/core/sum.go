package core

import (
	"distwindow/internal/eh"
	"distwindow/internal/protocol"
)

// SumTracker is the deterministic SUM tracking protocol of Algorithm 3: a
// special case of matrix tracking with d = 1 (and, with unit weights, the
// COUNT tracking of Cormode–Yi). Each site keeps a gEH estimate C of its
// local window sum and the coordinator's view Ĉ; whenever |C − Ĉ| > εC it
// ships the difference. Communication is O(m/ε·log NR) words per window
// and space O(1/ε·log NR) words per site.
//
// The sampling protocols embed a SumTracker to track ‖A_w‖_F² for the ES
// estimator; it is also exported through the facade as a standalone
// aggregate tracker.
type SumTracker struct {
	cfg   Config
	net   *protocol.Network
	sites []*sumSite
	// est is the coordinator's estimate Σⱼ Ĉ⁽ʲ⁾.
	est float64
	// applyInline folds an emitted delta straight into est — the
	// in-process path's emit, allocated once.
	applyInline protocol.Emit
}

type sumSite struct {
	hist *eh.Histogram
	// chat is Ĉ⁽ʲ⁾, the coordinator's view of this site (the site tracks
	// it too — it changes only when the site itself sends an update).
	chat float64
	now  int64
	// checked is the histogram version at the last reporting check; while
	// it is unchanged the site's C cannot have moved, so the check is
	// skipped.
	checked uint64
}

// NewSumTracker returns a SUM tracker over cfg.Sites sites reporting to
// net. Weights are supplied per observation (use ‖row‖² for Frobenius
// tracking, 1 for COUNT).
func NewSumTracker(cfg Config, net *protocol.Network) (*SumTracker, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	t := &SumTracker{cfg: cfg, net: net}
	t.applyInline = func(delta float64, _ []float64) { t.est += delta }
	t.sites = make([]*sumSite, cfg.Sites)
	for i := range t.sites {
		// The gEH runs at ε/2 so histogram error plus reporting slack stay
		// within ε overall (the paper's "adjust ε by a constant factor").
		t.sites[i] = &sumSite{hist: eh.New(cfg.W, cfg.Eps/2)}
	}
	return t, nil
}

// ObserveWeight feeds a weight observed at the given site and time,
// folding any resulting delta into the estimate inline.
func (t *SumTracker) ObserveWeight(site int, now int64, w float64) {
	t.ObserveSite(site, now, w, t.applyInline)
}

// ObserveSite is the site-local half of ObserveWeight: gEH upkeep and the
// reporting rule for one site, with the delta the site ships emitted as
// emit(delta, nil) instead of applied. Calls for one site must be
// serialized with non-decreasing timestamps.
func (t *SumTracker) ObserveSite(site int, now int64, w float64, emit protocol.Emit) {
	s := t.sites[site]
	s.now = now
	if w > 0 {
		s.hist.Insert(now, w)
	} else {
		s.hist.Advance(now)
	}
	t.check(site, emit)
}

// AdvanceSite moves one site's clock forward (expirations only), emitting
// the delta it ships, if any.
func (t *SumTracker) AdvanceSite(site int, now int64, emit protocol.Emit) {
	s := t.sites[site]
	if now <= s.now {
		return
	}
	s.now = now
	s.hist.Advance(now)
	t.check(site, emit)
}

// AdvanceAll moves every site's clock forward, folding deltas inline.
func (t *SumTracker) AdvanceAll(now int64) {
	for i := range t.sites {
		t.AdvanceSite(i, now, t.applyInline)
	}
}

// check applies the reporting rule |C − Ĉ| > εC.
func (t *SumTracker) check(site int, emit protocol.Emit) {
	s := t.sites[site]
	if v := s.hist.Version(); v == s.checked {
		return
	} else {
		s.checked = v
	}
	c := s.hist.Query()
	d := c - s.chat
	if abs(d) > t.cfg.Eps*c {
		t.net.UpFrom(site, protocol.ScalarWords)
		s.chat = c
		emit(d, nil)
	}
	t.net.SampleSiteSpace(int64(s.hist.Buckets()) * 3)
}

// Estimate returns the coordinator's current estimate of the window sum.
func (t *SumTracker) Estimate() float64 { return t.est }

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
