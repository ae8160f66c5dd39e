package core

import (
	"fmt"
	"math"

	"distwindow/internal/protocol"
	"distwindow/internal/stream"
	"distwindow/mat"
)

// DecayTracker tracks the exponentially time-decayed covariance
//
//	C(t) = Σᵢ γ^(t−tᵢ) · aᵢᵀaᵢ
//
// over distributed streams — the other prominent time-decay model the
// paper's introduction cites alongside sliding windows. Its sites run
// DA1's reporting step (the reporter) on their exact decayed Gram C and
// decayed Frobenius mass F(t): each ships the significant eigendirections
// of C − Ĉ⁽ʲ⁾ whenever ‖C − Ĉ⁽ʲ⁾‖₂ > ε·F(t).
//
// The decisive property making this cheap is that decay is deterministic:
// both replicas of Ĉ⁽ʲ⁾ shrink by the same γ^Δt without any communication,
// so the only traffic is new-mass drift — there is no expiry traffic at
// all. Communication is O(md/ε·log(1/γ · R)) words per half-life.
//
// Exponential decay admits exact O(d²) state per site (no histogram
// needed): this tracker is exact up to the reporting threshold.
type DecayTracker struct {
	cfg Config
	// gamma is the per-tick decay factor in (0, 1).
	gamma float64
	net   *protocol.Network
	sites []*decaySite
	// chat is Ĉ, decayed to chatT, the emission time of the last applied
	// update. Only applies write it; reads decay a copy (decayedChat).
	chat  *mat.Dense
	chatT int64
	// now is the sequential clock (Observe/AdvanceTime), the time Sketch
	// reads at.
	now int64
	// applyInline folds an emitted update into chat after decaying it to
	// inlineT (the row being processed) — the sequential path's emit.
	applyInline protocol.Emit
	inlineT     int64
}

type decaySite struct {
	reporter
	c    *mat.Dense
	frob float64 // decayed Frobenius mass, same clock as c
	t    int64   // timestamp c/chat/frob are decayed to
}

var _ protocol.OneWay = (*DecayTracker)(nil)

// NewDecay builds a decayed-covariance tracker; gamma is the per-tick
// decay factor (e.g. 0.999 ≈ half-life of 693 ticks). Cfg.W is ignored.
func NewDecay(cfg Config, gamma float64, net *protocol.Network) (*DecayTracker, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if gamma <= 0 || gamma >= 1 {
		return nil, fmt.Errorf("core: decay gamma = %v, want in (0,1)", gamma)
	}
	t := &DecayTracker{cfg: cfg, gamma: gamma, net: net, chat: mat.NewDense(cfg.D, cfg.D)}
	t.applyInline = func(scale float64, v []float64) {
		t.decayChatTo(t.inlineT)
		mat.OuterAdd(t.chat, v, scale)
	}
	t.sites = make([]*decaySite, cfg.Sites)
	for i := range t.sites {
		t.sites[i] = &decaySite{reporter: newReporter(cfg, net, i), c: mat.NewDense(cfg.D, cfg.D)}
	}
	return t, nil
}

// Name returns "DECAY".
func (t *DecayTracker) Name() string { return "DECAY" }

// Observe feeds one row, folding any report into Ĉ inline.
func (t *DecayTracker) Observe(site int, r stream.Row) {
	t.now = r.T
	t.inlineT = r.T
	t.ObserveSite(site, r, t.applyInline)
}

// ObserveSite is the site-local half of Observe: decays the site's state
// to r.T, adds the row, and emits report directions instead of applying
// them. Calls for distinct sites may run concurrently; calls for one site
// must be serialized with non-decreasing timestamps.
func (t *DecayTracker) ObserveSite(site int, r stream.Row, emit protocol.Emit) {
	s := t.sites[site]
	s.decayTo(r.T, t.gamma)
	w := r.NormSq()
	if w > 0 {
		mat.OuterAdd(s.c, r.V, 1)
		s.frob += w
		s.churn += w
	}
	s.report(s.frob, s.c, emit)
	t.net.SampleSiteSpace(int64(2 * t.cfg.D * t.cfg.D))
	t.net.SampleCoordSpace(int64(t.cfg.D * t.cfg.D))
}

// AdvanceTime decays every site's clock forward; no traffic results
// (decay is deterministic on both ends).
func (t *DecayTracker) AdvanceTime(now int64) {
	if now <= t.now {
		return
	}
	t.now = now
	for i := range t.sites {
		t.AdvanceSite(i, now, t.applyInline)
	}
}

// AdvanceSite decays one site's clock forward; it never emits.
func (t *DecayTracker) AdvanceSite(site int, now int64, emit protocol.Emit) {
	t.sites[site].decayTo(now, t.gamma)
}

// Apply decays Ĉ to the update's emission time and folds it in. The
// (T, site) apply order makes the emission times non-decreasing, so the
// coordinator's clock only moves forward.
func (t *DecayTracker) Apply(u protocol.Update) {
	t.decayChatTo(u.T)
	mat.OuterAdd(t.chat, u.V, u.Scale)
}

func (s *decaySite) decayTo(now int64, gamma float64) {
	if now <= s.t {
		return
	}
	f := math.Pow(gamma, float64(now-s.t))
	mat.ScaleInPlace(s.c, f)
	mat.ScaleInPlace(s.chat, f)
	s.frob *= f
	s.churn *= f
	s.t = now
}

// decayChatTo brings the coordinator's Ĉ to the given timestamp.
func (t *DecayTracker) decayChatTo(now int64) {
	if now <= t.chatT {
		return
	}
	mat.ScaleInPlace(t.chat, math.Pow(t.gamma, float64(now-t.chatT)))
	t.chatT = now
}

// decayedChat returns a copy of Ĉ decayed from the last applied update's
// time to at, leaving the live Ĉ as it is.
func (t *DecayTracker) decayedChat(at int64) *mat.Dense {
	c := t.chat.Clone()
	if at > t.chatT {
		mat.ScaleInPlace(c, math.Pow(t.gamma, float64(at-t.chatT)))
	}
	return c
}

// Sketch returns B with BᵀB ≈ C(now), decayed to the tracker's clock.
func (t *DecayTracker) Sketch() *mat.Dense { return mat.PSDSqrt(t.decayedChat(t.now)) }

// Stats returns accumulated counters.
func (t *DecayTracker) Stats() protocol.Stats { return t.net.Stats() }
