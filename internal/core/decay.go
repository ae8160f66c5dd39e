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
// paper's introduction cites alongside sliding windows. It extends DA1's
// reporting template: each site maintains its exact decayed Gram C and the
// coordinator's replica Ĉ⁽ʲ⁾ and ships significant eigendirections of the
// difference whenever ‖C − Ĉ⁽ʲ⁾‖₂ > ε·F(t), where F(t) is the decayed
// Frobenius mass.
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
	chat  *mat.Dense
	// chatT is the timestamp Ĉ is currently decayed to.
	chatT int64
	now   int64
	// applyInline folds an emitted update into chat after decaying it to
	// inlineT (the row being processed) — the sequential path's emit.
	applyInline protocol.Emit
	inlineT     int64
}

type decaySite struct {
	// idx is the site's index, for per-site communication attribution.
	idx   int
	c     *mat.Dense
	chat  *mat.Dense
	frob  float64 // decayed Frobenius mass, same clock as c
	t     int64   // timestamp c/chat/frob are decayed to
	churn float64 // new mass since the last spectral test
	// pv is the warm-start vector for the spectral trigger test; mv is the
	// Ĉ·x scratch; diff holds C − Ĉ during a report; ws is the site's
	// persistent decomposition/power-iteration workspace. All preallocated
	// so the amortized test allocates nothing.
	pv      []float64
	mv      []float64
	applyOp func(x, y []float64)
	diff    *mat.Dense
	ws      *mat.Workspace
}

var _ protocol.OneWay = (*DecayTracker)(nil)

// NewDecay builds a decayed-covariance tracker; gamma is the per-tick
// decay factor (e.g. 0.999 ≈ half-life of 693 ticks). Cfg.W is ignored.
func NewDecay(cfg Config, gamma float64, net *protocol.Network) (*DecayTracker, error) {
	if err := cfg.validate(); err != nil {
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
		s := &decaySite{
			idx:  i,
			c:    mat.NewDense(cfg.D, cfg.D),
			chat: mat.NewDense(cfg.D, cfg.D),
			pv:   make([]float64, cfg.D),
			mv:   make([]float64, cfg.D),
			diff: mat.NewDense(cfg.D, cfg.D),
			ws:   mat.NewWorkspace(),
		}
		s.applyOp = func(x, y []float64) {
			mat.MulVecInto(y, s.c, x)
			mat.MulVecInto(s.mv, s.chat, x)
			for j := range y {
				y[j] -= s.mv[j]
			}
		}
		t.sites[i] = s
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
	t.maybeReport(s, r.T, emit)
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

// AdvanceCoord decays Ĉ to now. Callers must guarantee no later Apply
// carries an emission time before now (the pipeline uses its minimum lane
// progress, a safe lower bound).
func (t *DecayTracker) AdvanceCoord(now int64) {
	if now > t.now {
		t.now = now
	}
	t.decayChatTo(now)
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

func (t *DecayTracker) maybeReport(s *decaySite, now int64, emit protocol.Emit) {
	if s.frob <= 0 {
		return
	}
	if s.churn < t.cfg.Eps/4*s.frob {
		return
	}
	s.churn = 0
	norm := mat.OpSymNormWarmWS(t.cfg.D, s.pv, 8, s.applyOp, s.ws)
	if norm <= t.cfg.Eps*s.frob {
		return
	}
	s.diff.CopyFrom(s.c)
	mat.SubInPlace(s.diff, s.chat)
	eig := mat.EigSymInto(s.diff, s.ws)
	cutoff := t.cfg.Eps * s.frob
	sent := 0
	send := func(i int) {
		lam := eig.Values[i]
		// Copy the direction out of the site workspace: the parallel
		// pipeline retains emitted slices until the coordinator applies
		// them, by which time the workspace may have been reused.
		v := append([]float64(nil), eig.Vectors.Row(i)...)
		t.net.UpFrom(s.idx, protocol.DirectionWords(t.cfg.D))
		mat.OuterAdd(s.chat, v, lam)
		emit(lam, v)
		sent++
	}
	for i, lam := range eig.Values {
		if lam != 0 && math.Abs(lam) >= cutoff {
			send(i)
		}
	}
	if sent == 0 {
		best, bl := -1, 0.0
		for i, lam := range eig.Values {
			if a := math.Abs(lam); a > bl {
				best, bl = i, a
			}
		}
		if best >= 0 && bl > 0 {
			send(best)
		}
	}
}

// decayChatTo brings the coordinator's Ĉ to the given timestamp.
func (t *DecayTracker) decayChatTo(now int64) {
	if now <= t.chatT {
		return
	}
	mat.ScaleInPlace(t.chat, math.Pow(t.gamma, float64(now-t.chatT)))
	t.chatT = now
}

// Sketch returns B with BᵀB ≈ C(now), decayed to the tracker's clock.
func (t *DecayTracker) Sketch() *mat.Dense {
	t.decayChatTo(t.now)
	return mat.PSDSqrt(t.chat)
}

// SketchGram returns a copy of the decayed Ĉ ≈ C(now).
func (t *DecayTracker) SketchGram() *mat.Dense {
	t.decayChatTo(t.now)
	return t.chat.Clone()
}

// Stats returns accumulated counters.
func (t *DecayTracker) Stats() protocol.Stats { return t.net.Stats() }
