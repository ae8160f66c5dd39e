package core

import (
	"math"

	"distwindow/internal/eh"
	"distwindow/internal/iwmt"
	"distwindow/internal/protocol"
	"distwindow/internal/stream"
	"distwindow/mat"
)

// DA2 is the second deterministic protocol (Algorithm 5), built on the
// forward–backward framework with IWMT as a black box. Time is divided
// into windows (kW, (k+1)W]. Each site runs:
//
//   - IWMT_a: forward-tracks arrivals, emitting significant directions
//     that the coordinator adds to Ĉ (flag +1). At every window boundary
//     the instance is flushed and reset so no residue crosses windows.
//   - Backward tracking: every message sent during window k is recorded in
//     a ledger; when a ledger message expires (its timestamp leaves the
//     window) the site ships it with flag −1 and the coordinator subtracts
//     it. Because exactly the rows that were added are later removed, no
//     approximation residue accumulates across windows.
//   - Optionally (Compress=true, "DA2-C"): the ledger of a closed window
//     is first re-sketched in reverse time order through IWMT_c (threshold
//     growing with the mass seen, exactly the paper's ε·‖Â_e(tᵢ+W)‖_F²
//     rule), and the resulting queue Q is forward-tracked by IWMT_e as its
//     entries expire. This batches expiry traffic; at drain time the site
//     ships the small PSD residual the two FD re-sketches shaved off, so
//     cancellation is restored before the next window.
//
// All communication is one-way (sites → coordinator), O(md/ε·log NR)
// words per window. The site never materializes its window: it stores the
// ledger (O(d/ε·log NR) words), a gEH for ‖A_w⁽ʲ⁾‖_F², and the IWMT
// buffers.
type DA2 struct {
	cfg      Config
	net      *protocol.Network
	compress bool
	sites    []*da2Site
	chat     *mat.Dense
	now      int64
	// applyInline folds an emitted update straight into chat — the
	// sequential path's emit, allocated once.
	applyInline protocol.Emit
}

type da2Site struct {
	parent *DA2
	// idx is the site's index, for per-site communication attribution.
	idx int
	// a is IWMT_a; ledger records every emitted message of the current
	// window for backward tracking.
	a      *iwmt.Tracker
	ledger []iwmt.Msg
	// q is the expiry queue of the previous window (ascending timestamps).
	q []iwmt.Msg
	// e is IWMT_e (compress mode only); resid accumulates what was added
	// for the previous window minus what has been subtracted so far; ws is
	// the persistent workspace for the residual eigendecompositions, built
	// on the first drain that has a residual to ship.
	e     *iwmt.Tracker
	resid *mat.Dense
	ws    *mat.Workspace
	// mass tracks the site's window Frobenius mass (gEH).
	mass *eh.Histogram
	// boundary is the end of the current window, the next multiple of W.
	boundary int64
	now      int64
}

var _ protocol.OneWay = (*DA2)(nil)

// NewDA2 builds the default (ledger-replay) DA2.
func NewDA2(cfg Config, net *protocol.Network) (*DA2, error) {
	return newDA2(cfg, net, false)
}

// NewDA2C builds the compressed variant that re-sketches expiry traffic
// through IWMT_c/IWMT_e as in the paper's Algorithm 5.
func NewDA2C(cfg Config, net *protocol.Network) (*DA2, error) {
	return newDA2(cfg, net, true)
}

func newDA2(cfg Config, net *protocol.Network, compress bool) (*DA2, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	t := &DA2{cfg: cfg, net: net, compress: compress, chat: mat.NewDense(cfg.D, cfg.D)}
	t.applyInline = func(scale float64, v []float64) { mat.OuterAdd(t.chat, v, scale) }
	t.sites = make([]*da2Site, cfg.Sites)
	for i := range t.sites {
		s := &da2Site{parent: t, idx: i, mass: eh.New(cfg.W, cfg.Eps/2), boundary: cfg.W}
		s.a = iwmt.New(t.fdEll(), cfg.D, func() float64 { return cfg.Eps * s.mass.Query() })
		t.sites[i] = s
	}
	return t, nil
}

// fdEll is the FD buffer size for the IWMT instances: ⌈1/ε⌉ keeps the
// sketch-drift term at ε·F².
func (t *DA2) fdEll() int { return int(math.Ceil(1 / t.cfg.Eps)) }

// Name returns "DA2" or "DA2-C".
func (t *DA2) Name() string {
	if t.compress {
		return "DA2-C"
	}
	return "DA2"
}

// Observe feeds a row to a site, folding its messages into Ĉ inline.
func (t *DA2) Observe(site int, r stream.Row) {
	t.now = r.T
	t.ObserveSite(site, r, t.applyInline)
}

// ObserveSite is the site-local half of Observe: boundary crossings,
// expiry, gEH and IWMT upkeep for one site, with the resulting (±)
// messages emitted instead of applied. Calls for distinct sites may run
// concurrently; calls for one site must be serialized with non-decreasing
// timestamps.
func (t *DA2) ObserveSite(site int, r stream.Row, emit protocol.Emit) {
	s := t.sites[site]
	s.advance(r.T, emit)
	if w := r.NormSq(); w > 0 {
		s.mass.Insert(r.T, w)
		for _, m := range s.a.Input(r.T, r.V) {
			t.sendA(s, m, emit)
		}
	}
	t.net.SampleSiteSpace(s.spaceWords(t.cfg.D))
	t.net.SampleCoordSpace(int64(t.cfg.D * t.cfg.D))
}

// AdvanceTime moves every site's clock forward.
func (t *DA2) AdvanceTime(now int64) {
	if now <= t.now {
		return
	}
	t.now = now
	for i := range t.sites {
		t.AdvanceSite(i, now, t.applyInline)
	}
}

// AdvanceSite is the site-local half of AdvanceTime for one site.
func (t *DA2) AdvanceSite(site int, now int64, emit protocol.Emit) {
	t.sites[site].advance(now, emit)
}

// Apply folds one emitted (±) message into the coordinator's Ĉ. Single
// goroutine, non-decreasing (T, site) order.
func (t *DA2) Apply(u protocol.Update) { mat.OuterAdd(t.chat, u.V, u.Scale) }

// AdvanceCoord is a no-op: DA2's coordinator state is clock-free (expiry
// is driven by the sites' backward tracking).
func (t *DA2) AdvanceCoord(now int64) {}

// sendA ships a (+) message and records it in the ledger.
func (t *DA2) sendA(s *da2Site, m iwmt.Msg, emit protocol.Emit) {
	t.net.UpFrom(s.idx, protocol.DirectionWords(t.cfg.D))
	emit(1, m.V)
	s.ledger = append(s.ledger, m)
}

// sendE ships a (−) message. In compress mode the site nets it against the
// residual of the window currently draining.
func (t *DA2) sendE(s *da2Site, v []float64, emit protocol.Emit) {
	t.net.UpFrom(s.idx, protocol.DirectionWords(t.cfg.D))
	emit(-1, v)
	if s.resid != nil {
		mat.OuterAdd(s.resid, v, -1)
	}
}

// advance processes boundary crossings and expirations at one site.
func (s *da2Site) advance(now int64, emit protocol.Emit) {
	if now <= s.now && now < s.boundary {
		s.processExpiry(now, emit)
		return
	}
	s.now = now
	s.mass.Advance(now)
	t := s.parent
	for now >= s.boundary {
		b := s.boundary
		// Everything from the closing window that must eventually be
		// subtracted expires by b+W; drain the old queue first.
		s.processExpiry(b, emit)
		// Flush IWMT_a so the ledger covers the whole closed window.
		for _, m := range s.a.Flush(b) {
			t.sendA(s, m, emit)
		}
		s.startBackward(b, emit)
		s.boundary += t.cfg.W
	}
	s.processExpiry(now, emit)
}

// startBackward converts the closed window's ledger into the expiry queue.
func (s *da2Site) startBackward(b int64, emit protocol.Emit) {
	t := s.parent
	if s.e != nil {
		// Defensive: the previous queue drains by its own boundary (every
		// entry's timestamp is at least W old by then), so processExpiry(b)
		// above already flushed IWMT_e and the residual.
		for _, out := range s.e.Flush(b) {
			t.sendE(s, out.V, emit)
		}
		s.e = nil
		s.drainResidual(emit)
	}
	if len(s.ledger) == 0 {
		s.q = nil
		return
	}
	if !t.compress {
		// Ledger replay: the ledger is already in ascending time order.
		s.q = s.ledger
		s.ledger = nil
		return
	}
	// Compress mode: replay the ledger in reverse through IWMT_c with the
	// paper's growing threshold ε·(mass seen so far in reverse).
	var seen float64
	c := iwmt.New(t.fdEll(), t.cfg.D, func() float64 { return t.cfg.Eps * seen })
	var q []iwmt.Msg
	for i := len(s.ledger) - 1; i >= 0; i-- {
		m := s.ledger[i]
		seen += mat.VecNormSq(m.V)
		q = append(q, c.Input(m.T, m.V)...)
	}
	q = append(q, c.Flush(s.ledger[0].T)...)
	// IWMT_c emitted in descending time; expiry consumes ascending.
	for l, r := 0, len(q)-1; l < r; l, r = l+1, r-1 {
		q[l], q[r] = q[r], q[l]
	}
	s.q = q
	// The residual for this window starts at the Gram of everything that
	// was added for it (the ledger); each (−) message nets against it.
	if s.resid == nil {
		s.resid = mat.NewDense(t.cfg.D, t.cfg.D)
	}
	s.resid.Zero()
	for _, m := range s.ledger {
		mat.OuterAdd(s.resid, m.V, 1)
	}
	s.ledger = nil
	s.e = iwmt.New(t.fdEll(), t.cfg.D, func() float64 { return t.cfg.Eps * s.mass.Query() })
}

// processExpiry feeds expired queue entries to the backward path.
func (s *da2Site) processExpiry(now int64, emit protocol.Emit) {
	t := s.parent
	cut := now - t.cfg.W
	for len(s.q) > 0 && s.q[0].T <= cut {
		m := s.q[0]
		s.q = s.q[1:]
		if s.e == nil {
			// Ledger replay: subtract the exact message.
			t.sendE(s, m.V, emit)
		} else {
			for _, out := range s.e.Input(m.T, m.V) {
				t.sendE(s, out.V, emit)
			}
		}
	}
	if len(s.q) == 0 && s.e != nil {
		// Queue drained: flush IWMT_e and ship the FD-shaved residual so
		// the closed window cancels exactly.
		for _, out := range s.e.Flush(now) {
			t.sendE(s, out.V, emit)
		}
		s.e = nil
		s.drainResidual(emit)
	}
}

// drainResidual ships the PSD mass the compress-mode re-sketches shaved
// off, restoring exact cancellation for the drained window.
func (s *da2Site) drainResidual(emit protocol.Emit) {
	t := s.parent
	if s.resid == nil || mat.FrobSq(s.resid) == 0 {
		return
	}
	if s.ws == nil {
		s.ws = mat.NewWorkspace()
	}
	eig := mat.EigSymInto(s.resid, s.ws)
	for i, lam := range eig.Values {
		if lam <= 0 {
			// The residual is PSD up to round-off; skip noise.
			continue
		}
		v := eig.Vectors.Row(i)
		scaled := make([]float64, len(v))
		f := math.Sqrt(lam)
		for j := range v {
			scaled[j] = f * v[j]
		}
		t.sendE(s, scaled, emit)
	}
	s.resid.Zero()
}

// spaceWords estimates the site's storage in words.
func (s *da2Site) spaceWords(d int) int64 {
	w := int64(len(s.ledger)+len(s.q)) * int64(d+1)
	w += s.a.SpaceWords()
	if s.e != nil {
		w += s.e.SpaceWords()
	}
	if s.resid != nil {
		w += int64(d * d)
	}
	w += int64(s.mass.Buckets()) * 3
	return w
}

// Sketch returns B = Σ^{1/2}Vᵀ of the PSD-clipped Ĉ (Algorithm 5, QUERY).
func (t *DA2) Sketch() *mat.Dense { return mat.PSDSqrt(t.chat) }

// SketchGram returns a copy of the coordinator's raw Ĉ ≈ A_wᵀA_w.
func (t *DA2) SketchGram() *mat.Dense { return t.chat.Clone() }

// Stats returns accumulated counters.
func (t *DA2) Stats() protocol.Stats { return t.net.Stats() }
