package core

import (
	"math"

	"distwindow/internal/meh"
	"distwindow/internal/protocol"
	"distwindow/internal/stream"
	"distwindow/internal/window"
	"distwindow/mat"
)

// DA1 is the first deterministic protocol (Algorithm 4). Each site keeps a
// matrix exponential histogram over its local window, giving C ≈ A_w⁽ʲ⁾ᵀA_w⁽ʲ⁾
// and F̂² ≈ ‖A_w⁽ʲ⁾‖_F², plus the coordinator's view Ĉ⁽ʲ⁾. Whenever
// ‖C − Ĉ⁽ʲ⁾‖₂ > ε·F̂², the site eigendecomposes D = C − Ĉ⁽ʲ⁾ and ships every
// direction with |λᵢ| ≥ ε·F̂², updating both copies of Ĉ⁽ʲ⁾. The coordinator
// answers queries with the PSD square root of Ĉ = Σⱼ Ĉ⁽ʲ⁾.
//
// Communication is one-way (sites → coordinator), O(md/ε·log NR) words per
// window; per-site space is O(d/ε²·log NR + d²).
//
// The spectral test is amortized: a site re-tests only once the Frobenius
// mass added plus expired since its last test reaches (ε/4)·F̂² — smaller
// churn cannot move ‖D‖₂ past the threshold by more than a constant factor
// of ε, so the guarantee degrades only in constants while the per-row cost
// drops from O(d²) to O(1) between tests.
type DA1 struct {
	cfg   Config
	net   *protocol.Network
	sites []*da1Site
	// chat is Ĉ = Σⱼ Ĉ⁽ʲ⁾ at the coordinator.
	chat *mat.Dense
	now  int64
	// applyInline folds an emitted update straight into chat — the
	// sequential path's emit, allocated once so Observe stays on the same
	// float-op sequence (and allocation profile) as before the seam.
	applyInline protocol.Emit
}

type da1Site struct {
	// idx is the site's index, for per-site communication attribution.
	idx  int
	hist *meh.Histogram
	// win is non-nil in exact-storage mode: the site keeps its raw window
	// (the paper's "first assume each site is allowed to store all rows")
	// and the histogram is bypassed.
	win *window.Exact
	// chat is the site's replica of the coordinator's Ĉ⁽ʲ⁾.
	chat *mat.Dense
	// churn accumulates mass added/expired since the last spectral test.
	churn float64
	lastF float64
	now   int64
	// pv is the warm-start vector for the spectral trigger test; mv is the
	// Ĉ·x scratch of the trigger operator; diff holds C − Ĉ during a report;
	// ws is the site's persistent decomposition/power-iteration workspace.
	// All are preallocated so the per-row path stays allocation-free.
	pv      []float64
	mv      []float64
	applyOp func(x, y []float64)
	diff    *mat.Dense
	ws      *mat.Workspace
}

var _ protocol.OneWay = (*DA1)(nil)

// NewDA1 builds the protocol over cfg.Sites sites reporting to net.
func NewDA1(cfg Config, net *protocol.Network) (*DA1, error) {
	return newDA1(cfg, net, false)
}

// NewDA1Exact builds the exact-storage ablation: each site retains its raw
// window instead of an mEH, so the only error is the reporting threshold —
// the protocol the paper analyzes before introducing the histogram. Space
// per site is O(window) words; use it as an accuracy reference.
func NewDA1Exact(cfg Config, net *protocol.Network) (*DA1, error) {
	return newDA1(cfg, net, true)
}

func newDA1(cfg Config, net *protocol.Network, exact bool) (*DA1, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	t := &DA1{cfg: cfg, net: net, chat: mat.NewDense(cfg.D, cfg.D)}
	t.applyInline = func(scale float64, v []float64) { mat.OuterAdd(t.chat, v, scale) }
	t.sites = make([]*da1Site, cfg.Sites)
	for i := range t.sites {
		s := &da1Site{
			idx:  i,
			chat: mat.NewDense(cfg.D, cfg.D),
			pv:   make([]float64, cfg.D),
			mv:   make([]float64, cfg.D),
			diff: mat.NewDense(cfg.D, cfg.D),
			ws:   mat.NewWorkspace(),
		}
		// The trigger operator y = (C − Ĉ)x, allocated once per site so the
		// amortized spectral test allocates nothing.
		s.applyOp = func(x, y []float64) {
			s.applyGram(cfg.D, x, y)
			mat.MulVecInto(s.mv, s.chat, x)
			for j := range y {
				y[j] -= s.mv[j]
			}
		}
		if exact {
			s.win = window.NewExact(cfg.W)
		} else {
			// Run the mEH at ε/2 so structure error plus reporting slack
			// stay within O(ε) overall.
			s.hist = meh.New(cfg.W, cfg.D, cfg.Eps/2)
		}
		t.sites[i] = s
	}
	return t, nil
}

// Name returns "DA1" ("DA1-exact" for the exact-storage ablation).
func (t *DA1) Name() string {
	if len(t.sites) > 0 && t.sites[0].win != nil {
		return "DA1-exact"
	}
	return "DA1"
}

// frobEst returns the site's window-mass estimate.
func (s *da1Site) frobEst() float64 {
	if s.win != nil {
		return s.win.FrobSq()
	}
	return s.hist.FrobSqEstimate()
}

// applyGram computes y = Cx for the site's window covariance.
func (s *da1Site) applyGram(d int, x, y []float64) {
	if s.win != nil {
		for i := range y {
			y[i] = 0
		}
		for _, r := range s.win.Rows() {
			c := mat.Dot(r.V, x)
			if c != 0 {
				mat.Axpy(c, r.V, y)
			}
		}
		return
	}
	s.hist.ApplyGram(x, y)
}

// gramInto overwrites dst with the site's window covariance.
func (s *da1Site) gramInto(dst *mat.Dense) {
	if s.win != nil {
		dst.Zero()
		for _, r := range s.win.Rows() {
			mat.OuterAdd(dst, r.V, 1)
		}
		return
	}
	s.hist.GramInto(dst)
}

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
	if s.win != nil {
		s.win.Add(r)
	} else {
		s.hist.Add(r.T, r.V)
	}
	added := r.NormSq()
	est := s.frobEst()
	expired := s.lastF + added - est
	if expired < 0 {
		expired = 0
	}
	s.churn += added + expired
	s.lastF = est
	t.maybeReport(s, emit)
	siteWords := int64(t.cfg.D * t.cfg.D)
	if s.win != nil {
		siteWords += int64(s.win.Len()) * int64(t.cfg.D+1)
	} else {
		siteWords += int64(s.hist.SpaceWords())
	}
	t.net.SampleSiteSpace(siteWords)
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
	if s.win != nil {
		s.win.Advance(now)
	} else {
		s.hist.Advance(now)
	}
	est := s.frobEst()
	if d := s.lastF - est; d > 0 {
		s.churn += d
	}
	s.lastF = est
	t.maybeReport(s, emit)
}

// Apply folds one emitted update into the coordinator's Ĉ. Single
// goroutine, non-decreasing (T, site) order.
func (t *DA1) Apply(u protocol.Update) { mat.OuterAdd(t.chat, u.V, u.Scale) }

// AdvanceCoord is a no-op: DA1's coordinator state is clock-free (expiry
// lives entirely in the sites' histograms).
func (t *DA1) AdvanceCoord(now int64) {}

// maybeReport runs the spectral test when enough churn accumulated, and
// ships significant directions when it trips.
func (t *DA1) maybeReport(s *da1Site, emit protocol.Emit) {
	fhat := s.lastF
	if fhat <= 0 {
		// Window (locally) empty: flush any leftover Ĉ⁽ʲ⁾ exactly once.
		if mat.FrobSq(s.chat) > 0 {
			s.diff.CopyFrom(s.chat)
			mat.ScaleInPlace(s.diff, -1)
			t.sendDirections(s, s.diff, 0, emit)
		}
		s.churn = 0
		return
	}
	if s.churn < t.cfg.Eps/4*fhat {
		return
	}
	s.churn = 0
	// ‖C − Ĉ‖₂ via warm-started power iteration: C is never formed densely
	// here, and the dominant direction of D barely moves between tests, so
	// a few iterations from the cached vector suffice for a threshold
	// comparison. The estimate lower-bounds the norm, so the test fires at
	// 0.9× the threshold to compensate; a missed borderline trigger is
	// retried at the next churn quantum. The operator closure, iteration
	// scratch, and warm vector are all per-site state: the test allocates
	// nothing.
	norm := mat.OpSymNormWarmWS(t.cfg.D, s.pv, 8, s.applyOp, s.ws)
	if norm <= t.cfg.Eps*fhat {
		return
	}
	s.gramInto(s.diff)
	mat.SubInPlace(s.diff, s.chat)
	t.sendDirections(s, s.diff, t.cfg.Eps*fhat, emit)
}

// sendDirections eigendecomposes D and ships every direction with
// |λ| ≥ cutoff (cutoff 0 ships all nonzero), updating both Ĉ replicas.
// When the trigger fired but no eigenvalue clears the cutoff (the power
// iteration slightly over-estimated), the top direction is shipped anyway
// so the protocol always makes progress.
func (t *DA1) sendDirections(s *da1Site, diff *mat.Dense, cutoff float64, emit protocol.Emit) {
	eig := mat.EigSymInto(diff, s.ws)
	send := func(i int) {
		// Copy the direction out of the site workspace: the parallel
		// pipeline retains emitted slices until the coordinator applies
		// them, by which time the workspace may have been reused.
		v := append([]float64(nil), eig.Vectors.Row(i)...)
		t.net.UpFrom(s.idx, protocol.DirectionWords(t.cfg.D))
		mat.OuterAdd(s.chat, v, eig.Values[i])
		emit(eig.Values[i], v)
	}
	sent := 0
	for i, lam := range eig.Values {
		if math.Abs(lam) < cutoff || lam == 0 {
			continue
		}
		send(i)
		sent++
	}
	if sent == 0 && cutoff > 0 {
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

// Sketch returns B = Σ^{1/2}Vᵀ from the SVD of the PSD-clipped Ĉ
// (Algorithm 4, QUERY).
func (t *DA1) Sketch() *mat.Dense { return mat.PSDSqrt(t.chat) }

// SketchGram returns a copy of the coordinator's raw Ĉ ≈ A_wᵀA_w. It is
// what Sketch factors; evaluation harnesses use it to skip the O(d³)
// square root on every query.
func (t *DA1) SketchGram() *mat.Dense { return t.chat.Clone() }

// Stats returns accumulated counters.
func (t *DA1) Stats() protocol.Stats { return t.net.Stats() }
