package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"distwindow/internal/protocol"
	"distwindow/internal/sampling"
	"distwindow/internal/stream"
	"distwindow/mat"
)

// SamplerOpts selects a member of the sampling protocol family.
type SamplerOpts struct {
	// Scheme is the priority assignment: sampling.Priority{} for PWOR,
	// sampling.ES{} for ESWOR.
	Scheme sampling.Scheme
	// Exact selects Algorithm 1's exact threshold maintenance (|S| = ℓ at
	// all times); the default is the lazy-broadcast protocol of
	// Algorithm 2 (ℓ ≤ |S| ≤ 4ℓ).
	Exact bool
	// UseAll makes the estimator use every sample the coordinator holds
	// (the -ALL variants) instead of exactly the top-ℓ.
	UseAll bool
	// noSum suppresses the embedded Frobenius tracker; the
	// with-replacement wrapper sets it because it shares a single one
	// across its inner samplers.
	noSum bool
}

// Sampler is a sampling-based tracker: PWOR, PWOR-ALL, ESWOR, ESWOR-ALL,
// with exact or lazy-broadcast threshold maintenance. It implements
// protocol.Tracker.
type Sampler struct {
	cfg  Config
	opts SamplerOpts
	net  *protocol.Network
	rng  *rand.Rand
	ell  int
	name string

	tau   float64
	sites []*sampleSite

	// S is the sample set (top priorities); Sp the candidate set S'.
	S, Sp []sampling.Item
	// minTS/minTSp cache the minimum timestamps so expiry scans can be
	// skipped while nothing can expire.
	minTS, minTSp int64

	// sum tracks ‖A_w‖_F² for the ES estimator (nil for priority
	// sampling); its communication is charged to the same network.
	sum *SumTracker

	now int64
}

type sampleSite struct {
	q    *sampling.Queue
	tauJ float64
}

// NewSampler builds a sampling tracker. The name reflects the variant
// (e.g. "PWOR-ALL", "ESWOR", "PWOR-simple").
func NewSampler(cfg Config, opts SamplerOpts, net *protocol.Network) (*Sampler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if opts.Scheme == nil {
		return nil, fmt.Errorf("core: SamplerOpts.Scheme is required")
	}
	s := &Sampler{
		cfg:  cfg,
		opts: opts,
		net:  net,
		rng:  rand.New(rand.NewSource(cfg.Seed)),
		ell:  cfg.ell(),
	}
	s.sites = make([]*sampleSite, cfg.Sites)
	for i := range s.sites {
		s.sites[i] = &sampleSite{q: sampling.NewQueue(s.ell)}
	}
	// ES needs ‖A_w‖_F² for its estimator; the uniform baseline needs the
	// window count N. Both are tracked by the deterministic SUM protocol
	// over the same accounted network.
	switch opts.Scheme.(type) {
	case sampling.ES, sampling.Uniform:
		if !opts.noSum {
			sum, err := NewSumTracker(cfg, net)
			if err != nil {
				return nil, err
			}
			s.sum = sum
		}
	}
	s.name = samplerName(opts)
	s.minTS, s.minTSp = math.MaxInt64, math.MaxInt64
	return s, nil
}

func samplerName(opts SamplerOpts) string {
	base := "PWOR"
	switch opts.Scheme.(type) {
	case sampling.ES:
		base = "ESWOR"
	case sampling.Uniform:
		base = "UNIFORM"
	}
	if opts.UseAll {
		base += "-ALL"
	}
	if opts.Exact {
		base += "-simple"
	}
	return base
}

// Name returns the protocol variant name.
func (s *Sampler) Name() string { return s.name }

// Observe delivers a row to a site (Algorithm 1, PROCESS_ROWS).
func (s *Sampler) Observe(site int, r stream.Row) {
	s.now = r.T
	w := r.NormSq()
	st := s.sites[site]
	st.q.Expire(r.T, s.cfg.W)
	if s.sum != nil {
		sw := w
		if _, uniform := s.opts.Scheme.(sampling.Uniform); uniform {
			sw = 1 // the uniform estimator needs the count, not the mass
		}
		s.sum.ObserveWeight(site, r.T, sw)
	}
	if w > 0 {
		rho := sampling.Draw(s.opts.Scheme, w, s.rng)
		it := sampling.Item{V: append([]float64(nil), r.V...), Rho: rho, T: r.T}
		if rho >= st.tauJ {
			s.net.UpFrom(site, protocol.RowWords(s.cfg.D))
			s.insertS(it)
		} else {
			st.q.Push(it)
		}
		st.q.Observe(rho)
	}
	s.expire()
	s.updateThreshold()
	s.net.SampleSiteSpace(st.q.SpaceWords(s.cfg.D))
	s.net.SampleCoordSpace(int64(len(s.S)+len(s.Sp)) * int64(s.cfg.D+2))
}

// AdvanceTime expires state at the coordinator and all sites.
func (s *Sampler) AdvanceTime(now int64) {
	if now <= s.now {
		return
	}
	s.now = now
	for _, st := range s.sites {
		st.q.Expire(now, s.cfg.W)
	}
	if s.sum != nil {
		s.sum.AdvanceAll(now)
	}
	s.expire()
	s.updateThreshold()
}

func (s *Sampler) insertS(it sampling.Item) {
	s.S = append(s.S, it)
	if it.T < s.minTS {
		s.minTS = it.T
	}
}

func (s *Sampler) insertSp(it sampling.Item) {
	s.Sp = append(s.Sp, it)
	if it.T < s.minTSp {
		s.minTSp = it.T
	}
}

// expire drops out-of-window items from S and S'.
func (s *Sampler) expire() {
	cut := s.now - s.cfg.W
	if s.minTS <= cut {
		keep := s.S[:0]
		min := int64(math.MaxInt64)
		for _, it := range s.S {
			if it.T > cut {
				keep = append(keep, it)
				if it.T < min {
					min = it.T
				}
			}
		}
		s.S = keep
		s.minTS = min
	}
	if s.minTSp <= cut {
		keep := s.Sp[:0]
		min := int64(math.MaxInt64)
		for _, it := range s.Sp {
			if it.T > cut {
				keep = append(keep, it)
				if it.T < min {
					min = it.T
				}
			}
		}
		s.Sp = keep
		s.minTSp = min
	}
}

func (s *Sampler) updateThreshold() {
	if s.opts.Exact {
		s.updateExact()
	} else {
		s.updateLazy()
	}
}

// sortSDesc sorts the sample set by decreasing priority.
func (s *Sampler) sortSDesc() {
	sort.Slice(s.S, func(i, j int) bool { return s.S[i].Rho > s.S[j].Rho })
}

// broadcastTau ships a changed threshold to all sites and applies it
// locally at each site, collecting any rows the decrease releases.
func (s *Sampler) broadcastTau(tau float64) {
	if tau == s.tau {
		return
	}
	decreased := tau < s.tau
	s.tau = tau
	s.net.Broadcast(1)
	for i, st := range s.sites {
		if decreased && tau < st.tauJ {
			st.q.Expire(s.now, s.cfg.W)
			for _, it := range st.q.PopQualifying(tau) {
				s.net.UpFrom(i, protocol.RowWords(s.cfg.D))
				s.insertS(it)
			}
		}
		st.tauJ = tau
	}
}

// updateExact is Algorithm 1's UPDATE_THRESHOLD: keep |S| exactly ℓ.
func (s *Sampler) updateExact() {
	for len(s.S) == s.ell+1 {
		// Common case — one fresh arrival: move the minimum without a sort.
		min := 0
		for i := range s.S[1:] {
			if s.S[i+1].Rho < s.S[min].Rho {
				min = i + 1
			}
		}
		s.insertSp(s.S[min])
		s.S = append(s.S[:min], s.S[min+1:]...)
	}
	if len(s.S) > s.ell {
		s.sortSDesc()
		for _, it := range s.S[s.ell:] {
			s.insertSp(it)
		}
		s.S = s.S[:s.ell]
	}
	if len(s.S) < s.ell {
		s.negotiate()
	}
	// τ becomes the minimum priority in S.
	if len(s.S) > 0 {
		min := s.S[0].Rho
		for _, it := range s.S[1:] {
			if it.Rho < min {
				min = it.Rho
			}
		}
		if min != s.tau {
			s.tau = min
			s.net.Broadcast(1)
			for _, st := range s.sites {
				st.tauJ = min
			}
		}
	}
}

// negotiate pulls the globally highest-priority unsampled rows until
// |S| = ℓ or no active rows remain (Algorithm 1, lines 22–29).
func (s *Sampler) negotiate() {
	// Request each site's local maximum priority: 1 word down, 1 word up.
	type src struct {
		site int // -1 for S'
		rho  float64
		ok   bool
	}
	sources := make([]src, 0, len(s.sites)+1)
	for i, st := range s.sites {
		s.net.DownTo(i, 1)
		st.q.Expire(s.now, s.cfg.W)
		rho, ok := st.q.MaxPriority()
		s.net.UpFrom(i, 1)
		sources = append(sources, src{site: i, rho: rho, ok: ok})
	}
	spMax := func() (int, float64, bool) {
		best, rho := -1, 0.0
		for i, it := range s.Sp {
			if best == -1 || it.Rho > rho {
				best, rho = i, it.Rho
			}
		}
		return best, rho, best != -1
	}
	_, rho, ok := spMax()
	sources = append(sources, src{site: -1, rho: rho, ok: ok})

	for len(s.S) < s.ell {
		best := -1
		for i, c := range sources {
			if c.ok && (best == -1 || c.rho > sources[best].rho) {
				best = i
			}
		}
		if best == -1 {
			return // fewer than ℓ active rows in the whole system
		}
		c := &sources[best]
		if c.site == -1 {
			idx, _, _ := spMax()
			it := s.Sp[idx]
			s.Sp = append(s.Sp[:idx], s.Sp[idx+1:]...)
			s.insertS(it)
			_, rho, ok := spMax()
			c.rho, c.ok = rho, ok
		} else {
			st := s.sites[c.site]
			s.net.DownTo(c.site, 1) // retrieve request
			it := st.q.PopMax()
			s.net.UpFrom(c.site, protocol.RowWords(s.cfg.D))
			s.insertS(it)
			s.net.DownTo(c.site, 1) // next-highest request
			rho, ok := st.q.MaxPriority()
			s.net.UpFrom(c.site, 1)
			c.rho, c.ok = rho, ok
		}
	}
}

// updateLazy is Algorithm 2's lazy-broadcast UPDATE_THRESHOLD.
func (s *Sampler) updateLazy() {
	if len(s.S) >= 4*s.ell {
		s.sortSDesc()
		tau := s.S[2*s.ell-1].Rho
		for _, it := range s.S[2*s.ell:] {
			if it.Rho < tau {
				s.insertSp(it)
			}
		}
		// Keep items with ρ ≥ τ (ties at τ stay in S).
		keep := s.S[:0]
		for _, it := range s.S {
			if it.Rho >= tau {
				keep = append(keep, it)
			}
		}
		s.S = keep
		s.recomputeMinTS()
		s.broadcastTau(tau)
	}
	if len(s.S) <= s.ell {
		s.refill()
	}
}

// refill halves τ until |S| > 2ℓ or no more active rows exist anywhere
// (Algorithm 2, lines 7–11).
func (s *Sampler) refill() {
	for len(s.S) <= 2*s.ell {
		// Collect qualifying candidates from S' at the current τ first —
		// they were already paid for.
		s.collectFromSp(s.tau)
		if len(s.S) > 2*s.ell {
			break
		}
		if s.tau == 0 || s.drained() {
			// τ already admits everything, or no row is left anywhere:
			// halving further would only burn broadcasts.
			return
		}
		newTau := s.tau / 2
		if newTau < 1e-300 {
			newTau = 0
		}
		s.collectFromSp(newTau)
		s.broadcastTau(newTau)
		if newTau == 0 {
			return
		}
	}
}

// drained reports that neither S' nor any site queue holds an active row.
func (s *Sampler) drained() bool {
	if len(s.Sp) > 0 {
		return false
	}
	for _, st := range s.sites {
		st.q.Expire(s.now, s.cfg.W)
		if st.q.Len() > 0 {
			return false
		}
	}
	return true
}

func (s *Sampler) collectFromSp(tau float64) {
	keep := s.Sp[:0]
	for _, it := range s.Sp {
		if it.Rho >= tau {
			s.insertS(it)
		} else {
			keep = append(keep, it)
		}
	}
	s.Sp = keep
	s.recomputeMinTSp()
}

func (s *Sampler) recomputeMinTS() {
	min := int64(math.MaxInt64)
	for _, it := range s.S {
		if it.T < min {
			min = it.T
		}
	}
	s.minTS = min
}

func (s *Sampler) recomputeMinTSp() {
	min := int64(math.MaxInt64)
	for _, it := range s.Sp {
		if it.T < min {
			min = it.T
		}
	}
	s.minTSp = min
}

// Sketch builds the covariance sketch from the current samples.
func (s *Sampler) Sketch() *mat.Dense {
	used := s.usedSamples()
	if len(used) == 0 {
		return mat.NewDense(0, s.cfg.D)
	}
	// When the sample is exhaustive (every active row is at the
	// coordinator), the raw rows reproduce A_w exactly.
	if s.exhaustive(len(used)) {
		rows := make([][]float64, len(used))
		for i, it := range used {
			rows[i] = it.V
		}
		return mat.FromRows(rows)
	}
	out := mat.NewDense(len(used), s.cfg.D)
	switch s.opts.Scheme.(type) {
	case sampling.Priority:
		// The estimator's weight ceiling: for top-ℓ it is τ_ℓ, the
		// minimum priority in the sample; for -ALL it is the global
		// threshold τ, because S is exactly the set of active rows with
		// ρ ≥ τ (threshold/priority sampling with fixed threshold).
		tauEll := s.tau
		if !s.opts.UseAll {
			tauEll = used[0].Rho
			for _, it := range used[1:] {
				if it.Rho < tauEll {
					tauEll = it.Rho
				}
			}
		}
		for i, it := range used {
			out.SetRow(i, sampling.RescalePriority(it, tauEll))
		}
	case sampling.ES:
		frobSq := s.sum.Estimate()
		for i, it := range used {
			out.SetRow(i, sampling.RescaleES(it, frobSq, len(used)))
		}
	case sampling.Uniform:
		count := s.sum.Estimate()
		for i, it := range used {
			out.SetRow(i, sampling.RescaleUniform(it, count, len(used)))
		}
	default:
		panic("core: unknown sampling scheme")
	}
	return out
}

// usedSamples returns the samples the estimator is allowed to use. The
// -ALL variants use the whole sample set S — which the protocol keeps
// equal to the set of active rows with priority ≥ τ, so it is a valid
// threshold sample of size ℓ..4ℓ. The candidate set S' is NOT used: it
// holds only those below-threshold rows that happened to pass through the
// coordinator, so including it would bias the estimator (sites still hold
// other rows in the same priority range).
func (s *Sampler) usedSamples() []sampling.Item {
	if s.opts.UseAll {
		return append([]sampling.Item(nil), s.S...)
	}
	if len(s.S) <= s.ell {
		return append([]sampling.Item(nil), s.S...)
	}
	cp := append([]sampling.Item(nil), s.S...)
	sort.Slice(cp, func(i, j int) bool { return cp[i].Rho > cp[j].Rho })
	return cp[:s.ell]
}

// exhaustive reports whether the coordinator provably holds every active
// row: after threshold maintenance, |S| below ℓ means the refill loop (or
// negotiation) drained all site queues and S'.
func (s *Sampler) exhaustive(used int) bool {
	if used > s.ell {
		return false
	}
	if len(s.Sp) > 0 {
		return false
	}
	for _, st := range s.sites {
		if st.q.Len() > 0 {
			return false
		}
	}
	return len(s.S) < s.ell
}

// Stats returns accumulated communication counters.
func (s *Sampler) Stats() protocol.Stats { return s.net.Stats() }

// Tau exposes the current global threshold (for tests).
func (s *Sampler) Tau() float64 { return s.tau }

// SampleCount returns |S| and |S'| (for tests).
func (s *Sampler) SampleCount() (int, int) { return len(s.S), len(s.Sp) }

// Ell returns the resolved sample-set size ℓ.
func (s *Sampler) Ell() int { return s.ell }
