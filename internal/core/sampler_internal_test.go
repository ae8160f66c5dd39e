package core

import (
	"math/rand"
	"testing"

	"distwindow/internal/protocol"
	"distwindow/internal/sampling"
	"distwindow/internal/stream"
)

// checkThresholdInvariant verifies the lazy protocol's structural
// invariant after every event: S is exactly the set of coordinator-held
// active rows with ρ ≥ τ, S' holds only ρ < τ, and every site's local
// threshold equals the coordinator's.
func checkThresholdInvariant(t *testing.T, s *Sampler) {
	t.Helper()
	for _, it := range s.S {
		if it.Rho < s.tau {
			t.Fatalf("S contains ρ=%v below τ=%v", it.Rho, s.tau)
		}
	}
	for _, it := range s.Sp {
		if it.Rho >= s.tau {
			t.Fatalf("S' contains ρ=%v ≥ τ=%v (should have been collected)", it.Rho, s.tau)
		}
	}
	for i, st := range s.sites {
		if st.tauJ != s.tau {
			t.Fatalf("site %d threshold %v != coordinator τ %v", i, st.tauJ, s.tau)
		}
	}
}

func TestLazyThresholdInvariant(t *testing.T) {
	cfg := Config{D: 3, W: 400, Eps: 0.3, Sites: 3, Ell: 16, Seed: 1}
	net := protocol.NewNetwork(3)
	s, err := NewSampler(cfg, SamplerOpts{Scheme: sampling.Priority{}}, net)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for i := int64(1); i <= 3000; i++ {
		v := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		s.Observe(rng.Intn(3), stream.Row{T: i, V: v})
		if i%100 == 0 {
			checkThresholdInvariant(t, s)
		}
	}
}

func TestLazyThresholdInvariantES(t *testing.T) {
	cfg := Config{D: 3, W: 400, Eps: 0.3, Sites: 3, Ell: 16, Seed: 3}
	net := protocol.NewNetwork(3)
	s, _ := NewSampler(cfg, SamplerOpts{Scheme: sampling.ES{}}, net)
	rng := rand.New(rand.NewSource(4))
	for i := int64(1); i <= 2000; i++ {
		v := []float64{rng.NormFloat64() * 5, rng.NormFloat64(), rng.NormFloat64()}
		s.Observe(rng.Intn(3), stream.Row{T: i, V: v})
		if i%100 == 0 {
			checkThresholdInvariant(t, s)
		}
	}
}

func TestRefillStopsWhenDrained(t *testing.T) {
	// Fewer active rows than ℓ everywhere: refill must terminate with the
	// whole population at the coordinator and not spin broadcasting.
	cfg := Config{D: 2, W: 100, Eps: 0.3, Sites: 2, Ell: 32, Seed: 5}
	net := protocol.NewNetwork(2)
	s, _ := NewSampler(cfg, SamplerOpts{Scheme: sampling.Priority{}}, net)
	for i := int64(1); i <= 10; i++ {
		s.Observe(int(i)%2, stream.Row{T: i, V: []float64{1, float64(i)}})
	}
	// Jump so everything expires, then add two rows; the refill path runs.
	s.AdvanceTime(10_000)
	before := net.Stats().Broadcasts
	s.Observe(0, stream.Row{T: 10_001, V: []float64{1, 2}})
	s.Observe(1, stream.Row{T: 10_002, V: []float64{3, 4}})
	if got := net.Stats().Broadcasts - before; got > 50 {
		t.Fatalf("refill made %d broadcasts on a drained system", got)
	}
	nS, _ := s.SampleCount()
	if nS != 2 {
		t.Fatalf("|S| = %d, want 2 (the whole population)", nS)
	}
}

func TestExactPolicyNegotiationRestoresEll(t *testing.T) {
	// After a mass expiry, negotiation must pull queued rows back up to ℓ
	// (or the whole population).
	cfg := Config{D: 2, W: 500, Eps: 0.3, Sites: 2, Ell: 8, Seed: 6}
	net := protocol.NewNetwork(2)
	s, _ := NewSampler(cfg, SamplerOpts{Scheme: sampling.Priority{}, Exact: true}, net)
	rng := rand.New(rand.NewSource(7))
	for i := int64(1); i <= 600; i++ {
		s.Observe(rng.Intn(2), stream.Row{T: i, V: []float64{rng.NormFloat64(), rng.NormFloat64()}})
	}
	nS, _ := s.SampleCount()
	if nS != 8 {
		t.Fatalf("|S| = %d, want ℓ=8", nS)
	}
	// Let 90% of the window expire without new arrivals.
	s.AdvanceTime(1050)
	nS, _ = s.SampleCount()
	if nS != 8 {
		t.Fatalf("|S| = %d after expiry, want ℓ=8 via negotiation", nS)
	}
}

func TestUsedSamplesTopL(t *testing.T) {
	cfg := Config{D: 2, W: 1000, Eps: 0.3, Sites: 1, Ell: 4, Seed: 8}
	net := protocol.NewNetwork(1)
	s, _ := NewSampler(cfg, SamplerOpts{Scheme: sampling.Priority{}}, net)
	rng := rand.New(rand.NewSource(9))
	for i := int64(1); i <= 500; i++ {
		s.Observe(0, stream.Row{T: i, V: []float64{rng.NormFloat64(), rng.NormFloat64()}})
	}
	used := s.usedSamples()
	if len(used) != 4 {
		t.Fatalf("top-ℓ used %d samples, want 4", len(used))
	}
	// They must be the highest-priority entries of S.
	min := used[0].Rho
	for _, it := range used {
		if it.Rho < min {
			min = it.Rho
		}
	}
	for _, it := range s.S {
		inUsed := false
		for _, u := range used {
			if u.Rho == it.Rho {
				inUsed = true
			}
		}
		if !inUsed && it.Rho > min {
			t.Fatalf("S has ρ=%v above used minimum %v", it.Rho, min)
		}
	}
}

func TestUsedSamplesAllEqualsS(t *testing.T) {
	cfg := Config{D: 2, W: 1000, Eps: 0.3, Sites: 1, Ell: 4, Seed: 10}
	net := protocol.NewNetwork(1)
	s, _ := NewSampler(cfg, SamplerOpts{Scheme: sampling.Priority{}, UseAll: true}, net)
	rng := rand.New(rand.NewSource(11))
	for i := int64(1); i <= 500; i++ {
		s.Observe(0, stream.Row{T: i, V: []float64{rng.NormFloat64(), rng.NormFloat64()}})
	}
	if got, want := len(s.usedSamples()), len(s.S); got != want {
		t.Fatalf("-ALL used %d samples, want |S|=%d", got, want)
	}
}

func TestSamplerNoCommunicationWithoutMass(t *testing.T) {
	cfg := Config{D: 2, W: 100, Eps: 0.3, Sites: 2, Ell: 4, Seed: 12}
	net := protocol.NewNetwork(2)
	s, _ := NewSampler(cfg, SamplerOpts{Scheme: sampling.Priority{}}, net)
	for i := int64(1); i <= 100; i++ {
		s.Observe(int(i)%2, stream.Row{T: i, V: []float64{0, 0}}) // zero rows
	}
	if w := net.Stats().TotalWords(); w != 0 {
		t.Fatalf("zero-mass stream caused %d words", w)
	}
}

func TestConfigEllDerivation(t *testing.T) {
	c := Config{D: 2, W: 10, Eps: 0.1, Sites: 1}
	if c.ell() != sampling.SampleSize(0.1) {
		t.Fatalf("ell() = %d, want derived %d", c.ell(), sampling.SampleSize(0.1))
	}
	c.Ell = 77
	if c.ell() != 77 {
		t.Fatalf("ell() = %d, want override 77", c.ell())
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{D: 0, W: 1, Eps: 0.1, Sites: 1},
		{D: 1, W: 0, Eps: 0.1, Sites: 1},
		{D: 1, W: 1, Eps: 0, Sites: 1},
		{D: 1, W: 1, Eps: 1, Sites: 1},
		{D: 1, W: 1, Eps: 0.1, Sites: 0},
		{D: 1, W: 1, Eps: 0.1, Sites: 1, Ell: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("case %d: want validation error", i)
		}
	}
	good := Config{D: 1, W: 1, Eps: 0.1, Sites: 1}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}
