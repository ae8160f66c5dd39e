package core

import (
	"math"

	"distwindow/internal/protocol"
	"distwindow/internal/sampling"
	"distwindow/internal/stream"
	"distwindow/mat"
)

// WithReplacement implements the with-replacement sampling extensions PWR
// and ESWR (§II-A): ℓ independent single-sample trackers sharing one
// transport and one Frobenius tracker. Each inner tracker maintains the
// top-1 priority over the window using the lazy-broadcast machinery, so
// each contributes one (approximately) ‖aᵢ‖²-proportional draw; the
// estimator rescales draw aᵢ by √(‖A_w‖_F²/(ℓ·‖aᵢ‖²)), the standard
// importance-weighted covariance estimator.
//
// As in the paper, the with-replacement protocols are an extension, kept
// out of the headline experiments: they cost ℓ× the per-row processing of
// PWOR and are dominated by it in accuracy on most data.
type WithReplacement struct {
	cfg  Config
	net  *protocol.Network
	k    int
	inst []*Sampler
	sum  *SumTracker
	name string
}

// NewPWR builds priority sampling with replacement with ℓ = cfg.ell()
// independent samplers.
func NewPWR(cfg Config, net *protocol.Network) (*WithReplacement, error) {
	return newWR(cfg, net, sampling.Priority{}, "PWR")
}

// NewESWR builds ES sampling with replacement.
func NewESWR(cfg Config, net *protocol.Network) (*WithReplacement, error) {
	return newWR(cfg, net, sampling.ES{}, "ESWR")
}

func newWR(cfg Config, net *protocol.Network, scheme sampling.Scheme, name string) (*WithReplacement, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	k := cfg.ell()
	t := &WithReplacement{cfg: cfg, net: net, k: k, name: name}
	sum, err := NewSumTracker(cfg, net)
	if err != nil {
		return nil, err
	}
	t.sum = sum
	t.inst = make([]*Sampler, k)
	for i := range t.inst {
		icfg := cfg
		icfg.Ell = 1
		icfg.Seed = cfg.Seed + int64(i)*0x9e3779b9
		s, err := NewSampler(icfg, SamplerOpts{Scheme: scheme, noSum: true}, net)
		if err != nil {
			return nil, err
		}
		t.inst[i] = s
	}
	return t, nil
}

// Name returns "PWR" or "ESWR".
func (t *WithReplacement) Name() string { return t.name }

// Observe fans the row out to every inner sampler.
func (t *WithReplacement) Observe(site int, r stream.Row) {
	t.sum.ObserveWeight(site, r.T, r.NormSq())
	for _, s := range t.inst {
		s.Observe(site, r)
	}
}

// AdvanceTime advances every inner sampler.
func (t *WithReplacement) AdvanceTime(now int64) {
	t.sum.AdvanceAll(now)
	for _, s := range t.inst {
		s.AdvanceTime(now)
	}
}

// Sketch stacks one importance-rescaled draw per inner sampler.
func (t *WithReplacement) Sketch() *mat.Dense {
	frobSq := t.sum.Estimate()
	if frobSq <= 0 {
		return mat.NewDense(0, t.cfg.D)
	}
	rows := make([][]float64, 0, t.k)
	for _, s := range t.inst {
		used := s.usedSamples()
		if len(used) == 0 {
			continue
		}
		best := used[0]
		for _, it := range used[1:] {
			if it.Rho > best.Rho {
				best = it
			}
		}
		w := best.Weight()
		if w == 0 {
			continue
		}
		f := math.Sqrt(frobSq / (float64(t.k) * w))
		row := make([]float64, len(best.V))
		for j, v := range best.V {
			row[j] = f * v
		}
		rows = append(rows, row)
	}
	if len(rows) == 0 {
		return mat.NewDense(0, t.cfg.D)
	}
	return mat.FromRows(rows)
}

// Stats returns accumulated counters.
func (t *WithReplacement) Stats() protocol.Stats { return t.net.Stats() }
