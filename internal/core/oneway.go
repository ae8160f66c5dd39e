package core

import (
	"math"

	"distwindow/internal/protocol"
	"distwindow/mat"
)

// This file holds the two halves the one-way matrix trackers share: the
// site's reporting step, which DA1 and Decay run, and the Gram
// coordinator, which DA1 and DA2 embed.

// reporter is one site's reporting step, the significant-direction rule of
// Algorithm 4. It holds the coordinator's view Ĉ⁽ʲ⁾ of the site. Given the
// site's window covariance C and mass F̂², it ships every eigendirection of
// D = C − Ĉ⁽ʲ⁾ with |λ| ≥ ε·F̂² whenever ‖D‖₂ > ε·F̂², updating both copies
// of Ĉ⁽ʲ⁾.
//
// The test is amortized: the caller adds the mass its site gained and lost
// to churn, and the site re-tests only once churn reaches (ε/4)·F̂² —
// smaller churn cannot move ‖D‖₂ past the threshold by more than a constant
// factor of ε, so the guarantee degrades only in constants. A test forms D
// in one pass and power-iterates on the dense d×d D in O(iters·d²). A
// report decomposes the same D values first (mat.EigSymValuesInto) and
// forms only the eigenvectors it ships: it ships a few of d directions,
// and a full decomposition would form the rest only to discard them.
type reporter struct {
	net *protocol.Network
	// idx is the site's index, for per-site communication attribution.
	idx int
	eps float64
	// chat is the site's replica of the coordinator's Ĉ⁽ʲ⁾.
	chat *mat.Dense
	// churn accumulates mass added/expired since the last spectral test.
	churn float64
	// pv is the warm-start vector for the spectral test; diff holds D from
	// a test to its report; ws is the site's persistent
	// decomposition/power-iteration workspace, which also holds a report's
	// reflectors and QL rotations until its last direction is formed. All
	// are preallocated or sized on first use, so a test allocates nothing
	// and a report only the directions it ships.
	pv   []float64
	diff *mat.Dense
	ws   *mat.Workspace
}

func newReporter(cfg Config, net *protocol.Network, idx int) reporter {
	return reporter{
		net:  net,
		idx:  idx,
		eps:  cfg.Eps,
		chat: mat.NewDense(cfg.D, cfg.D),
		pv:   make([]float64, cfg.D),
		diff: mat.NewDense(cfg.D, cfg.D),
		ws:   mat.NewWorkspace(),
	}
}

// report runs the reporting step for a site of mass f and window
// covariance c, which it only reads.
func (r *reporter) report(f float64, c *mat.Dense, emit protocol.Emit) {
	if f <= 0 {
		// Window (locally) empty: flush any leftover Ĉ⁽ʲ⁾ exactly once.
		if mat.FrobSq(r.chat) > 0 {
			r.diff.CopyFrom(r.chat)
			mat.ScaleInPlace(r.diff, -1)
			r.ship(0, emit)
		}
		r.churn = 0
		return
	}
	if r.churn < r.eps/4*f {
		return
	}
	r.churn = 0
	// ‖D‖₂ via warm-started power iteration: D's dominant direction barely
	// moves between tests, so a few iterations from the cached vector
	// suffice for a threshold comparison. The estimate lower-bounds the
	// norm and is compared against the threshold itself, so a borderline
	// trigger can be missed; it is retried at the next churn quantum.
	mat.SubInto(r.diff, c, r.chat)
	norm := mat.OpSymNormWarmWS(r.chat.Rows(), r.pv, 8, func(x, y []float64) { mat.MulVecInto(y, r.diff, x) }, r.ws)
	if norm <= r.eps*f {
		return
	}
	r.ship(r.eps*f, emit)
}

// ship ships every eigendirection of D with |λ| ≥ cutoff (cutoff 0 ships
// all nonzero), updating both Ĉ⁽ʲ⁾ replicas. When the trigger fired but no
// eigenvalue clears the cutoff (the power iteration slightly
// over-estimated), the top direction is shipped anyway so the protocol
// always makes progress. The eigenvalues, and so every choice made here,
// are bit for bit those of a full decomposition of D; only the shipped
// directions are formed.
func (r *reporter) ship(cutoff float64, emit protocol.Emit) {
	eig := mat.EigSymValuesInto(r.diff, r.ws)
	send := func(i int) {
		// Form the direction in a slice of its own: the parallel pipeline
		// retains emitted slices until the coordinator applies them.
		v := make([]float64, len(eig.Values))
		eig.VectorInto(v, i)
		r.net.UpFrom(r.idx, protocol.DirectionWords(len(v)))
		mat.OuterAdd(r.chat, v, eig.Values[i])
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

// gramCoord is the coordinator half DA1 and DA2 share: Ĉ = Σⱼ Ĉ⁽ʲ⁾, the
// sum of every update the sites shipped. It keeps no clock, because expiry
// lives in the sites (DA1's histograms, DA2's backward tracking). Decay
// keeps its own coordinator, whose Ĉ decays.
type gramCoord struct {
	net  *protocol.Network
	chat *mat.Dense
	// applyInline folds an emitted update straight into chat — the
	// sequential path's emit, allocated once.
	applyInline protocol.Emit
}

func newGramCoord(cfg Config, net *protocol.Network) *gramCoord {
	c := &gramCoord{net: net, chat: mat.NewDense(cfg.D, cfg.D)}
	c.applyInline = func(scale float64, v []float64) { mat.OuterAdd(c.chat, v, scale) }
	return c
}

// Apply folds one emitted update into Ĉ. Single goroutine, non-decreasing
// (T, site) order.
func (c *gramCoord) Apply(u protocol.Update) { mat.OuterAdd(c.chat, u.V, u.Scale) }

// Sketch returns B = Σ^{1/2}Vᵀ from the eigendecomposition of the
// PSD-clipped Ĉ (Algorithms 4 and 5, QUERY).
func (c *gramCoord) Sketch() *mat.Dense { return mat.PSDSqrt(c.chat) }

// SnapshotCoord freezes Ĉ; the clock-free coordinator ignores the read
// time. Safe from the apply-owning goroutine only.
func (c *gramCoord) SnapshotCoord(int64) protocol.CoordSnapshot { return FreezeGram(c.chat) }

// Stats returns accumulated counters.
func (c *gramCoord) Stats() protocol.Stats { return c.net.Stats() }
