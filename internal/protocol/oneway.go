package protocol

import "distwindow/internal/stream"

// This file defines the explicit message-passing seam for the one-way
// protocol family (DA1, DA2, DA2-C, Decay). The synchronous fabric invokes
// handlers directly: a site's Observe mutates the coordinator's state
// inline. The one-way protocols keep all heavy per-row work strictly
// site-local, so the fabric can be split at the site→coordinator message
// boundary: site-local work *emits* updates, and a single applier folds
// them into the coordinator state. The sequential path applies each update
// immediately at its emission point (bit-for-bit the old behavior); the
// parallel pipeline enqueues them and applies in global (T, site) order.

// Update is one site→coordinator message of the one-way family: the
// rank-one change Scale·VVᵀ to the coordinator's Gram estimate Ĉ.
type Update struct {
	// T is the emission time — the timestamp of the row or advance the
	// emitting site was processing, not the (possibly older) timestamp the
	// direction summarizes. Per-site emission times are non-decreasing;
	// the pipeline applies updates in global (T, Site) order.
	T int64
	// Site is the emitting site.
	Site int
	// Scale and V describe the rank-one update Scale·VVᵀ. V is immutable
	// after emission (the protocols emit freshly factored directions).
	Scale float64
	V     []float64
}

// Emit receives coordinator updates emitted during site-local work, in
// emission order. The emission time and site are stamped by the caller
// that owns the processing context (sequential wrapper or pipeline lane).
type Emit func(scale float64, v []float64)

// OneWay is implemented by the one-way deterministic trackers. It exposes
// the site-local/coordinator split that Tracker's synchronous Observe
// hides:
//
//   - ObserveSite and AdvanceSite run only site-local state transitions
//     (histogram upkeep, FD shrink, spectral tests) and emit the resulting
//     coordinator updates. Calls for distinct sites may run concurrently;
//     calls for one site must be serialized, with per-site non-decreasing
//     timestamps.
//   - Apply folds one emitted update into the coordinator state. All
//     Apply calls must come from a single goroutine, in non-decreasing
//     (T, Site) order. The coordinator state is a pure fold of the
//     applied updates: reads never change it.
//
// Observe(site, r) must be equivalent to ObserveSite(site, r, apply-inline)
// so the sequential path and a (T, site)-ordered parallel apply produce
// bit-identical coordinator state.
type OneWay interface {
	Tracker
	ObserveSite(site int, r stream.Row, emit Emit)
	AdvanceSite(site int, now int64, emit Emit)
	Apply(u Update)
}
