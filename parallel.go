package distwindow

import (
	"fmt"
	"math"
	"time"

	"distwindow/internal/obs"
	"distwindow/internal/protocol"
	"distwindow/internal/stream"
)

// laneState is one site's facade-side ingestion state in parallel mode: the
// per-site counterparts of the sequential Tracker's maxT/delivered/latTick
// fields. Each laneState is touched only by its site's worker goroutine.
type laneState struct {
	// maxT is the highest timestamp seen at this site; delivered the
	// highest handed to the inner protocol. Both start at math.MinInt64.
	maxT      int64
	delivered int64
	// curT is the timestamp of the row or advance being processed; the
	// emit adapter stamps emissions with it.
	curT int64
	emit protocol.Emit
	// latTick drives per-site latency sampling (the parallel counterpart
	// of the sequential latTick).
	latTick uint
}

// laneHandler adapts the Tracker's per-site ingestion logic to
// protocol.LaneHandler. The pipeline serializes calls per site, so the
// laneState needs no locking; everything shared across sites that the
// handler touches (obs counters, the network counters, the inner trackers'
// site arrays) is either atomic or site-partitioned.
type laneHandler struct{ t *Tracker }

// lane returns the site's state, binding the emit adapter on first use
// (the pipeline passes the same EmitAt for the lane's whole lifetime).
func (h laneHandler) lane(site int, emitAt protocol.EmitAt) *laneState {
	ls := &h.t.lanes[site]
	if ls.emit == nil {
		ls.emit = func(scale float64, v []float64) { emitAt(ls.curT, scale, v) }
	}
	return ls
}

func (h laneHandler) HandleRow(site int, tt int64, v []float64, emitAt protocol.EmitAt) int64 {
	t := h.t
	ls := h.lane(site, emitAt)
	if t.skew == nil {
		if tt < ls.maxT {
			t.staleDrops.Inc()
			t.dropEvent(site, tt)
			return ls.delivered
		}
		ls.maxT = tt
		t.laneDeliver(ls, site, stream.Row{T: tt, V: v})
		return ls.delivered
	}
	if tt > ls.maxT {
		ls.maxT = tt
	}
	// v aliases a block of the lane's ring, which the next enqueue may
	// refill once this call returns; the skew buffer outlives it, so copy.
	released, ok := t.skew[site].Add(stream.Row{T: tt, V: append([]float64(nil), v...)})
	if !ok {
		t.skewDropped.Inc()
		t.dropEvent(site, tt)
		return ls.delivered
	}
	for _, rr := range released {
		if rr.T < ls.delivered {
			t.skewDropped.Inc()
			t.dropEvent(site, rr.T)
			continue
		}
		t.laneDeliver(ls, site, rr)
	}
	return ls.delivered
}

func (h laneHandler) HandleAdvance(site int, now int64, emitAt protocol.EmitAt) int64 {
	t := h.t
	ls := h.lane(site, emitAt)
	if now > ls.maxT {
		ls.maxT = now
	}
	if now > ls.delivered {
		ls.delivered = now
	}
	ls.curT = now
	t.ow.AdvanceSite(site, now, ls.emit)
	return ls.delivered
}

func (h laneHandler) HandleFlush(site int, emitAt protocol.EmitAt) int64 {
	t := h.t
	ls := h.lane(site, emitAt)
	if t.skew != nil {
		for _, rr := range t.skew[site].Flush() {
			if rr.T < ls.delivered {
				t.skewDropped.Inc()
				t.dropEvent(site, rr.T)
				continue
			}
			t.laneDeliver(ls, site, rr)
		}
	}
	return ls.delivered
}

// laneDeliver hands one in-order row to the site half of the protocol with
// sampled latency accounting — the parallel counterpart of deliver. Trace
// and audit hooks are absent by construction (WithParallel rejects them).
func (t *Tracker) laneDeliver(ls *laneState, site int, r stream.Row) {
	ls.curT = r.T
	ls.latTick++
	if ls.latTick&latSampleMask == 0 {
		start := time.Now()
		t.ow.ObserveSite(site, r, ls.emit)
		t.updateLat.Observe(time.Since(start))
	} else {
		t.ow.ObserveSite(site, r, ls.emit)
	}
	t.rows.Inc()
	ls.delivered = r.T
}

// dropEvent reports one dropped row to the sink, if any.
func (t *Tracker) dropEvent(site int, tt int64) {
	if t.sink != nil {
		t.sink.OnEvent(obs.Event{Kind: obs.EvSkewDrop, Site: site, T: tt, N: 1})
	}
}

// startParallel wires the ingestion pipeline under the facade; New calls it
// after applying the other options so the compatibility checks see the
// final configuration. every overrides the coordinator's publication
// cadence (≤0 means publishEvery).
func (t *Tracker) startParallel(workers, ringSize, every int) error {
	if t.tracer != nil || t.aud != nil {
		return fmt.Errorf("%w: tracing and auditing require the sequential path", ErrParallelUnsupported)
	}
	ow, ok := t.inner.(protocol.OneWay)
	if !ok {
		return fmt.Errorf("%w: protocol %s is not one-way deterministic", ErrParallelUnsupported, t.inner.Name())
	}
	t.ow = ow
	t.lanes = make([]laneState, t.cfg.Sites)
	t.batch = make([][]stream.Row, t.cfg.Sites)
	for i := range t.lanes {
		t.lanes[i].maxT = math.MinInt64
		t.lanes[i].delivered = math.MinInt64
	}
	// The apply wrapper tracks the coordinator's watermark; it runs only on
	// the pipeline's coordinator goroutine, in global (T, site) order.
	apply := func(u protocol.Update) {
		t.lastAppliedT = u.T
		ow.Apply(u)
	}
	if every <= 0 {
		every = publishEvery
	}
	// Publish from the coordinator goroutine, the only place the
	// coordinator state is whole between applies. Cadence counts applied
	// updates: a pass that applies nothing leaves the state — and therefore
	// the latest snapshot — unchanged, so idle passes return without
	// copying anything. since is coordinator-local; the facade's drain-time
	// publications are barrier-separated from it.
	var since int
	postApply := func(applied int) {
		if applied == 0 {
			return
		}
		since += applied
		if since >= every {
			since = 0
			t.publishAt(t.lastAppliedT)
		}
	}
	pcfg := protocol.PipelineConfig{Workers: workers, RingSize: ringSize, PostApply: postApply}
	t.pipe = protocol.NewPipeline(t.cfg.Sites, laneHandler{t}, apply, pcfg)
	return nil
}

// Parallel reports whether the tracker was built with WithParallel.
func (t *Tracker) Parallel() bool { return t.pipe != nil }

// ParallelWorkers returns the number of pipeline worker goroutines, or 0
// for a sequential tracker.
func (t *Tracker) ParallelWorkers() int {
	if t.pipe == nil {
		return 0
	}
	return t.pipe.Workers()
}

// Drain blocks until every row already handed to TryObserve has been
// processed by its site and applied at the coordinator, then publishes a
// caught-up snapshot, so Snapshot, Metrics and Stats reflect all prior
// input when Drain returns. Drain must not run concurrently with observe
// calls in parallel mode (quiesce the feeders first); on a sequential
// tracker every ingest call is already synchronous, and Drain only
// publishes — when rows or the clock moved since the current version.
func (t *Tracker) Drain() {
	t.gate.Lock()
	defer t.gate.Unlock()
	t.catchUp(false)
}

// Close publishes a final caught-up snapshot and stops the pipeline
// goroutines. The tracker's queries, metrics and previously returned
// snapshots remain usable afterwards; ingest calls return ErrClosed, and
// Advance and FlushSkew do nothing. Close is idempotent; on a sequential
// tracker it only publishes and marks the tracker closed (see Closed).
func (t *Tracker) Close() {
	if t.closed.Load() {
		return
	}
	t.gate.Lock()
	defer t.gate.Unlock()
	if t.closed.Load() {
		return
	}
	t.catchUp(false)
	if t.pipe != nil {
		t.pipe.Close()
	}
	t.closed.Store(true)
}
