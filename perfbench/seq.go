package main

import (
	"fmt"
	"sort"
	"time"

	"distwindow"
	"distwindow/internal/core"
	"distwindow/internal/protocol"
	"distwindow/internal/stream"
	"distwindow/mat"
)

// da1Params is the paper's default setting (§IV): m=20 sites, ε=0.05, on
// SYNTHETIC rows of dimension 32.
var da1Params = params{proto: distwindow.DA1, d: 32, sites: 20, eps: 0.05, rpw: 10_000}

// facadeTarget drives a sequential facade tracker row by row.
func facadeTarget(tr *distwindow.Tracker) target {
	return target{
		observe: func(ev stream.Event) error { return tr.TryObserve(ev.Site, row(ev)) },
		query:   tr.Sketch,
		words:   func() int64 { return tr.Stats().TotalWords() },
	}
}

// coreRunner runs a core one-way tracker directly: ObserveSite with an
// emit callback that applies each update at the coordinator. Wrapping both
// gives the site step's self time (ObserveSite minus the emit callback)
// and the apply time per update.
type coreRunner struct {
	ow      protocol.OneWay
	tk      *track
	updates int64
	curT    int64
	curSite int
	emit    protocol.Emit
}

func newCoreRunner(p params, tk *track) (*coreRunner, error) {
	net := protocol.NewNetwork(p.sites)
	ccfg := core.Config{D: p.d, W: p.W(), Eps: p.eps, Sites: p.sites, Seed: 1}
	var (
		ow  protocol.OneWay
		err error
	)
	switch p.proto {
	case distwindow.DA1:
		ow, err = core.NewDA1(ccfg, net)
	case distwindow.DA2:
		ow, err = core.NewDA2(ccfg, net)
	default:
		err = fmt.Errorf("no core runner for %s", p.proto)
	}
	if err != nil {
		return nil, err
	}
	c := &coreRunner{ow: ow, tk: tk}
	c.emit = func(scale float64, v []float64) {
		sp := c.tk.begin("core.apply")
		c.ow.Apply(protocol.Update{T: c.curT, Site: c.curSite, Scale: scale, V: v})
		c.tk.end(sp)
		c.updates++
	}
	return c, nil
}

func (c *coreRunner) target() target {
	return target{
		observe: func(ev stream.Event) error {
			c.curT, c.curSite = ev.Row.T, ev.Site
			sp := c.tk.begin("core.site_step")
			c.ow.ObserveSite(ev.Site, ev.Row, c.emit)
			c.tk.end(sp)
			return nil
		},
		query: func() *mat.Dense {
			sp := c.tk.begin("core.query")
			b := c.ow.Sketch()
			c.tk.end(sp)
			return b
		},
		words: func() int64 { return c.ow.Stats().TotalWords() },
	}
}

// prefill feeds one window of rows untimed, so the measured phase starts
// with expiry live, and returns them for the exact window.
func prefill(src *source, rows int, observe func(stream.Event) error) ([]stream.Event, error) {
	pre := src.take(rows)
	for _, ev := range pre {
		if err := observe(ev); err != nil {
			return nil, fmt.Errorf("prefill: %w", err)
		}
	}
	return pre, nil
}

// runDA1Seq is the da1-seq workload: DA1, sequential, row-at-a-time
// TryObserve in a closed loop.
func runDA1Seq(e env, r *report) error {
	p := da1Params
	var (
		src   *source
		tr    *distwindow.Tracker
		exact *exactWindow
		setup []float64
	)
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		src = newSource(p.d, p.sites, p.rpw, e.seed)
		var err error
		if tr, err = distwindow.New(p.config()); err != nil {
			return err
		}
		pre, err := prefill(src, p.rpw, facadeTarget(tr).observe)
		if err != nil {
			return err
		}
		setup = append(setup, time.Since(t0).Seconds())
		exact = newExactWindow(p.d, p.W())
		exact.add(pre)
	}
	if e.trace {
		return traceSeq(e, r, p, src, tr, exact)
	}
	res := runLoop(src, facadeTarget(tr), exact, loopOpts{dur: e.dur(), checkRows: p.rpw / 2, refCores: 1})
	r.set("setup_s", "s", median(setup))
	r.ops(res.rows, res.failed)
	r.set("ingest_rows_per_kref", "rows/kref", res.meter.medianKref())
	r.set("ingest_rows_per_s", "rows/s", res.meter.median())
	r.set("words_per_window", "words", float64(res.words)/res.windows(p.W()))
	r.set("site_space_words", "words", float64(tr.Stats().MaxSiteWords))
	r.set("max_cov_err", "ratio", res.maxErr)
	if hwm, err := procHWM(0); err == nil {
		r.set("peak_rss_mb", "MB", hwm)
	}
	r.check("max_cov_err", res.checks > 0 && res.maxErr <= p.covLimit(), "max %.4g over %d query points, limit 2ε=%g", res.maxErr, res.checks, p.covLimit())
	r.check("ingest_errors", res.failed == 0, "%d of %d rows refused", res.failed, res.rows)
	r.note("rows=%d busy=%v windows=%.2f", res.rows, res.busy.Round(time.Millisecond), res.windows(p.W()))
	return nil
}

// traceSeq is the traced mode of a sequential workload: the same closed
// loop over the core tracker, once untraced and once with spans at the
// ObserveSite/emit/query boundaries, plus the isolated layer replays.
func traceSeq(e env, r *report, p params, src *source, tr *distwindow.Tracker, exact *exactWindow) error {
	third := e.dur() / 3
	// The facade pass gives the workload's runtime figures.
	fres := runLoop(src, facadeTarget(tr), exact, loopOpts{dur: third, checkRows: p.rpw / 2})
	r.set("runtime.allocs_per_row", "allocs/row", fres.allocs/float64(fres.rows))
	r.set("runtime.gc_cpu_share", "ratio", fres.gcShare)
	r.check("facade_cov_err", fres.maxErr <= p.covLimit(), "max %.4g", fres.maxErr)

	tc := newTracer()
	var rates [2]float64
	var traced loopResult
	for i, tk := range []*track{nil, tc.track("feeder")} {
		src := newSource(p.d, p.sites, p.rpw, e.seed)
		cd, err := newCoreRunner(p, tk)
		if err != nil {
			return err
		}
		// Prefill untraced; spans start with the measured phase.
		cd.tk = nil
		pre, err := prefill(src, p.rpw, cd.target().observe)
		if err != nil {
			return err
		}
		cd.tk = tk
		ex := newExactWindow(p.d, p.W())
		ex.add(pre)
		u0 := cd.updates
		res := runLoop(src, cd.target(), ex, loopOpts{dur: third, checkRows: p.rpw / 2, track: tk})
		rates[i] = res.meter.median()
		r.check(fmt.Sprintf("core_cov_err[%d]", i), res.maxErr <= p.covLimit(), "max %.4g", res.maxErr)
		if tk != nil {
			traced = res
			lt := tc.times("feeder")
			rows := float64(res.rows)
			r.set("core.site_step_ns_per_row", "ns", float64(lt.Self["core.site_step"])/rows)
			r.set("core.apply_ns_per_update", "ns", perCall(lt, "core.apply"))
			r.set("core.updates_per_krow", "updates/krow", float64(cd.updates-u0)/rows*1000)
			stageCheck(r, lt)
		}
	}
	r.set("bench.trace_overhead_pct", "pct", (rates[0]/rates[1]-1)*100)
	r.note("traced core pass: rows=%d untraced=%.0f rows/s traced=%.0f rows/s", traced.rows, rates[0], rates[1])
	if err := tc.write(spanPath(e, "da1-seq")); err != nil {
		return err
	}
	return probeLayers(e, r, p, false)
}

// perCall is a span name's self time per call in nanoseconds.
func perCall(lt layerTimes, name string) float64 {
	if lt.Calls[name] == 0 {
		return 0
	}
	return float64(lt.Self[name]) / float64(lt.Calls[name])
}

// stageCheck records the stage-sum check and the unattributed share.
func stageCheck(r *report, lt layerTimes) {
	share, ok := stageSum(lt)
	r.set("bench.unattributed_share", "ratio", share)
	inProgram := lt.Wall - lt.Bench
	var parts []string
	for k, v := range lt.Self {
		parts = append(parts, fmt.Sprintf("%s=%.1f%%", k, 100*float64(v)/float64(inProgram)))
	}
	sort.Strings(parts)
	r.check("stage_sum", ok, "layer self times cover %.2f%% of %v traced in the program's calls (tolerance ±%.0f%%; %v of benchmark work left out): %v",
		100*(1-share), inProgram.Round(time.Millisecond), 100*stageSumTolerance, lt.Bench.Round(time.Millisecond), parts)
}
