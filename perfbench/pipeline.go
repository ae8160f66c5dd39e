package main

import (
	"fmt"
	"math"
	"time"

	"distwindow"
	"distwindow/internal/stream"
	"distwindow/mat"
)

// da2Params runs DA2 on da1-seq's stream: ℓ = ⌈1/ε⌉ = 20, the IWMT/FD cost
// cliff.
var da2Params = params{proto: distwindow.DA2, d: 32, sites: 20, eps: 0.05, rpw: 10_000}

// batchRows is the run length the feeder hands to ObserveBatch per site.
const batchRows = 64

// pipelineWorkers is the WithParallel worker count (the 2-core target).
const pipelineWorkers = 2

// feeder is da2-pipeline's single feeder goroutine: it stages each site's
// rows and hands them over in 64-row ObserveBatch runs.
type feeder struct {
	tr    *distwindow.Tracker
	tk    *track
	stage [][]distwindow.Row

	handed   int64
	failed   int64
	batchLat []time.Duration // each ObserveBatch call, ring backpressure included
	drains   []time.Duration
}

func newFeeder(tr *distwindow.Tracker, sites int) *feeder {
	return &feeder{tr: tr, stage: make([][]distwindow.Row, sites)}
}

func (f *feeder) push(ev stream.Event) error {
	f.stage[ev.Site] = append(f.stage[ev.Site], row(ev))
	if len(f.stage[ev.Site]) == batchRows {
		f.flush(ev.Site)
	}
	return nil
}

func (f *feeder) flush(site int) {
	rows := f.stage[site]
	if len(rows) == 0 {
		return
	}
	a := time.Now()
	sp := f.tk.begin("protocol.observe_batch")
	n, err := f.tr.ObserveBatch(site, rows)
	f.tk.end(sp)
	f.batchLat = append(f.batchLat, time.Since(a))
	if err != nil || n != len(rows) {
		f.failed++
	}
	f.handed += int64(len(rows))
	f.stage[site] = rows[:0]
}

// drain hands over every staged row, partial runs included, then waits
// until the pipeline has applied them all. With no older row left staged,
// each drain covers a prefix of the stream and the coordinator applies
// updates in the global (T, site) order a sequential tracker uses. (A
// parallel tracker needs only per-site order: draining with older rows
// still staged would feed it another order, not expose a fault.)
func (f *feeder) drain() {
	for s := range f.stage {
		f.flush(s)
	}
	a := time.Now()
	sp := f.tk.begin("protocol.drain")
	f.tr.Drain()
	f.tk.end(sp)
	f.drains = append(f.drains, time.Since(a))
}

func (f *feeder) target() target {
	return target{
		observe: f.push,
		sync:    f.drain,
		query: func() *mat.Dense {
			sp := f.tk.begin("distwindow.query")
			defer f.tk.end(sp)
			return f.tr.Sketch()
		},
		words: func() int64 { return f.tr.Stats().TotalWords() },
	}
}

// pipelineCheckRows is how many rows pass between two covariance checks,
// and so between two drains: two windows.
func pipelineCheckRows(p params) int { return 2 * p.rpw }

// newPipeline builds a parallel DA2 tracker over a fresh source and fills
// its window once.
func newPipeline(e env, p params) (*feeder, *source, *exactWindow, error) {
	src := newSource(p.d, p.sites, p.rpw, e.seed)
	tr, err := distwindow.New(p.config(), distwindow.WithParallel(pipelineWorkers))
	if err != nil {
		return nil, nil, nil, err
	}
	f := newFeeder(tr, p.sites)
	pre, err := prefill(src, p.rpw, f.push)
	if err != nil {
		tr.Close()
		return nil, nil, nil, err
	}
	f.drain()
	f.batchLat, f.drains, f.handed = nil, nil, 0
	exact := newExactWindow(p.d, p.W())
	exact.add(pre)
	return f, src, exact, nil
}

// runDA2Pipeline is the da2-pipeline workload: DA2 through WithParallel(2),
// one feeder handing 64-row ObserveBatch runs per site, a drain and an
// exact read every two windows, and a bit-identity check of the drained
// end state against a sequential replay of the same rows.
func runDA2Pipeline(e env, r *report) error {
	p := da2Params
	var (
		f     *feeder
		src   *source
		exact *exactWindow
		setup []float64
	)
	for i := 0; i < setupRepeats; i++ {
		if f != nil {
			f.tr.Close()
		}
		t0 := time.Now()
		var err error
		if f, src, exact, err = newPipeline(e, p); err != nil {
			return err
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	defer f.tr.Close()
	if e.trace {
		return tracePipeline(e, r, p, f, src, exact)
	}
	res := runLoop(src, f.target(), exact, loopOpts{dur: e.dur(), checkRows: pipelineCheckRows(p), refCores: pipelineWorkers})
	hwm, hwmErr := procHWM(0) // before the replay's own allocations
	rate := res.meter.median()
	r.set("setup_s", "s", median(setup))
	r.ops(int64(len(f.batchLat)), f.failed)
	r.set("ingest_rows_per_kref", "rows/kref", res.meter.medianKref())
	r.set("ingest_rows_per_s", "rows/s", rate)
	r.set("words_per_window", "words", float64(res.words)/res.windows(p.W()))
	r.set("site_space_words", "words", float64(f.tr.Stats().MaxSiteWords))
	r.set("max_cov_err", "ratio", res.maxErr)
	if hwmErr == nil {
		r.set("peak_rss_mb", "MB", hwm)
	}
	r.check("max_cov_err", res.checks > 0 && res.maxErr <= p.covLimit(), "max %.4g over %d query points, limit 2ε=%g", res.maxErr, res.checks, p.covLimit())
	r.check("ingest_errors", f.failed == 0, "%d of %d batches refused", f.failed, len(f.batchLat))
	seqRate, err := replayCheck(e, r, p, f.tr, res.rows)
	if err != nil {
		return err
	}
	r.note("rows=%d batches=%d drains=%d busy=%v; sequential replay %.0f rows/s, speedup %.2f",
		res.rows, len(f.batchLat), len(f.drains), res.busy.Round(time.Millisecond), seqRate, rate/seqRate)
	return nil
}

// replayCheck feeds the rows a parallel tracker was fed (one window of
// prefill, then rows measured rows) through a sequential tracker, and
// checks that the parallel tracker's drained Gram is bit-identical to the
// sequential one. It returns the replay's ingest rate, the single-threaded
// baseline.
func replayCheck(e env, r *report, p params, par *distwindow.Tracker, rows int64) (float64, error) {
	src := newSource(p.d, p.sites, p.rpw, e.seed)
	seq, err := distwindow.New(p.config())
	if err != nil {
		return 0, err
	}
	if _, err := prefill(src, p.rpw, facadeTarget(seq).observe); err != nil {
		return 0, err
	}
	var busy time.Duration
	for left := rows; left > 0; {
		chunk := src.next(int(min(left, chunkRows)))
		t0 := time.Now()
		for _, ev := range chunk {
			if err := seq.TryObserve(ev.Site, row(ev)); err != nil {
				return 0, fmt.Errorf("replay: %w", err)
			}
		}
		busy += time.Since(t0)
		left -= int64(len(chunk))
	}
	gp, _ := par.SketchGram()
	gs, _ := seq.SketchGram()
	diff := bitDiff(gp, gs)
	r.check("parallel_bit_identical", diff == 0, "%d of %d Gram entries differ from a sequential replay of the same %d rows",
		diff, p.d*p.d, int64(p.rpw)+rows)
	return float64(rows) / busy.Seconds(), nil
}

// bitDiff counts entries whose bits differ (all of them on a shape
// mismatch).
func bitDiff(a, b *mat.Dense) int {
	if a == nil || b == nil || a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		return math.MaxInt32
	}
	n := 0
	for i, x := range a.Data() {
		if math.Float64bits(x) != math.Float64bits(b.Data()[i]) {
			n++
		}
	}
	return n
}

// tracePipeline is da2-pipeline's traced mode: the loop untraced, the
// sequential replay of its rows (bit-identity and speedup), the loop again
// traced (spans around ObserveBatch, Drain and the exact read), then the
// isolated layer replays.
func tracePipeline(e env, r *report, p params, f *feeder, src *source, exact *exactWindow) error {
	half := e.dur() / 2
	res := runLoop(src, f.target(), exact, loopOpts{dur: half, checkRows: pipelineCheckRows(p)})
	r.set("runtime.allocs_per_row", "allocs/row", res.allocs/float64(res.rows))
	r.set("runtime.gc_cpu_share", "ratio", res.gcShare)
	untraced := res.meter.median()
	seqRate, err := replayCheck(e, r, p, f.tr, res.rows)
	if err != nil {
		return err
	}
	// The pipeline's rate per drain interval, drains included, against the
	// single-threaded replay of the same rows.
	r.set("protocol.speedup_vs_sequential", "ratio", untraced/seqRate)

	tc := newTracer()
	tf, tsrc, texact, err := newPipeline(e, p)
	if err != nil {
		return err
	}
	defer tf.tr.Close()
	tf.tk = tc.track("feeder")
	tres := runLoop(tsrc, tf.target(), texact, loopOpts{dur: half, checkRows: pipelineCheckRows(p), track: tf.tk})
	lt := tc.times("feeder")
	stageCheck(r, lt)
	traced := tres.meter.median()
	r.set("bench.trace_overhead_pct", "pct", (untraced/traced-1)*100)
	r.set("protocol.observe_batch_ns_per_row", "ns", float64(lt.Self["protocol.observe_batch"])/float64(tf.handed))
	r.set("protocol.observe_batch_p99_us", "us", percentile(durations(tf.batchLat, time.Microsecond), 0.99).Value)
	r.set("protocol.drain_ms", "ms", median(durations(tf.drains, time.Millisecond)))
	r.check("max_cov_err", res.maxErr <= p.covLimit() && tres.maxErr <= p.covLimit(),
		"max %.4g untraced, %.4g traced, limit 2ε=%g", res.maxErr, tres.maxErr, p.covLimit())
	r.note("untraced pass %d rows at %.0f rows/s, traced pass %d rows at %.0f rows/s, sequential replay %.0f rows/s",
		res.rows, untraced, tres.rows, traced, seqRate)
	if err := tc.write(spanPath(e, "da2-pipeline")); err != nil {
		return err
	}
	return probeLayers(e, r, p, false)
}
