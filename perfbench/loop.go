package main

import (
	"math"
	"time"

	"distwindow/internal/stream"
	"distwindow/mat"
)

// chunkRows is how many rows a closed loop ingests between the benchmark's
// own work (generation, exact-window upkeep, checks), which happens
// outside the timed interval.
const chunkRows = 512

// target is what a closed loop drives: rows one at a time, and an exact
// read of the coordinator's sketch at each covariance check.
type target struct {
	observe func(ev stream.Event) error
	// sync, when set, completes the ingest work still in flight (a parallel
	// tracker's drain) before a check reads the sketch, and once more when
	// the loop ends. Its time counts in the ingest rate, which is then
	// measured per check interval: each sync settles the rows handed over
	// since the last one.
	sync  func()
	query func() *mat.Dense
	words func() int64
}

// loopOpts configures a closed loop.
type loopOpts struct {
	dur       time.Duration // busy time to measure
	checkRows int           // rows between covariance-error checks
	track     *track        // nil = untraced
	// refCores is how many cores the loop's load runs on, the reference
	// probe's width (0 = no probe). The probe runs after every chunk, or,
	// for a target with sync, after each sync, when no ingest work is in
	// flight.
	refCores int
}

// loopResult is what a closed loop measured.
type loopResult struct {
	rows, failed int64
	meter        *rateMeter
	maxErr       float64
	checks       int
	words        int64 // words sent during the loop
	t0, t1       int64 // first and last timestamp ingested
	busy         time.Duration
	allocs       float64
	gcShare      float64
}

// runLoop ingests rows from src into tgt in a closed loop until opts.dur
// of busy time has passed. Every checkRows rows it reads the sketch and
// checks its covariance error against the exact window, outside the timed
// interval.
func runLoop(src *source, tgt target, exact *exactWindow, o loopOpts) loopResult {
	slice := 250 * time.Millisecond
	if tgt.sync != nil {
		slice = math.MaxInt64 // one slice per check interval, cut below
	}
	res := loopResult{meter: newRateMeter(slice), t0: src.lastT}
	var probe *refProbe
	if o.refCores > 0 {
		probe = newRefProbe(o.refCores)
	}
	words0 := tgt.words()
	root := o.track.begin("bench.loop")
	sinceCheck := 0
	mark := markRuntime()
	for res.busy < o.dur {
		sp := o.track.begin("bench.gen")
		chunk := src.next(chunkRows)
		o.track.end(sp)
		c0 := time.Now()
		for _, ev := range chunk {
			if err := tgt.observe(ev); err != nil {
				res.failed++
			}
		}
		el := time.Since(c0)
		res.busy += el
		res.rows += int64(len(chunk))
		if probe != nil && tgt.sync == nil {
			res.meter.ref(probe.speed())
		}
		res.meter.add(float64(len(chunk)), el)
		sinceCheck += len(chunk)
		// A run too short to reach a check point checks at its end.
		due := o.checkRows > 0 && (sinceCheck >= o.checkRows || (res.busy >= o.dur && res.checks == 0))
		if due && tgt.sync != nil {
			s0 := time.Now()
			tgt.sync()
			d := time.Since(s0)
			res.busy += d
			res.meter.add(0, d)
			var speed float64
			if probe != nil {
				// The fastest of a few probes: right after a drain the
				// runtime may still be collecting on one of the cores, which
				// only ever slows a probe.
				for i := 0; i < 3; i++ {
					speed = max(speed, probe.speed())
				}
				res.meter.ref(speed)
			}
			res.meter.cut()
			if probe != nil {
				// The next interval starts at this speed too: its reference
				// is the mean of the speeds at its two ends.
				res.meter.ref(speed)
			}
		}
		sp = o.track.begin("bench.check")
		exact.add(chunk)
		if due {
			sinceCheck = 0
			if e := exact.covErr(src.lastT, tgt.query()); e > res.maxErr {
				res.maxErr = e
			}
			res.checks++
		}
		o.track.end(sp)
	}
	if tgt.sync != nil {
		tgt.sync()
	}
	o.track.end(root)
	res.allocs = mark.allocsSince()
	res.gcShare = mark.gcShareSince()
	res.words = tgt.words() - words0
	res.t1 = src.lastT
	return res
}

// windows is how many window lengths the loop's timestamps spanned.
func (r loopResult) windows(w int64) float64 { return float64(r.t1-r.t0) / float64(w) }
