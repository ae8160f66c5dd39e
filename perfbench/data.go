package main

import (
	"runtime"
	"sort"

	"distwindow/internal/datagen"
	"distwindow/internal/stream"
	"distwindow/internal/window"
	"distwindow/mat"
)

// ticksPerRow is datagen's mean arrival gap: W = rowsPerWindow·ticksPerRow.
const ticksPerRow = 1000

// source streams SYNTHETIC rows (datagen.Synthetic: three low-rank regimes
// per epoch, each with a fresh random basis, each row at a random site)
// for as long as a run asks. Epochs are generated on demand, outside any
// timed interval, and stamped onto one continuous timeline. Equal seeds
// give equal streams.
type source struct {
	d, sites, rpw int
	seed          int64
	epochRows     int

	epoch int
	buf   []stream.Event
	pos   int
	tOff  int64
	lastT int64
}

// newSource returns a stream of d-dimensional rows spread over sites, with
// a regime change every window (three regimes per three-window epoch).
func newSource(d, sites, rowsPerWindow int, seed int64) *source {
	return &source{d: d, sites: sites, rpw: rowsPerWindow, seed: seed, epochRows: 3 * rowsPerWindow}
}

// W is the window length in ticks.
func (s *source) W() int64 { return int64(s.rpw) * ticksPerRow }

// next returns up to n further events. The slice and rows are owned by
// the source's epoch buffer and stay valid (they are never overwritten).
func (s *source) next(n int) []stream.Event {
	if s.pos == len(s.buf) {
		ds := datagen.Synthetic(s.d, datagen.Config{
			N: s.epochRows, RowsPerWindow: s.rpw, Sites: s.sites,
			Seed: s.seed*1_000_003 + int64(s.epoch),
		})
		s.epoch++
		s.buf, s.pos = ds.Events, 0
		s.tOff = s.lastT + ticksPerRow
		for i := range s.buf {
			s.buf[i].Row.T += s.tOff
		}
		// datagen's quantized arrivals give some rows of different sites
		// one timestamp. Those go in site order, the order a parallel
		// tracker applies them in, so that it and a sequential tracker fed
		// in arrival order see the same input.
		sort.SliceStable(s.buf, func(i, j int) bool {
			a, b := s.buf[i], s.buf[j]
			return a.Row.T < b.Row.T || (a.Row.T == b.Row.T && a.Site < b.Site)
		})
		// Collect generation garbage now, outside any timed interval, so the
		// program under test does not pay GC assists for the benchmark's
		// own allocations.
		runtime.GC()
	}
	end := s.pos + n
	if end > len(s.buf) {
		end = len(s.buf)
	}
	out := s.buf[s.pos:end]
	s.pos = end
	if len(out) > 0 {
		s.lastT = out[len(out)-1].Row.T
	}
	return out
}

// take returns exactly n further events, crossing epochs as needed.
func (s *source) take(n int) []stream.Event {
	out := make([]stream.Event, 0, n)
	for len(out) < n {
		out = append(out, s.next(n-len(out))...)
	}
	return out
}

// exactWindow is the ground truth for the covariance-error check: the
// internal/window exact window over the union of all sites' rows.
type exactWindow struct {
	d   int
	win *window.Exact
}

func newExactWindow(d int, w int64) *exactWindow {
	return &exactWindow{d: d, win: window.NewExact(w)}
}

// add feeds rows (in timestamp order) into the exact window.
func (e *exactWindow) add(evs []stream.Event) {
	for _, ev := range evs {
		e.win.Add(ev.Row)
	}
}

// covErr is ‖A_wᵀA_w − BᵀB‖₂/‖A_w‖_F² for sketch b at time now.
func (e *exactWindow) covErr(now int64, b *mat.Dense) float64 {
	e.win.Advance(now)
	return e.win.CovErr(e.d, b)
}
