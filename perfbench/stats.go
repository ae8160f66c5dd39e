package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the number of samples that must lie strictly beyond a
// reported percentile: a p99 needs at least 1000 samples.
const minBeyond = 10

// quantile is a nearest-rank percentile of a sample set.
type quantile struct {
	Value  float64
	N      int // samples in the set
	Beyond int // samples strictly above the rank the value was taken at
}

// ok reports whether the percentile has at least minBeyond samples beyond
// it, the rule a reported tail percentile must meet.
func (q quantile) ok() bool { return q.N > 0 && q.Beyond >= minBeyond }

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of xs. xs is
// sorted in place.
func percentile(xs []float64, q float64) quantile {
	n := len(xs)
	if n == 0 {
		return quantile{Value: math.NaN()}
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return quantile{Value: xs[rank-1], N: n, Beyond: n - rank}
}

// median returns the median of xs (mean of the middle two for even n). xs
// is sorted in place.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// durations converts a latency sample set to float64 in the given unit.
func durations(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// rateMeter records work done in fixed wall-clock slices so a run's rate
// is the median over slices, not one ratio that a single stall can drag.
// Each slice's rate is also taken per kref, against the reference speeds
// recorded in it (see ref.go).
type rateMeter struct {
	slice   time.Duration
	busy    time.Duration // time inside the current slice
	count   float64       // work inside the current slice
	refSum  float64       // reference speeds recorded in the current slice
	refN    int
	lastRef float64   // the latest reference speed, for a slice without one
	sample  []float64 // per-slice rates, work per second of busy time
	kref    []float64 // per-slice rates, work per kref
}

func newRateMeter(slice time.Duration) *rateMeter { return &rateMeter{slice: slice} }

// ref records a reference speed (kernel runs per second) measured on the
// cores the load of the current slice ran on. Record it before the add
// that may close the slice.
func (m *rateMeter) ref(speed float64) {
	m.refSum += speed
	m.refN++
	m.lastRef = speed
}

// add records work done over a busy interval of length d.
func (m *rateMeter) add(work float64, d time.Duration) {
	m.count += work
	m.busy += d
	if m.busy >= m.slice {
		m.cut()
	}
}

// cut closes the current slice however short it is, so a caller can make
// each slice one unit of work.
func (m *rateMeter) cut() {
	if m.busy > 0 {
		rate := m.count / m.busy.Seconds()
		m.sample = append(m.sample, rate)
		if ref := m.sliceRef(); ref > 0 {
			m.kref = append(m.kref, perKref(rate, ref))
		}
		m.count, m.busy, m.refSum, m.refN = 0, 0, 0, 0
	}
}

// sliceRef is the mean reference speed of the current slice, or the latest
// one when none was recorded in it (0 when none ever was).
func (m *rateMeter) sliceRef() float64 {
	if m.refN > 0 {
		return m.refSum / float64(m.refN)
	}
	return m.lastRef
}

// median is the median per-slice rate (the open remainder's rate when no
// slice has completed).
func (m *rateMeter) median() float64 {
	if len(m.sample) == 0 {
		if m.busy > 0 {
			return m.count / m.busy.Seconds()
		}
		return math.NaN()
	}
	return median(append([]float64(nil), m.sample...))
}

// medianKref is the median per-slice rate per kref (NaN when no reference
// speed was recorded).
func (m *rateMeter) medianKref() float64 {
	if len(m.kref) == 0 {
		if ref := m.sliceRef(); m.busy > 0 && ref > 0 {
			return perKref(m.count/m.busy.Seconds(), ref)
		}
		return math.NaN()
	}
	return median(append([]float64(nil), m.kref...))
}
