package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects a run's metrics, notes and checks.
type report struct {
	metrics   map[string]metric
	notes     []string
	attempted int64
	failed    int64
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

// set records a metric value.
func (r *report) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

// note records a detail line printed before the result.
func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// ops counts operations attempted and failed (ingests, queries, sends).
func (r *report) ops(attempted, failed int64) {
	r.attempted += attempted
	r.failed += failed
}

// check records one correctness check; a failed check counts as a failed
// attempt and fails the run.
func (r *report) check(name string, ok bool, format string, args ...any) {
	r.attempted++
	status := "ok"
	if !ok {
		r.failed++
		status = "FAILED"
	}
	r.note("check %s %s: %s", name, status, fmt.Sprintf(format, args...))
}

// tail records the median of a latency sample set as p50Name and notes
// its p99, stating the sample count. The p99 is given only with at least
// minBeyond samples beyond it. See p99.
func (r *report) tail(p50Name, p99Name, unit string, samples []time.Duration, scale time.Duration) {
	xs := durations(samples, scale)
	v99, q99, windows := p99(xs)
	q50 := percentile(xs, 0.50)
	if q50.N == 0 {
		return
	}
	r.set(p50Name, unit, q50.Value)
	if !q99.ok() {
		r.note("%s=%.4g %s (n=%d); %s not reported: %d beyond it, need %d", p50Name, q50.Value, unit, q99.N, p99Name, q99.Beyond, minBeyond)
		return
	}
	r.note("%s=%.4g %s %s=%.4g %s (n=%d, %d beyond p99, median of %d windows)", p50Name, q50.Value, unit, p99Name, v99, unit, q99.N, q99.Beyond, windows)
}

// tailAt records the highest percentile, up to p99, that has at least
// minBeyond samples beyond it: the traced run's view of an end-to-end
// tail, whose shorter passes may hold fewer than 1,000 samples.
func (r *report) tailAt(name, unit string, samples []time.Duration, scale time.Duration) {
	n := len(samples)
	if n == 0 {
		return
	}
	q := math.Min(0.99, 1-float64(minBeyond)/float64(n))
	if q <= 0 {
		q = 1 // fewer than minBeyond samples: the maximum, noted as such
	}
	p := percentile(durations(samples, scale), q)
	r.set(name, unit, p.Value)
	r.note("%s=%.4g %s (p%.4g of n=%d, %d beyond)", name, p.Value, unit, 100*q, p.N, p.Beyond)
}

// p99Window is the sample count of one window of p99: the smallest with
// minBeyond samples beyond its p99.
const p99Window = 100 * minBeyond

// p99 returns the p99 of xs (in time order) and the whole-set quantile the
// sample rule is checked on. With at least three windows of p99Window
// consecutive samples, the value is the median of the windows' p99s, each
// meeting the rule on its own: one stall of the machine then moves one
// window instead of the run's whole tail. windows is 1 otherwise.
func p99(xs []float64) (v float64, whole quantile, windows int) {
	n := len(xs)
	if k := n / p99Window; k >= 3 {
		per := make([]float64, k)
		size := n / k
		for i := range per {
			w := append([]float64(nil), xs[i*size:(i+1)*size]...)
			per[i] = percentile(w, 0.99).Value
		}
		whole = percentile(append([]float64(nil), xs...), 0.99)
		return median(per), whole, k
	}
	whole = percentile(xs, 0.99)
	return whole.Value, whole, 1
}

// emit prints the notes, a line per metric and the result line. wanted
// lists the metrics this mode reports; one that applies to the workload
// but is missing or non-finite is a failed check. The result line carries
// only the metrics of every workload, the ones BENCHMARK.json lists; the
// returned map holds every metric printed, for the run record.
func (r *report) emit(w io.Writer, workload string, wanted []metricSpec) (result, map[string]metric) {
	all, out := map[string]metric{}, map[string]metric{}
	for _, m := range wanted {
		if !m.appliesTo(workload) {
			continue
		}
		v, ok := r.metrics[m.Name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			r.check("metric."+m.Name, false, "not measured")
			continue
		}
		all[m.Name] = v
		if m.listed() {
			out[m.Name] = v
		}
	}
	if r.attempted > 0 {
		r.note("failed_ratio=%g (%d failed of %d attempted)", float64(r.failed)/float64(r.attempted), r.failed, r.attempted)
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	names := make([]string, 0, len(all))
	for k := range all {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "metric %s = %v %s\n", k, all[k].Value, all[k].Unit)
	}
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: out}
	if res.Attempted < 1 {
		res.Attempted = 1
	}
	b, _ := json.Marshal(res) // only finite floats and strings: cannot fail
	fmt.Fprintln(w, string(b))
	return res, all
}
