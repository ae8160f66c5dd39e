package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func TestPercentileTailRule(t *testing.T) {
	for _, c := range []struct {
		n      int
		beyond int
		ok     bool
	}{
		{n: 999, beyond: 9, ok: false},
		{n: 1000, beyond: 10, ok: true},
		{n: 1500, beyond: 15, ok: true},
		{n: 10, beyond: 0, ok: false},
	} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(c.n - i) // reversed: percentile must sort
		}
		q := percentile(xs, 0.99)
		if q.Beyond != c.beyond || q.ok() != c.ok {
			t.Errorf("n=%d: beyond=%d ok=%v, want %d %v", c.n, q.Beyond, q.ok(), c.beyond, c.ok)
		}
		if want := float64(c.n - c.beyond); q.Value != want {
			t.Errorf("n=%d: p99=%v, want nearest rank %v", c.n, q.Value, want)
		}
	}
	if q := percentile(nil, 0.5); !math.IsNaN(q.Value) || q.ok() {
		t.Errorf("empty set: %+v", q)
	}
}

func TestReportWithholdsThinTail(t *testing.T) {
	r := newReport()
	r.tail("p50", "p99", "ms", make([]time.Duration, 500), time.Millisecond)
	if _, ok := r.metrics["p50"]; !ok {
		t.Error("p50 missing")
	}
	if !strings.Contains(strings.Join(r.notes, "\n"), "p99 not reported") {
		t.Errorf("500 samples: notes %q, want the p99 withheld", r.notes)
	}
	r.tailAt("tail", "ms", make([]time.Duration, 500), time.Millisecond)
	if !strings.Contains(r.notes[len(r.notes)-1], "p98 of n=500, 10 beyond") {
		t.Errorf("tailAt note %q, want the highest percentile with 10 beyond", r.notes[len(r.notes)-1])
	}
}

// fakeClock advances only when the fake server works or the generator
// sleeps, so a test controls exactly when each request is served.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time { return c.now }
func (c *fakeClock) SleepUntil(t time.Time) {
	if t.After(c.now) {
		c.now = t
	}
}

func TestOpenLoopTimesFromDueUnderStall(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	start := clk.now
	ms := time.Millisecond
	// The server answers in 1ms, except request 2, which stalls for 100ms.
	ol := runOpenLoop(clk, start, 10*ms, start.Add(200*ms), func(k int) func() error {
		return func() error {
			if k == 2 {
				clk.now = clk.now.Add(100 * ms)
			} else {
				clk.now = clk.now.Add(ms)
			}
			return nil
		}
	}, nil)
	if ol.attempted != 20 {
		t.Fatalf("attempted %d, want 20: the schedule must not slow down", ol.attempted)
	}
	// Request 3 was due at 30ms but could only be sent at 120ms: its
	// latency counts the wait, its service time does not.
	if got := ol.lat[3]; got != 91*ms {
		t.Errorf("request 3 latency %v, want 91ms from its due time", got)
	}
	if got := ol.late[3]; got != 90*ms {
		t.Errorf("request 3 lateness %v, want 90ms", got)
	}
	if got := ol.service[3]; got != ms {
		t.Errorf("request 3 service %v, want 1ms", got)
	}
	// The backlog drains at 9ms per request: request 12 (due 120ms) is
	// sent at 129ms.
	if got := ol.late[12]; got != 9*ms {
		t.Errorf("request 12 lateness %v, want 9ms", got)
	}
	if got := ol.lat[19]; got != ms {
		t.Errorf("request 19 latency %v, want 1ms once caught up", got)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 20, End: 30, Parent: 1},
		{Name: "c", Start: 50, End: 90, Parent: 0},
	}
	lt := selfTimes(spans)
	want := map[string]time.Duration{"a": 20, "b": 10, "c": 40}
	for k, v := range want {
		if lt.Self[k] != v {
			t.Errorf("self(%s)=%v, want %v", k, lt.Self[k], v)
		}
	}
	if lt.Wall != 100 || lt.Unattributed != 30 {
		t.Errorf("wall=%v unattributed=%v, want 100 and 30", lt.Wall, lt.Unattributed)
	}
	share, ok := stageSum(lt)
	if share != 0.3 || ok {
		t.Errorf("stage sum share=%v ok=%v, want 0.3 and a failed check (tolerance %v)", share, ok, stageSumTolerance)
	}
}

func TestSelfTimeOverlapAndClipping(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "x", Start: 10, End: 40, Parent: 0},
		{Name: "x", Start: 30, End: 60, Parent: 0},  // overlaps the first x
		{Name: "y", Start: 95, End: 120, Parent: 0}, // runs past its parent
	}
	lt := selfTimes(spans)
	// Children cover [10,60] and [95,100]: 55 of the root's 100.
	if lt.Unattributed != 45 {
		t.Errorf("root self %v, want 45", lt.Unattributed)
	}
	if lt.Calls["x"] != 2 {
		t.Errorf("calls(x)=%d, want 2", lt.Calls["x"])
	}
}

func TestStageSumLeavesOutBenchSpans(t *testing.T) {
	// An open loop that mostly waits: the wait and a check (with the exact
	// read it makes) are the benchmark's own work, 10 is spent in the
	// program's call and 5 is covered by no span. Counted as a layer, the
	// wait would hide that gap.
	spans := []span{
		{Name: "bench.openloop", Start: 0, End: 100, Parent: -1},
		{Name: "bench.wait", Start: 0, End: 80, Parent: 0},
		{Name: "bench.check", Start: 80, End: 85, Parent: 0},
		{Name: "core.query", Start: 81, End: 84, Parent: 2},
		{Name: "sketchd.ingest", Start: 85, End: 95, Parent: 0},
	}
	lt := selfTimes(spans)
	if lt.Wall != 100 || lt.Bench != 85 || lt.Unattributed != 5 {
		t.Errorf("wall=%v bench=%v unattributed=%v, want 100, 85 and 5", lt.Wall, lt.Bench, lt.Unattributed)
	}
	if len(lt.Self) != 1 || lt.Self["sketchd.ingest"] != 10 {
		t.Errorf("layer self times %v, want only sketchd.ingest=10", lt.Self)
	}
	share, ok := stageSum(lt)
	if want := 5.0 / 15; math.Abs(share-want) > 1e-12 || ok {
		t.Errorf("share=%v ok=%v, want %v of the time in the program's calls and a failed check", share, ok, want)
	}
}

func TestStageSumAcceptsFullCover(t *testing.T) {
	tc := newTracer()
	tk := tc.track("main")
	root := tk.begin("bench.loop")
	for i := 0; i < 100; i++ {
		sp := tk.begin("layer")
		time.Sleep(100 * time.Microsecond)
		tk.end(sp)
	}
	tk.end(root)
	share, ok := stageSum(tc.times("main"))
	if !ok || share < 0 {
		t.Errorf("share=%v ok=%v, want a small positive remainder", share, ok)
	}
	var nilTrack *track
	if nilTrack.begin("x") != -1 {
		t.Error("a nil track must record nothing")
	}
}

func TestRateMeterMedianOfSlices(t *testing.T) {
	m := newRateMeter(time.Second)
	for _, rate := range []float64{100, 100, 1000, 100, 100} {
		m.add(rate, time.Second)
	}
	if got := m.median(); got != 100 {
		t.Errorf("median rate %v, want 100: one fast slice must not move it", got)
	}
	// Slices cut by the caller: 100 rows in 10ms of feeding, then a 90ms
	// drain with no rows, make one slice of 1000 rows/s; the open
	// remainder after the cut is not a slice.
	m = newRateMeter(math.MaxInt64)
	m.add(100, 10*time.Millisecond)
	m.add(0, 90*time.Millisecond)
	m.cut()
	m.add(1e6, time.Millisecond)
	if got := m.median(); math.Abs(got-1000) > 1e-9 {
		t.Errorf("cut slice rate %v, want 1000 rows/s with the drain counted", got)
	}
}

// TestRateMeterKref pins the per-kref rate: a machine at half speed runs
// the load and the kernel at half speed, and the per-kref rate stays put.
func TestRateMeterKref(t *testing.T) {
	m := newRateMeter(time.Second)
	for _, speed := range []float64{1, 0.5, 1, 0.5, 0.5} {
		m.ref(10_000 * speed) // kernel runs per second
		m.add(1000*speed, time.Second)
	}
	if got := m.median(); got != 500 {
		t.Errorf("median rate %v rows/s, want 500", got)
	}
	if got := m.medianKref(); math.Abs(got-100) > 1e-9 {
		t.Errorf("median per-kref rate %v, want 100 at every speed", got)
	}
	// A slice with no reference speed of its own takes the latest one; two
	// in one slice are averaged.
	m = newRateMeter(time.Second)
	m.ref(1000)
	m.add(100, time.Second)
	m.add(100, time.Second)
	m.ref(1000)
	m.ref(3000)
	m.add(200, time.Second)
	want := []float64{100, 100, 100}
	for i, got := range m.kref {
		if math.Abs(got-want[i]) > 1e-9 {
			t.Errorf("slice %d: %v rows/kref, want %v", i, got, want[i])
		}
	}
	if len(m.kref) != len(want) {
		t.Errorf("%d slices, want %d", len(m.kref), len(want))
	}
	if !math.IsNaN(newRateMeter(time.Second).medianKref()) {
		t.Error("a meter without reference speeds must report NaN, not a rate")
	}
}

// TestEmitRequiresApplicableMetrics pins what a run must report: the
// metrics of every workload plus those of its own, with only the former
// on the result line.
func TestEmitRequiresApplicableMetrics(t *testing.T) {
	common := func() *report {
		r := newReport()
		for _, m := range endToEnd {
			if len(m.Only) == 0 {
				r.set(m.Name, m.Unit, 1)
			}
		}
		return r
	}
	if res, _ := common().emit(io.Discard, "da1-seq", endToEnd); !res.Correct {
		t.Error("da1-seq has no query traffic; its run must not need query metrics")
	}
	if res, _ := common().emit(io.Discard, "net-tcp", endToEnd); res.Correct {
		t.Error("a net-tcp run without its query metrics must fail")
	}
	r := common()
	r.set("query_p50_us", "us", 5)
	r.set("ingest_to_queryable_p50_ms", "ms", 2)
	res, all := r.emit(io.Discard, "net-tcp", endToEnd)
	if !res.Correct {
		t.Error("a complete net-tcp run failed")
	}
	for _, name := range []string{"query_p50_us", "ingest_rows_per_s"} {
		if _, ok := res.Metrics[name]; ok {
			t.Errorf("the result line carries %s: it must carry only the metrics BENCHMARK.json lists", name)
		}
	}
	if _, ok := all["query_p50_us"]; !ok {
		t.Error("the run record must keep the workload's own metrics")
	}
}

func TestCompareRefusesOtherMachine(t *testing.T) {
	a := record{Workload: "da1-seq", Fingerprint: fp{GOMAXPROCS: 2, NumCPU: 2, CPUModel: "A", GoVersion: "go1", Seed: 1, Commit: "x"}}
	b := a
	b.Fingerprint.Seed, b.Fingerprint.Commit = 2, "y"
	if why := comparable(a, b); why != "" {
		t.Errorf("seed and commit may differ, got refusal %q", why)
	}
	b.Fingerprint.CPUModel = "B"
	if why := comparable(a, b); !strings.Contains(why, "cpu_model") {
		t.Errorf("different CPU model must be refused, got %q", why)
	}
	b = a
	b.Trace = true
	if comparable(a, b) == "" {
		t.Error("traced and untraced runs must not be compared")
	}
}

func TestSourceDeterministic(t *testing.T) {
	a := newSource(4, 3, 50, 9).take(400)
	b := newSource(4, 3, 50, 9).take(400)
	for i := range a {
		if a[i].Row.T != b[i].Row.T || a[i].Site != b[i].Site || a[i].Row.V[0] != b[i].Row.V[0] {
			t.Fatalf("row %d differs between equal seeds", i)
		}
		if i > 0 && a[i].Row.T < a[i-1].Row.T {
			t.Fatalf("row %d: timestamps decrease across epochs", i)
		}
		if i > 0 && a[i].Row.T == a[i-1].Row.T && a[i].Site < a[i-1].Site {
			t.Fatalf("row %d: rows of one timestamp out of site order", i)
		}
	}
}

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json and the metrics the
// program reports on every workload in step.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricSpec `json:"end_to_end"`
		PerLayer  []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	var listed []string
	for _, w := range workloads {
		if !w.unlisted {
			listed = append(listed, w.name)
		}
	}
	if len(bj.Workloads) != len(listed) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d listed in the program", len(bj.Workloads), len(listed))
	}
	for i, w := range bj.Workloads {
		if w.Name != listed[i] {
			t.Errorf("workload %d: %q vs %q", i, w.Name, listed[i])
		}
	}
	same := func(kind string, got, catalog []metricSpec) {
		var want []metricSpec
		for _, m := range catalog {
			if m.listed() {
				want = append(want, m)
			}
		}
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d reported on every workload", kind, len(got), len(want))
			return
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better || g.Bound != w.Bound {
				t.Errorf("%s %d: %+v vs %+v", kind, i, g, w)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
}

func TestP99MedianOfWindows(t *testing.T) {
	// 5000 samples of 1, with one stall of 100 samples of 1000 inside the
	// second window: the whole-run p99 is the stall, the windowed p99 is
	// not, and each window still has ten samples beyond its p99.
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = 1
	}
	for i := 1200; i < 1300; i++ {
		xs[i] = 1000
	}
	v, whole, windows := p99(xs)
	if windows != 5 || v != 1 {
		t.Errorf("windowed p99 %v over %d windows, want 1 over 5", v, windows)
	}
	if whole.Value != 1000 || !whole.ok() {
		t.Errorf("whole-run p99 %+v, want 1000 with the sample rule met", whole)
	}
	if v, _, windows := p99(xs[:2999]); windows != 1 {
		t.Errorf("2999 samples: %d windows (p99 %v), want the whole set", windows, v)
	}
}
