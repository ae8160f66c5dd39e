package distwindow

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"distwindow/internal/protocol"
	"distwindow/internal/stream"
	"distwindow/mat"
)

func TestTryObserveErrorPaths(t *testing.T) {
	newTr := func(maxSkew int64) *Tracker {
		tr, err := New(Config{Protocol: DA1, D: 2, W: 100, Eps: 0.2, Sites: 2, MaxSkew: maxSkew})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	cases := []struct {
		name string
		run  func(tr *Tracker) error
		skew int64
		want error
	}{
		{
			name: "site negative",
			run:  func(tr *Tracker) error { return tr.TryObserve(-1, Row{T: 1, V: []float64{1, 0}}) },
			want: ErrSiteRange,
		},
		{
			name: "site too large",
			run:  func(tr *Tracker) error { return tr.TryObserve(2, Row{T: 1, V: []float64{1, 0}}) },
			want: ErrSiteRange,
		},
		{
			name: "dimension short",
			run:  func(tr *Tracker) error { return tr.TryObserve(0, Row{T: 1, V: []float64{1}}) },
			want: ErrDimension,
		},
		{
			name: "dimension long",
			run:  func(tr *Tracker) error { return tr.TryObserve(0, Row{T: 1, V: []float64{1, 2, 3}}) },
			want: ErrDimension,
		},
		{
			name: "stale without skew",
			run: func(tr *Tracker) error {
				if err := tr.TryObserve(0, Row{T: 10, V: []float64{1, 0}}); err != nil {
					return err
				}
				return tr.TryObserve(1, Row{T: 9, V: []float64{1, 0}})
			},
			want: ErrStale,
		},
		{
			name: "stale after advance",
			run: func(tr *Tracker) error {
				tr.Advance(50)
				return tr.TryObserve(0, Row{T: 49, V: []float64{1, 0}})
			},
			want: ErrStale,
		},
		{
			name: "beyond skew horizon",
			skew: 5,
			run: func(tr *Tracker) error {
				if err := tr.TryObserve(0, Row{T: 100, V: []float64{1, 0}}); err != nil {
					return err
				}
				return tr.TryObserve(0, Row{T: 50, V: []float64{1, 0}})
			},
			want: ErrStale,
		},
		{
			name: "equal timestamp ok",
			run: func(tr *Tracker) error {
				if err := tr.TryObserve(0, Row{T: 10, V: []float64{1, 0}}); err != nil {
					return err
				}
				return tr.TryObserve(1, Row{T: 10, V: []float64{0, 1}})
			},
			want: nil,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.run(newTr(tc.skew))
			if tc.want == nil {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("error = %v, want %v", err, tc.want)
			}
		})
	}
}

func TestStaleRowsDroppedAndCounted(t *testing.T) {
	tr, _ := New(Config{Protocol: DA1, D: 2, W: 100, Eps: 0.2, Sites: 1})

	// Stale rows are dropped but counted.
	observe(t, tr, 0, Row{T: 10, V: []float64{1, 0}})
	observe(t, tr, 0, Row{T: 5, V: []float64{1, 0}})
	if got := tr.Metrics().StaleDrops; got != 1 {
		t.Fatalf("StaleDrops = %d, want 1", got)
	}
	if got := tr.Metrics().Rows; got != 1 {
		t.Fatalf("Rows = %d, want 1", got)
	}
}

func TestObserveBatch(t *testing.T) {
	tr, _ := New(Config{Protocol: DA1, D: 2, W: 100, Eps: 0.2, Sites: 1})
	rows := []Row{
		{T: 1, V: []float64{1, 0}},
		{T: 2, V: []float64{0, 1}},
		{T: 1, V: []float64{1, 1}}, // stale: skipped, not fatal
		{T: 3, V: []float64{1, 1}},
	}
	accepted, err := tr.ObserveBatch(0, rows)
	if err != nil {
		t.Fatal(err)
	}
	if accepted != 3 {
		t.Fatalf("accepted = %d, want 3", accepted)
	}
	if got := tr.Metrics().StaleDrops; got != 1 {
		t.Fatalf("StaleDrops = %d, want 1", got)
	}

	// A structural error aborts mid-batch and reports progress.
	bad := []Row{
		{T: 10, V: []float64{1, 0}},
		{T: 11, V: []float64{1}}, // wrong dimension
		{T: 12, V: []float64{0, 1}},
	}
	accepted, err = tr.ObserveBatch(0, bad)
	if !errors.Is(err, ErrDimension) {
		t.Fatalf("error = %v, want ErrDimension", err)
	}
	if accepted != 1 {
		t.Fatalf("accepted = %d, want 1", accepted)
	}

	if _, err := tr.ObserveBatch(9, rows); !errors.Is(err, ErrSiteRange) {
		t.Fatalf("error = %v, want ErrSiteRange", err)
	}
}

// TestObserveDoesNotRetainRow pins the aliasing contract: the tracker must
// copy anything it keeps, so callers can reuse the row buffer. A tracker
// fed through one mutated scratch slice must match one fed fresh slices.
func TestObserveDoesNotRetainRow(t *testing.T) {
	for _, p := range []Protocol{PWOR, ESWORAll, DA1, DA2, DA2C} {
		p := p
		t.Run(string(p), func(t *testing.T) {
			cfg := Config{Protocol: p, D: 3, W: 200, Eps: 0.2, Sites: 2, Seed: 7}
			ref, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			reuse, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(11))
			scratch := make([]float64, 3)
			for i := int64(1); i <= 400; i++ {
				v := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
				site := int(i) % 2
				observe(t, ref, site, Row{T: i, V: v})

				copy(scratch, v)
				observe(t, reuse, site, Row{T: i, V: scratch})
				// Clobber the buffer the way a reader loop would.
				scratch[0], scratch[1], scratch[2] = -1e9, 1e9, -1e9
			}
			if !ref.Sketch().Equal(reuse.Sketch()) {
				t.Fatal("sketch depends on the row buffer after Observe returned: a layer retained the caller's slice")
			}
		})
	}
}

// recordingTracker captures delivery order for white-box skew tests.
type recordingTracker struct {
	sites []int
	ts    []int64
}

func (r *recordingTracker) Observe(site int, row stream.Row) {
	r.sites = append(r.sites, site)
	r.ts = append(r.ts, row.T)
}
func (r *recordingTracker) AdvanceTime(int64)     {}
func (r *recordingTracker) Sketch() *mat.Dense    { return mat.NewDense(0, 1) }
func (r *recordingTracker) Stats() protocol.Stats { return protocol.Stats{} }
func (r *recordingTracker) Name() string          { return "recorder" }

// The recorder is its own (empty) coordinator snapshot.
func (r *recordingTracker) SnapshotCoord(int64) protocol.CoordSnapshot { return r }
func (r *recordingTracker) Gram() (*mat.Dense, bool)                   { return nil, false }

func TestFlushSkewGlobalOrder(t *testing.T) {
	tr, err := New(Config{Protocol: DA1, D: 1, W: 1000, Eps: 0.2, Sites: 3, MaxSkew: 100})
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingTracker{}
	tr.inner = rec

	// Interleave buffered rows across sites so a per-site flush would
	// deliver out of global order: site 2 holds the oldest rows.
	observe(t, tr, 2, Row{T: 5, V: []float64{1}})
	observe(t, tr, 0, Row{T: 20, V: []float64{1}})
	observe(t, tr, 1, Row{T: 10, V: []float64{1}})
	observe(t, tr, 0, Row{T: 30, V: []float64{1}})
	observe(t, tr, 1, Row{T: 10, V: []float64{1}}) // tie with site 1's first row
	if len(rec.ts) != 0 {
		t.Fatalf("rows released early: %v", rec.ts)
	}

	tr.FlushSkew()
	wantTs := []int64{5, 10, 10, 20, 30}
	wantSites := []int{2, 1, 1, 0, 0}
	if len(rec.ts) != len(wantTs) {
		t.Fatalf("delivered %d rows, want %d", len(rec.ts), len(wantTs))
	}
	for i := range wantTs {
		if rec.ts[i] != wantTs[i] || rec.sites[i] != wantSites[i] {
			t.Fatalf("delivery[%d] = (site %d, t %d), want (site %d, t %d)",
				i, rec.sites[i], rec.ts[i], wantSites[i], wantTs[i])
		}
	}
	if tr.Metrics().SkewDropped != 0 {
		t.Fatalf("SkewDropped = %d, want 0", tr.Metrics().SkewDropped)
	}
}

func TestFlushSkewDropsRowsBehindDeliveredClock(t *testing.T) {
	tr, err := New(Config{Protocol: DA1, D: 1, W: 1000, Eps: 0.2, Sites: 2, MaxSkew: 10})
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingTracker{}
	tr.inner = rec

	// Site 0 races ahead: its T=100 arrival releases rows up to T=90 and
	// commits the delivered clock there. Site 1's buffered T=50 row is
	// within its own skew bound but behind the global stream by flush time.
	observe(t, tr, 1, Row{T: 50, V: []float64{1}})
	observe(t, tr, 0, Row{T: 80, V: []float64{1}})
	observe(t, tr, 0, Row{T: 100, V: []float64{1}}) // releases T=80, delivered=80

	tr.FlushSkew()
	if tr.Metrics().SkewDropped != 1 {
		t.Fatalf("SkewDropped = %d, want 1 (site 1's T=50 fell behind)", tr.Metrics().SkewDropped)
	}
	for _, ts := range rec.ts {
		if ts == 50 {
			t.Fatal("stale row was delivered to the protocol")
		}
	}
	// The surviving rows arrive in order.
	for i := 1; i < len(rec.ts); i++ {
		if rec.ts[i] < rec.ts[i-1] {
			t.Fatalf("non-monotonic delivery: %v", rec.ts)
		}
	}
}

func TestMetricsAndSink(t *testing.T) {
	var sink CountingSink
	tr, err := New(Config{Protocol: DA1, D: 2, W: 100, Eps: 0.2, Sites: 2}, WithSink(&sink))
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(3))
	for i := int64(1); i <= 200; i++ {
		observe(t, tr, int(i)%2, Row{T: i, V: []float64{rng.NormFloat64(), rng.NormFloat64()}})
	}
	tr.Sketch()

	m := tr.Metrics()
	if m.Protocol != "DA1" {
		t.Fatalf("Protocol = %q", m.Protocol)
	}
	if m.Rows != 200 {
		t.Fatalf("Rows = %d, want 200", m.Rows)
	}
	if m.Queries != 1 {
		t.Fatalf("Queries = %d, want 1", m.Queries)
	}
	if m.Net != tr.Stats() {
		t.Fatalf("Metrics.Net diverged from Stats: %+v vs %+v", m.Net, tr.Stats())
	}
	if len(m.Sites) != 2 {
		t.Fatalf("Sites = %d entries, want 2", len(m.Sites))
	}
	var upWords int64
	for _, s := range m.Sites {
		upWords += s.WordsUp
	}
	if upWords != m.Net.WordsUp {
		t.Fatalf("per-site words (%d) don't sum to the global counter (%d)", upWords, m.Net.WordsUp)
	}
	if m.LiveBuckets <= 0 {
		t.Fatalf("LiveBuckets = %d, want > 0 after 200 rows", m.LiveBuckets)
	}
	if m.UpdateLatency.Count == 0 {
		t.Fatal("no update latencies sampled over 200 rows")
	}

	if sink.Count(EvMsgSent) == 0 {
		t.Fatal("no EvMsgSent despite DA1 traffic")
	}
	if sink.Count(EvBucketCreated) == 0 {
		t.Fatal("no EvBucketCreated despite mEH inserts")
	}
	if sink.Count(EvSketchQuery) != 1 {
		t.Fatalf("EvSketchQuery = %d, want 1", sink.Count(EvSketchQuery))
	}
}

func TestAggregateTryObserve(t *testing.T) {
	tr, err := NewAggregate(Config{W: 100, Eps: 0.1, Sites: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.TryObserve(5, 1, 1); !errors.Is(err, ErrSiteRange) {
		t.Fatalf("error = %v, want ErrSiteRange", err)
	}
	if err := tr.TryObserve(0, 10, 2); err != nil {
		t.Fatal(err)
	}
	// Sites run independent clocks: site 1 may lag site 0.
	if err := tr.TryObserve(1, 5, 2); err != nil {
		t.Fatalf("independent site clock rejected: %v", err)
	}
	// But one site's clock must not run backwards.
	if err := tr.TryObserve(0, 9, 2); !errors.Is(err, ErrStale) {
		t.Fatalf("error = %v, want ErrStale", err)
	}
	// The stale weight was dropped, not applied.
	if got := tr.Estimate(); got != 4 {
		t.Fatalf("Estimate = %v, want 4", got)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("Observe with a bad site should panic")
		}
	}()
	tr.Observe(-1, 1, 1)
}

// TestClosedTrackerRefusesIngest: after Close (or Registry.Evict) every
// ingest call returns ErrClosed, Advance and FlushSkew do nothing, and no
// call hangs — the published version and Ĉ stay where Close left them.
// The calls run under a deadline so a hang fails the test instead of the
// suite; 1,000 rows over two sites would overfill each lane's 256-block
// ring if any were accepted.
func TestClosedTrackerRefusesIngest(t *testing.T) {
	cfgs := []Config{
		{Protocol: DA1, D: 4, W: 100, Eps: 0.3, Sites: 2},
		{Protocol: DA2, D: 4, W: 100, Eps: 0.3, Sites: 2, MaxSkew: 8},
	}
	modes := []struct {
		name string
		opts []Option
	}{
		{"sequential", nil},
		{"parallel", []Option{WithParallel(2)}},
	}
	for _, cfg := range cfgs {
		for _, m := range modes {
			t.Run(fmt.Sprintf("%s/%s", cfg.Protocol, m.name), func(t *testing.T) {
				tr, err := New(cfg, m.opts...)
				if err != nil {
					t.Fatal(err)
				}
				feedRows(t, tr, 300)
				tr.Close()
				checkClosed(t, tr)
			})
		}
	}
	for _, m := range modes {
		t.Run("registry/"+m.name, func(t *testing.T) {
			reg := NewRegistry()
			defer reg.Close()
			tr, _, err := reg.Open("s", cfgs[0], m.opts...)
			if err != nil {
				t.Fatal(err)
			}
			feedRows(t, tr, 300)
			reg.Evict("s")
			checkClosed(t, tr)
		})
	}
}

// feedRows spreads n seeded rows over tr's sites in timestamp order.
func feedRows(t *testing.T, tr *Tracker, n int) {
	t.Helper()
	for i, r := range testRows(n, tr.Config().D, 9) {
		observe(t, tr, i%tr.Config().Sites, r)
	}
}

// checkClosed drives every ingest entry point of a closed tracker under a
// deadline and checks that none of them moved its published state.
func checkClosed(t *testing.T, tr *Tracker) {
	t.Helper()
	ver := tr.SnapshotVersion()
	gram, _ := tr.SketchGram()
	cfg := tr.Config()
	done := make(chan struct{})
	go func() {
		defer close(done)
		rows := testRows(1000, cfg.D, 10)
		for i, r := range rows {
			r.T += 1 << 20
			if err := tr.TryObserve(i%cfg.Sites, r); !errors.Is(err, ErrClosed) {
				t.Errorf("TryObserve row %d after close: %v, want ErrClosed", i, err)
				return
			}
		}
		if n, err := tr.ObserveBatch(0, rows); n != 0 || !errors.Is(err, ErrClosed) {
			t.Errorf("ObserveBatch after close = (%d, %v), want (0, ErrClosed)", n, err)
		}
		tr.Advance(1 << 30)
		tr.FlushSkew()
		tr.Drain()
		if g, _ := tr.SketchGram(); !g.Equal(gram) {
			t.Error("SketchGram moved after close")
		}
		if v := tr.SnapshotVersion(); v != ver {
			t.Errorf("SnapshotVersion %d → %d after close", ver, v)
		}
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("a call on the closed tracker did not return")
	}
}
