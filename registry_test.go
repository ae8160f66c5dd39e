package distwindow

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// regCfg is the registry tests' default stream configuration: DA1 so the
// storage-heavy paths (mEH buckets, decomposition workspaces) are exercised.
func regCfg() Config {
	return Config{Protocol: DA1, D: 4, W: 128, Eps: 0.3, Sites: 3}
}

// feedStream pushes rows rows of seeded pseudo-random data into tr. The
// generator depends only on seed, so two trackers fed with the same seed
// see byte-identical input.
func feedStream(t *testing.T, tr *Tracker, seed int64, rows int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	d := tr.Config().D
	v := make([]float64, d)
	for i := 0; i < rows; i++ {
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		if err := tr.TryObserve(i%tr.Config().Sites, Row{T: int64(i), V: v}); err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
	}
}

// TestRegistryDeterminism locks in the tentpole guarantee: a stream
// tracked through a Registry — sharded map, fan-out sinks and all — is
// bit-for-bit identical to the same stream tracked by a standalone New
// tracker.
func TestRegistryDeterminism(t *testing.T) {
	const streams, rows = 8, 400
	reg := NewRegistry()
	defer reg.Close()
	for i := 0; i < streams; i++ {
		id := fmt.Sprintf("s%d", i)
		tr, created, err := reg.Open(id, regCfg())
		if err != nil || !created {
			t.Fatalf("Open(%s): created=%v err=%v", id, created, err)
		}
		feedStream(t, tr, int64(1000+i), rows)
	}
	// Interleave an eviction cycle: a reopened id must start from fresh
	// state, not the evicted tracker's.
	reg.Evict("s0")
	trEvictRedo, _, err := reg.Open("s0", regCfg())
	if err != nil {
		t.Fatalf("reopen s0: %v", err)
	}
	feedStream(t, trEvictRedo, 1000, rows)
	for i := 0; i < streams; i++ {
		id := fmt.Sprintf("s%d", i)
		got, ok := reg.Get(id)
		if !ok {
			t.Fatalf("Get(%s): missing", id)
		}
		want, err := New(regCfg())
		if err != nil {
			t.Fatal(err)
		}
		feedStream(t, want, int64(1000+i), rows)
		if !got.Sketch().Equal(want.Sketch()) {
			t.Fatalf("stream %s: registry sketch differs from standalone tracker", id)
		}
	}
}

// TestRegistryThousandStreams is the scale acceptance test: 1,000
// concurrent streams behind one Registry, each with estimates identical
// to an independent tracker's.
func TestRegistryThousandStreams(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-stream sweep skipped in -short")
	}
	const streams, rows = 1000, 60
	cfg := Config{Protocol: DA1, D: 3, W: 32, Eps: 0.4, Sites: 2}
	reg := NewRegistry()
	defer reg.Close()
	var wg sync.WaitGroup
	errs := make(chan error, streams)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < streams; i += 8 {
				id := fmt.Sprintf("stream-%04d", i)
				tr, _, err := reg.Open(id, cfg)
				if err != nil {
					errs <- fmt.Errorf("open %s: %w", id, err)
					return
				}
				rng := rand.New(rand.NewSource(int64(i)))
				v := make([]float64, cfg.D)
				for r := 0; r < rows; r++ {
					for j := range v {
						v[j] = rng.NormFloat64()
					}
					if err := tr.TryObserve(r%cfg.Sites, Row{T: int64(r), V: v}); err != nil {
						errs <- fmt.Errorf("%s row %d: %w", id, r, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := reg.Len(); n != streams {
		t.Fatalf("Len = %d, want %d", n, streams)
	}
	// Spot-check a sample of streams against independent trackers.
	for _, i := range []int{0, 1, 499, 998, 999} {
		id := fmt.Sprintf("stream-%04d", i)
		got, ok := reg.Get(id)
		if !ok {
			t.Fatalf("Get(%s): missing", id)
		}
		want, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(i)))
		v := make([]float64, cfg.D)
		for r := 0; r < rows; r++ {
			for j := range v {
				v[j] = rng.NormFloat64()
			}
			if err := want.TryObserve(r%cfg.Sites, Row{T: int64(r), V: v}); err != nil {
				t.Fatal(err)
			}
		}
		if !got.Sketch().Equal(want.Sketch()) {
			t.Fatalf("stream %s: sketch differs from independent tracker", id)
		}
	}
	m := reg.Metrics()
	if m.Streams != streams || m.Opened != streams {
		t.Fatalf("Metrics = %+v, want Streams=Opened=%d", m, streams)
	}
}

// TestRegistryChurnRace exercises the sharded map under churn: goroutines
// open/feed/evict their own key-spaces while others range, query and
// snapshot. Run with -race; correctness here is "no data race, no panic,
// counters consistent at the end".
func TestRegistryChurnRace(t *testing.T) {
	const workers, perWorker, rounds = 4, 8, 5
	cfg := Config{Protocol: DA1, D: 3, W: 32, Eps: 0.4, Sites: 2}
	reg := NewRegistry()
	defer reg.Close()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := 0; i < perWorker; i++ {
					id := fmt.Sprintf("w%d-s%d", w, i)
					tr, _, err := reg.Open(id, cfg)
					if err != nil {
						t.Error(err)
						return
					}
					v := []float64{1, 2, 3}
					for n := 0; n < 20; n++ {
						_ = tr.TryObserve(n%cfg.Sites, Row{T: int64(r*100 + n), V: v})
					}
					_ = tr.Sketch()
				}
				for i := 0; i < perWorker; i++ {
					reg.Evict(fmt.Sprintf("w%d-s%d", w, i))
				}
			}
		}(w)
	}
	// Concurrent observers: snapshots, ranges, lookups of foreign keys.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			_ = reg.Metrics()
			_ = reg.Len()
			reg.Range(func(id string, tr *Tracker) bool { return true })
			_, _ = reg.Get("w0-s0")
			_, _, _ = reg.StreamMetrics("w1-s1")
		}
	}()
	wg.Wait()
	if n := reg.Len(); n != 0 {
		t.Fatalf("Len = %d after full churn, want 0", n)
	}
	m := reg.Metrics()
	if m.Opened != m.Evicted {
		t.Fatalf("Opened=%d Evicted=%d, want equal after full churn", m.Opened, m.Evicted)
	}
}

// TestRegistryEvictWhileIngesting evicts a stream under its feeders — one
// per site on a parallel tracker, the one ingest goroutine on a
// sequential one. Every feeder must stop on ErrClosed, with no panic and
// no race, and every row a feeder saw accepted must be in the evicted
// tracker's final snapshot. CI runs it under -race at -cpu 2,4.
func TestRegistryEvictWhileIngesting(t *testing.T) {
	modes := []struct {
		name    string
		opts    []Option
		feeders int
	}{
		{"sequential", nil, 1},
		{"parallel", []Option{WithParallel(2)}, 3},
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			cfg := Config{Protocol: DA1, D: 4, W: 128, Eps: 0.3, Sites: 3}
			reg := NewRegistry()
			defer reg.Close()
			tr, _, err := reg.Open("s", cfg, m.opts...)
			if err != nil {
				t.Fatal(err)
			}
			var accepted atomic.Int64
			var wg sync.WaitGroup
			for f := 0; f < m.feeders; f++ {
				wg.Add(1)
				go func(f int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(f)))
					v := make([]float64, cfg.D)
					for i := int64(1); ; i++ {
						for j := range v {
							v[j] = rng.NormFloat64()
						}
						site := f
						if m.feeders == 1 {
							site = int(i) % cfg.Sites
						}
						err := tr.TryObserve(site, Row{T: i, V: v})
						if errors.Is(err, ErrClosed) {
							return
						}
						if err != nil {
							t.Errorf("feeder %d row %d: %v", f, i, err)
							return
						}
						accepted.Add(1)
					}
				}(f)
			}
			deadline := time.Now().Add(10 * time.Second)
			for accepted.Load() < 500 && time.Now().Before(deadline) {
				runtime.Gosched()
			}
			if !reg.Evict("s") {
				t.Fatal("Evict(s) = false")
			}
			stopped := make(chan struct{})
			go func() { wg.Wait(); close(stopped) }()
			select {
			case <-stopped:
			case <-time.After(20 * time.Second):
				t.Fatal("a feeder did not stop after Evict")
			}
			snap, _ := tr.Snapshot()
			if got, want := snap.Rows(), accepted.Load(); got != want {
				t.Fatalf("final snapshot holds %d rows, feeders saw %d accepted", got, want)
			}
		})
	}
}

// TestRegistryIngestAllocs gates the hot path: once a stream is warm, a
// per-row Get + TryObserve through the registry allocates nothing — the
// sharded lookup, the fan-out sinks and the closed check all stay off the
// heap. The feed keeps the window distribution stationary (a fixed row
// pool, as in the core-layer gate) so the spectral trigger — whose rare
// reports are allowed to allocate — stays quiet.
func TestRegistryIngestAllocs(t *testing.T) {
	cfg := Config{Protocol: DA1, D: 16, W: 2000, Eps: 0.2, Sites: 1}
	reg := NewRegistry()
	defer reg.Close()
	if _, _, err := reg.Open("hot", cfg); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	pool := make([][]float64, 8)
	for i := range pool {
		pool[i] = make([]float64, cfg.D)
		for j := range pool[i] {
			pool[i][j] = rng.NormFloat64()
		}
	}
	now := int64(0)
	feed := func() {
		now++
		h, ok := reg.Get("hot")
		if !ok {
			t.Fatal("stream vanished")
		}
		if err := h.TryObserve(0, Row{T: now, V: pool[now%int64(len(pool))]}); err != nil {
			t.Fatal(err)
		}
	}
	// Warm past several windows: histogram capacity, freelists, workspace
	// buffers and the coordinator replica all reach steady state.
	for i := 0; i < 3*int(cfg.W); i++ {
		feed()
	}
	// One measured run of 500 rows, so the count is exact: AllocsPerRun
	// truncates its mean to an integer, and an average over one-row runs
	// would read 0 for anything below one allocation per row.
	if n := testing.AllocsPerRun(1, func() {
		for i := 0; i < 500; i++ {
			feed()
		}
	}); n != 0 {
		t.Fatalf("steady-state registry ingest: %v allocs over 500 rows, want 0", n)
	}
}

// TestRegistryIngestWorkers pins the ingest-plane sizing rule: never more
// workers than streams (ordered per-stream rows leave extras idle) and
// never more than GOMAXPROCS (oversubscribing one core measurably loses
// throughput to cache rotation).
func TestRegistryIngestWorkers(t *testing.T) {
	reg := NewRegistry()
	defer reg.Close()
	maxp := runtime.GOMAXPROCS(0)
	cases := []struct {
		requested, streams, want int
	}{
		{1, 16, 1},
		{4, 2, min(2, maxp)},
		{0, 16, min(16, maxp)},
		{maxp + 7, 1000, maxp},
		{3, 0, min(3, maxp)}, // unknown stream count: clamp by cores only
	}
	for _, c := range cases {
		if got := reg.IngestWorkers(c.requested, c.streams); got != c.want {
			t.Errorf("IngestWorkers(%d, %d) = %d, want %d", c.requested, c.streams, got, c.want)
		}
	}
	// ShardOf: stable and in range.
	if s := reg.ShardOf("abc"); s < 0 || s != reg.ShardOf("abc") {
		t.Errorf("ShardOf unstable or negative: %d", s)
	}
}

// TestRegistryColdStreamAllocs pins the many-streams warm-up cost: with
// 256 cold streams sharing one registry, the whole feed — including each
// stream's histogram warm-up, which no earlier stream can serve — must
// stay cheap per row. This is the BENCH_PR8 regression (1.497 allocs/row
// at 256 streams vs 0.497 at 16): every Add during warm-up allocated a
// fresh row buffer. The mEH row slab now amortizes those to one
// allocation per slab, so the per-row figure stays bounded as the stream
// count grows.
func TestRegistryColdStreamAllocs(t *testing.T) {
	const (
		nStreams      = 256
		rowsPerStream = 400
		d             = 16
		sites         = 4
	)
	cfg := Config{Protocol: DA1, D: d, W: 20000, Eps: 0.1, Sites: sites, Seed: 3}
	reg := NewRegistry()
	defer reg.Close()
	handles := make([]*Tracker, nStreams)
	for i := range handles {
		tr, _, err := reg.Open(fmt.Sprintf("s%03d", i), cfg)
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = tr
	}
	rng := rand.New(rand.NewSource(3))
	pool := make([][]float64, 64)
	for i := range pool {
		pool[i] = make([]float64, d)
		for j := range pool[i] {
			pool[i][j] = rng.NormFloat64()
		}
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, tr := range handles {
		for seq := 1; seq <= rowsPerStream; seq++ {
			site := seq % sites
			if err := tr.TryObserve(site, Row{T: int64(seq), V: pool[seq%len(pool)]}); err != nil {
				t.Fatal(err)
			}
		}
	}
	runtime.ReadMemStats(&after)
	perRow := float64(after.Mallocs-before.Mallocs) / float64(nStreams*rowsPerStream)
	t.Logf("cold-stream ingest: %.3f allocs/row over %d streams", perRow, nStreams)
	if perRow > coldStreamAllocBudget {
		t.Fatalf("cold-stream ingest allocates %.3f/row at %d streams, budget %.2f",
			perRow, nStreams, coldStreamAllocBudget)
	}
}

// coldStreamAllocBudget is the gate for TestRegistryColdStreamAllocs.
// Measured on this workload: 1.76 allocs/row before the mEH row slab
// (every warm-up Add allocated a row buffer), 0.87 after — the remainder
// is FD sketch warm-up plus the emission buffers the coordinator retains.
// 1.0 leaves ~15% noise headroom over the fixed figure while still
// tripping on a warm-up regression of the BENCH_PR8 magnitude.
const coldStreamAllocBudget = 1.0

// TestRegistryOpen covers the id/constructor edge cases.
func TestRegistryOpen(t *testing.T) {
	reg := NewRegistry()
	defer reg.Close()
	if _, _, err := reg.Open("", regCfg()); err == nil {
		t.Fatal("Open with empty id succeeded")
	}
	bad := regCfg()
	bad.D = 0
	if _, _, err := reg.Open("bad", bad); err == nil {
		t.Fatal("Open with invalid config succeeded")
	}
	if _, ok := reg.Get("bad"); ok {
		t.Fatal("failed Open left an entry behind")
	}
	tr1, created, err := reg.Open("s", regCfg())
	if err != nil || !created {
		t.Fatalf("first Open: created=%v err=%v", created, err)
	}
	tr2, created, err := reg.Open("s", Config{Protocol: DA2, D: 9, W: 9, Eps: 0.9, Sites: 9})
	if err != nil || created {
		t.Fatalf("second Open: created=%v err=%v", created, err)
	}
	if tr1 != tr2 {
		t.Fatal("second Open returned a different tracker")
	}
	if !reg.Evict("s") || reg.Evict("s") {
		t.Fatal("Evict should succeed once then report missing")
	}
}

// TestRegistrySinkFanOut: per-stream tallies, the aggregate tally and a
// caller-supplied WithSink all see a stream's events.
func TestRegistrySinkFanOut(t *testing.T) {
	reg := NewRegistry()
	defer reg.Close()
	user := &CountingSink{}
	tr, _, err := reg.Open("s", regCfg(), WithSink(user))
	if err != nil {
		t.Fatal(err)
	}
	feedStream(t, tr, 5, 300)
	perStream, _, ok := reg.StreamMetrics("s")
	if !ok {
		t.Fatal("StreamMetrics(s): missing")
	}
	if perStream.Rows == 0 {
		t.Fatal("per-stream Metrics shows no rows")
	}
	if user.Count(EvBucketCreated) == 0 {
		t.Fatal("user sink saw no bucket events")
	}
	if reg.Metrics().Events["bucket_created"] != user.Count(EvBucketCreated) {
		t.Fatal("aggregate tally disagrees with user sink")
	}
	_, streamEvents, _ := reg.StreamMetrics("s")
	if streamEvents["bucket_created"] != user.Count(EvBucketCreated) {
		t.Fatal("per-stream tally disagrees with user sink")
	}
}

// TestRegistryMetricsHandler drives the fleet HTTP view.
func TestRegistryMetricsHandler(t *testing.T) {
	reg := NewRegistry()
	defer reg.Close()
	for _, id := range []string{"b", "a"} {
		tr, _, err := reg.Open(id, regCfg())
		if err != nil {
			t.Fatal(err)
		}
		feedStream(t, tr, 9, 50)
	}
	srv := httptest.NewServer(reg.MetricsHandler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var m RegistryMetrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if m.Streams != 2 || m.Opened != 2 {
		t.Fatalf("/metrics: %+v, want Streams=Opened=2", m)
	}

	resp, err = srv.Client().Get(srv.URL + "/streams")
	if err != nil {
		t.Fatal(err)
	}
	var list []struct {
		ID       string
		Protocol string
		Rows     int64
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list) != 2 || list[0].ID != "a" || list[1].ID != "b" {
		t.Fatalf("/streams: %+v, want [a b] sorted", list)
	}
	if list[0].Rows != 50 || list[0].Protocol == "" {
		t.Fatalf("/streams row: %+v", list[0])
	}
}

// TestNewAggregateOptions: the scalar constructor shares the option
// vocabulary — WithSink works, the matrix-only options are rejected.
func TestNewAggregateOptions(t *testing.T) {
	cfg := Config{W: 100, Eps: 0.2, Sites: 2}
	cs := &CountingSink{}
	at, err := NewAggregate(cfg, WithSink(cs))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := at.TryObserve(i%2, int64(i), 1); err != nil {
			t.Fatal(err)
		}
	}
	if cs.Count(EvBucketCreated) == 0 {
		t.Fatal("WithSink on NewAggregate saw no events")
	}
	for _, opt := range []Option{WithParallel(2), WithTracing(TraceConfig{}), WithAudit(AuditConfig{})} {
		if _, err := NewAggregate(cfg, opt); !errors.Is(err, ErrOptionUnsupported) {
			t.Fatalf("err = %v, want ErrOptionUnsupported", err)
		}
	}
}

// TestRestoreOptions: Restore accepts New's options so a rebuilt tracker
// comes back with its observability wired.
func TestRestoreOptions(t *testing.T) {
	tr, err := New(regCfg())
	if err != nil {
		t.Fatal(err)
	}
	feedStream(t, tr, 11, 200)
	var buf bytes.Buffer
	if err := tr.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	cs := &CountingSink{}
	got, err := Restore(&buf, WithSink(cs))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Sketch().Equal(tr.Sketch()) {
		t.Fatal("restored sketch differs")
	}
	rng := rand.New(rand.NewSource(99))
	v := make([]float64, 4)
	for i := 200; i < 400; i++ {
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		if err := got.TryObserve(i%3, Row{T: int64(i), V: v}); err != nil {
			t.Fatal(err)
		}
	}
	if cs.Count(EvBucketCreated) == 0 {
		t.Fatal("sink passed to Restore saw no events")
	}
}
