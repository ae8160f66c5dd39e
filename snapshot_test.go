package distwindow

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"distwindow/internal/protocol"
	"distwindow/internal/stream"
	"distwindow/mat"
)

// denseHash fingerprints a matrix down to the bit pattern of every entry,
// so "bit-identical" assertions are exactly that.
func denseHash(m *mat.Dense) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for i := 0; i < m.Rows(); i++ {
		for _, v := range m.Row(i) {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// coordHash fingerprints a coordinator snapshot: the Gram estimate for the
// deterministic family, the sketch for the sampling family.
func coordHash(cs protocol.CoordSnapshot) uint64 {
	if g, ok := cs.Gram(); ok {
		return denseHash(g)
	}
	return denseHash(cs.Sketch())
}

// snapHash fingerprints a published facade snapshot the same way.
func snapHash(s *Snapshot) uint64 {
	if g, ok := s.SketchGram(); ok {
		return denseHash(g)
	}
	return denseHash(s.Sketch())
}

// refHash reads a live tracker's would-be snapshot through the same
// non-mutating seam publication uses, at the delivered watermark a
// sequential tracker publishes at.
func refHash(tr *Tracker) uint64 {
	return coordHash(tr.inner.SnapshotCoord(tr.delivered))
}

type snapObs struct {
	version uint64
	rows    int64
	hash    uint64
}

// TestSnapshotSequentialPrefixConsistency races readers against sequential
// ingest and asserts every snapshot they observe is bit-identical to the
// state a reference tracker reaches after exactly snapshot.Rows() delivered
// rows — snapshots are prefix-consistent, never torn. The readers' exact
// Sketch calls are what publish new versions mid-stream. Run with -race
// this is the regression test for queries racing sequential ingest.
func TestSnapshotSequentialPrefixConsistency(t *testing.T) {
	const n, d, sites = 600, 4, 3
	for _, p := range []Protocol{DA1, DA2, Decay, PWOR} {
		t.Run(string(p), func(t *testing.T) {
			cfg := Config{Protocol: p, D: d, W: 200, Eps: 0.25, Sites: sites, Ell: 16, Seed: 1}
			if p == Decay {
				cfg.W, cfg.Ell = 0, 0
				cfg.DecayGamma = 0.99
			}
			rows := testRows(n, d, 7)

			// Reference: same config, hashed through the snapshot seam after
			// every delivered row.
			ref, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := make(map[int64]uint64, n+1)
			want[0] = refHash(ref)
			for i, r := range rows {
				if err := ref.TryObserve(i%sites, r); err != nil {
					t.Fatal(err)
				}
				want[int64(i+1)] = refHash(ref)
			}

			tr, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			var wg sync.WaitGroup
			readers := make([][]snapObs, 2)
			for g := range readers {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					var last uint64
					for i := 0; i < 200; i++ {
						s, err := tr.Snapshot()
						if err != nil {
							t.Errorf("reader %d: %v", g, err)
							return
						}
						if s.Version() < last {
							t.Errorf("reader %d: version went backwards %d → %d", g, last, s.Version())
							return
						}
						last = s.Version()
						readers[g] = append(readers[g], snapObs{s.Version(), s.Rows(), snapHash(s)})
						// Exercise the derived views concurrently too.
						_ = tr.Sketch()
						if s.Rows() > 0 {
							_ = s.PCA(2)
						}
					}
				}(g)
			}
			for i, r := range rows {
				if err := tr.TryObserve(i%sites, r); err != nil {
					t.Fatal(err)
				}
				if i%16 == 0 {
					runtime.Gosched()
				}
			}
			tr.Drain()
			wg.Wait()

			checked := 0
			for g, obs := range readers {
				for _, o := range obs {
					h, ok := want[o.rows]
					if !ok {
						t.Fatalf("reader %d: snapshot at %d rows, not a delivered-row boundary", g, o.rows)
					}
					if h != o.hash {
						t.Fatalf("reader %d: snapshot v%d at %d rows not bit-identical to the sequential reference", g, o.version, o.rows)
					}
					checked++
				}
			}
			if checked == 0 {
				t.Fatal("readers observed no snapshots")
			}
			s, err := tr.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if s.Rows() != n || snapHash(s) != want[n] {
				t.Fatalf("post-Drain snapshot rows=%d hash mismatch (want rows=%d)", s.Rows(), n)
			}
		})
	}
}

// TestSnapshotParallelPrefixConsistency races readers against the parallel
// pipeline. Pass boundaries can fall between two updates of one row's
// report, so the reference is built at update granularity: replaying the
// same rows through a second tracker's one-way seam and fingerprinting the
// coordinator after every single applied update. Every snapshot a reader
// observes must be bit-identical to one of those prefixes. The readers
// stay lock-free (an exact read would drain the pipeline), and the
// coordinator publishes every 8 applied updates so they see many versions.
func TestSnapshotParallelPrefixConsistency(t *testing.T) {
	const n, d, sites = 400, 4, 4
	cfg := Config{Protocol: DA1, D: d, W: 300, Eps: 0.25, Sites: sites, Seed: 1}
	rows := testRows(n, d, 11)

	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ow := ref.inner.(protocol.OneWay)
	snapper := ref.inner.(protocol.Snapshotter)
	valid := map[uint64]bool{coordHash(snapper.SnapshotCoord(0)): true}
	var finalGram *mat.Dense
	for i, r := range rows {
		site := i % sites
		ow.ObserveSite(site, stream.Row{T: r.T, V: r.V}, func(scale float64, v []float64) {
			ow.Apply(protocol.Update{T: r.T, Site: site, Scale: scale, V: v})
			valid[coordHash(snapper.SnapshotCoord(r.T))] = true
		})
	}
	finalGram, _ = snapper.SnapshotCoord(0).Gram()

	workerCounts := []int{1, 2, runtime.NumCPU()}
	for _, workers := range workerCounts {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			tr, err := New(cfg, WithParallel(workers), withPublishEvery(8))
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()

			var wg sync.WaitGroup
			readers := make([][]snapObs, 2)
			for g := range readers {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					var last uint64
					for i := 0; i < 200; i++ {
						s, err := tr.Snapshot()
						if err != nil {
							t.Errorf("reader %d: %v", g, err)
							return
						}
						if s.Version() < last {
							t.Errorf("reader %d: version went backwards", g)
							return
						}
						last = s.Version()
						readers[g] = append(readers[g], snapObs{s.Version(), s.Rows(), snapHash(s)})
						_, _ = s.SketchGram()
					}
				}(g)
			}
			// Parallel contract: one feeder goroutine per site.
			var feeders sync.WaitGroup
			for site := 0; site < sites; site++ {
				feeders.Add(1)
				go func(site int) {
					defer feeders.Done()
					for i := site; i < n; i += sites {
						if err := tr.TryObserve(site, rows[i]); err != nil {
							t.Errorf("site %d: %v", site, err)
							return
						}
					}
				}(site)
			}
			feeders.Wait()
			tr.Drain()
			wg.Wait()

			checked := 0
			for g, obs := range readers {
				for _, o := range obs {
					if !valid[o.hash] {
						t.Fatalf("reader %d: snapshot v%d (rows≈%d) is not any update-prefix of the sequential order", g, o.version, o.rows)
					}
					checked++
				}
			}
			if checked == 0 {
				t.Fatal("readers observed no snapshots")
			}
			s, err := tr.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			got, ok := s.SketchGram()
			if !ok {
				t.Fatal("no gram from DA1 snapshot")
			}
			if denseHash(got) != denseHash(finalGram) {
				t.Fatal("post-Drain parallel snapshot not bit-identical to the sequential final state")
			}
		})
	}
}

// TestSnapshotRegistryConcurrentQueries exercises the registry path:
// streams queried (snapshots, metrics, Prometheus exposition) while their
// owners ingest.
func TestSnapshotRegistryConcurrentQueries(t *testing.T) {
	reg := NewRegistry()
	defer reg.Close()
	cfg := Config{Protocol: DA1, D: 3, W: 500, Eps: 0.2, Sites: 1}
	for _, id := range []string{"a", "b"} {
		if _, _, err := reg.Open(id, cfg); err != nil {
			t.Fatal(err)
		}
	}
	rows := testRows(300, 3, 3)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, id := range []string{"a", "b"} {
				tr, ok := reg.Get(id)
				if !ok {
					continue
				}
				if s, err := tr.Snapshot(); err != nil {
					t.Errorf("%s: %v", id, err)
					return
				} else if s.Version() == 0 {
					t.Errorf("%s: zero snapshot version", id)
					return
				}
				_ = tr.Metrics()
			}
			_ = reg.Metrics()
		}
	}()
	for _, id := range []string{"a", "b"} {
		tr, _ := reg.Get(id)
		for _, r := range rows {
			if err := tr.TryObserve(0, r); err != nil {
				t.Fatal(err)
			}
		}
		tr.Drain()
	}
	close(stop)
	wg.Wait()

	tr, _ := reg.Get("a")
	m := tr.Metrics()
	if m.SnapshotVersion == 0 || m.SnapshotPublishes == 0 {
		t.Errorf("snapshot metrics not populated: %+v", m.SnapshotVersion)
	}
	if m.SnapshotLagRows != 0 {
		t.Errorf("lag after Drain = %d, want 0", m.SnapshotLagRows)
	}
}

// readProtocols is every protocol the read contract is pinned for: the
// sliding-window protocols plus Decay, the one whose estimate a read
// could decay in place.
func readProtocols() []Protocol { return append(Protocols(), Decay) }

// readConfig is a small tracker configuration for p.
func readConfig(p Protocol, d, sites int) Config {
	cfg := Config{Protocol: p, D: d, W: 200, Eps: 0.25, Sites: sites, Ell: 16, Seed: 1}
	if p == Decay {
		cfg.W, cfg.Ell = 0, 0
		cfg.DecayGamma = 0.99
	}
	return cfg
}

// TestQueryIndependence pins that queries are read-only. Twin A answers
// Sketch and SketchGram every 37 rows, with no Drain; twin B is never
// queried; twin C is audited every 7 rows, so its auditor reads the
// coordinator on the ingest goroutine. Each of A's answers must equal B's
// live state at the same row, read through the non-mutating SnapshotCoord
// seam, and after the stream all three twins must answer bit-identically.
func TestQueryIndependence(t *testing.T) {
	const n, d, sites, every = 600, 6, 3, 37
	for _, p := range readProtocols() {
		t.Run(string(p), func(t *testing.T) {
			cfg := readConfig(p, d, sites)
			a, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// The auditor's exact shadow needs a window length, which
			// Decay's tracker ignores.
			ccfg := cfg
			if ccfg.W == 0 {
				ccfg.W = 200
			}
			c, err := New(ccfg, WithAudit(AuditConfig{EveryRows: 7}))
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range testRows(n, d, 13) {
				observe(t, a, i%sites, r)
				observe(t, b, i%sites, r)
				observe(t, c, i%sites, r)
				if (i+1)%every != 0 {
					continue
				}
				live := b.inner.SnapshotCoord(b.delivered)
				if denseHash(a.Sketch()) != denseHash(live.Sketch()) {
					t.Fatalf("row %d: queried twin's Sketch differs from the unqueried twin's state", i+1)
				}
				g, ok := a.SketchGram()
				want, wantOK := live.Gram()
				if ok != wantOK || ok && denseHash(g) != denseHash(want) {
					t.Fatalf("row %d: queried twin's SketchGram differs from the unqueried twin's state", i+1)
				}
			}
			if m, ok := c.Audit(); !ok || m.Ticks == 0 {
				t.Fatalf("audited twin took no measurements: %+v", m)
			}
			for _, tw := range []struct {
				name string
				tr   *Tracker
			}{{"queried", a}, {"audited", c}} {
				if refHash(tw.tr) != refHash(b) {
					t.Fatalf("%s twin's coordinator state differs from the unqueried twin's", tw.name)
				}
				if denseHash(tw.tr.Sketch()) != denseHash(b.Sketch()) {
					t.Fatalf("final Sketch differs between the %s and the unqueried twin", tw.name)
				}
				g, _ := tw.tr.SketchGram()
				gb, ok := b.SketchGram()
				if ok && denseHash(g) != denseHash(gb) {
					t.Fatalf("final SketchGram differs between the %s and the unqueried twin", tw.name)
				}
				if w, wb := tw.tr.Stats().WordsUp, b.Stats().WordsUp; w != wb {
					t.Fatalf("%s twin sent %d words up, the unqueried twin %d", tw.name, w, wb)
				}
			}
		})
	}
}

// TestSnapshotDuringIngest pins the lock-free read: with an ingest call in
// flight (the gate held shared), Snapshot returns the current version at
// once, with a nil error, instead of failing or waiting for ingest.
func TestSnapshotDuringIngest(t *testing.T) {
	for _, p := range readProtocols() {
		t.Run(string(p), func(t *testing.T) {
			tr, err := New(readConfig(p, 3, 1))
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range testRows(20, 3, 5) {
				observe(t, tr, 0, r)
			}
			tr.Drain()
			want := tr.SnapshotVersion()

			tr.gate.RLock() // an ingest call in flight
			type result struct {
				s   *Snapshot
				err error
			}
			done := make(chan result, 1)
			go func() {
				s, err := tr.Snapshot()
				done <- result{s, err}
			}()
			var got result
			select {
			case got = <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("Snapshot blocked behind an in-flight ingest call")
			}
			tr.gate.RUnlock()
			if got.err != nil {
				t.Fatalf("Snapshot during ingest: %v", got.err)
			}
			if got.s.Version() != want || got.s.Rows() != 20 {
				t.Fatalf("Snapshot during ingest = v%d at %d rows, want v%d at 20 rows", got.s.Version(), got.s.Rows(), want)
			}
		})
	}
}

// TestSnapshotCaching pins the shared-factorization contract: repeated
// reads of one snapshot version hand out equal results and share the
// cached scorer.
func TestSnapshotCaching(t *testing.T) {
	tr, err := New(Config{Protocol: DA1, D: 3, W: 100, Eps: 0.2, Sites: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range testRows(50, 3, 5) {
		if err := tr.TryObserve(0, r); err != nil {
			t.Fatal(err)
		}
	}
	tr.Drain()
	s, err := tr.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if denseHash(s.Sketch()) != denseHash(s.Sketch()) {
		t.Error("repeated Sketch reads differ")
	}
	p1, p2 := s.PCA(2), s.PCA(2)
	if denseHash(p1.Components) != denseHash(p2.Components) {
		t.Error("repeated PCA reads differ")
	}
	if s.AnomalyScorer(2) != s.AnomalyScorer(2) {
		t.Error("AnomalyScorer not cached per snapshot")
	}
	// Mutating a returned copy must not leak into the cache.
	b := s.Sketch()
	b.Row(0)[0] += 42
	if denseHash(s.Sketch()) == denseHash(b) {
		t.Error("caller mutation leaked into the snapshot cache")
	}
}
