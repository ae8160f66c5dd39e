package distwindow_test

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"distwindow"
)

// rowVal derives a deterministic row value from (site, seq, col) so the
// per-site feeder goroutines need no shared RNG.
func rowVal(site, seq, col int) float64 {
	x := uint64(site)*0x9e3779b97f4a7c15 + uint64(seq)*0x2545f4914f6cdd1d + uint64(col)*0xda3e39cb94b95bdb
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	// Map to [-1, 1) with a few distinct magnitudes so eigenvalue order
	// (and thus emission content) is data-dependent.
	return float64(int64(x%2048)-1024) / 1024
}

func makeRow(d, site, seq int) distwindow.Row {
	v := make([]float64, d)
	for j := range v {
		v[j] = rowVal(site, seq, j)
	}
	// Two rows share each timestamp per site, and timestamps tie across
	// sites, to stress the merge's (T, site) tie-break.
	return distwindow.Row{T: int64(seq / 2), V: v}
}

// feedSequential replays the exact global order the parallel merge
// guarantees: (T, site) lexicographic with per-site FIFO. At a tied
// timestamp both of site s's rows (two share each T) apply before site
// s+1's first, so the per-site pairs stay contiguous.
func feedSequential(t *testing.T, tr *distwindow.Tracker, sites, rowsPerSite, d int) {
	t.Helper()
	for base := 0; base < rowsPerSite; base += 2 {
		for s := 0; s < sites; s++ {
			for rep := 0; rep < 2 && base+rep < rowsPerSite; rep++ {
				if err := tr.TryObserve(s, makeRow(d, s, base+rep)); err != nil {
					t.Fatalf("sequential observe site %d seq %d: %v", s, base+rep, err)
				}
			}
		}
	}
}

func feedParallel(t *testing.T, tr *distwindow.Tracker, sites, rowsPerSite, d int) {
	t.Helper()
	var wg sync.WaitGroup
	for s := 0; s < sites; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for seq := 0; seq < rowsPerSite; seq++ {
				tr.TryObserve(s, makeRow(d, s, seq))
			}
		}(s)
	}
	wg.Wait()
}

// TestParallelDeterminism asserts the acceptance criterion: for every
// one-way protocol, the parallel pipeline's coordinator state is
// bit-for-bit identical to the sequential path fed in the merge's global
// (T, site) order — same floats, same operation order, not approximately.
func TestParallelDeterminism(t *testing.T) {
	const (
		d           = 6
		sites       = 5
		rowsPerSite = 600 // T reaches 299: several W=64 windows
	)
	for _, proto := range []distwindow.Protocol{distwindow.DA1, distwindow.DA2, distwindow.DA2C, distwindow.Decay} {
		t.Run(string(proto), func(t *testing.T) {
			cfg := distwindow.Config{
				Protocol: proto, D: d, W: 64, Eps: 0.2, Sites: sites, Seed: 7, DecayGamma: 0.99,
			}
			seq, err := distwindow.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			par, err := distwindow.New(cfg, distwindow.WithParallel(4), distwindow.WithRingSize(32))
			if err != nil {
				t.Fatal(err)
			}
			defer par.Close()

			feedSequential(t, seq, sites, rowsPerSite, d)
			feedParallel(t, par, sites, rowsPerSite, d)
			par.Drain()

			gs, ok := seq.SketchGram()
			if !ok {
				t.Fatalf("%s: no SketchGram", proto)
			}
			gp, _ := par.SketchGram()
			if !gs.Equal(gp) {
				t.Fatalf("%s: parallel Gram differs from sequential", proto)
			}
			// The factored sketch is a deterministic function of the Gram,
			// but check it end to end anyway.
			if !seq.Sketch().Equal(par.Sketch()) {
				t.Fatalf("%s: parallel Sketch differs from sequential", proto)
			}
			sm, pm := seq.Metrics(), par.Metrics()
			if sm.Rows != pm.Rows {
				t.Fatalf("%s: rows %d vs %d", proto, sm.Rows, pm.Rows)
			}
			if sm.Net.WordsUp != pm.Net.WordsUp {
				t.Fatalf("%s: words up %d vs %d", proto, sm.Net.WordsUp, pm.Net.WordsUp)
			}
		})
	}
}

// feedParallelBatched feeds per-site streams through ObserveBatch in runs
// of batch rows, reusing one staging slice per feeder the way a real
// batched producer would.
func feedParallelBatched(t *testing.T, tr *distwindow.Tracker, sites, rowsPerSite, d, batch int) {
	t.Helper()
	var wg sync.WaitGroup
	for s := 0; s < sites; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			buf := make([]distwindow.Row, 0, batch)
			for seq := 0; seq < rowsPerSite; {
				buf = buf[:0]
				for len(buf) < batch && seq < rowsPerSite {
					buf = append(buf, makeRow(d, s, seq))
					seq++
				}
				if n, err := tr.ObserveBatch(s, buf); err != nil || n != len(buf) {
					t.Errorf("site %d: ObserveBatch accepted %d/%d, err %v", s, n, len(buf), err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
}

// TestParallelDeterminismBatched is the batched-ingest property test: for
// every one-way protocol, batched-parallel output must be bit-identical to
// the sequential reference across batch sizes (1, a prime that misaligns
// with block boundaries, the block size, and the whole ring) and worker
// counts (1, 2, NumCPU). Batch size may change block boundaries, wakeup
// patterns and release timing — never the applied operation sequence.
func TestParallelDeterminismBatched(t *testing.T) {
	const (
		d           = 6
		sites       = 5
		rowsPerSite = 600
		ring        = 32
	)
	batches := []int{1, 7, 64, ring * 64} // ring*MaxBlock: fills every slot
	workerCounts := []int{1, 2}
	if n := runtime.NumCPU(); n != 1 && n != 2 {
		workerCounts = append(workerCounts, n)
	}
	if testing.Short() {
		batches = []int{7, 64}
		workerCounts = []int{2}
	}
	for _, proto := range []distwindow.Protocol{distwindow.DA1, distwindow.DA2, distwindow.DA2C, distwindow.Decay} {
		t.Run(string(proto), func(t *testing.T) {
			cfg := distwindow.Config{
				Protocol: proto, D: d, W: 64, Eps: 0.2, Sites: sites, Seed: 7, DecayGamma: 0.99,
			}
			seq, err := distwindow.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			feedSequential(t, seq, sites, rowsPerSite, d)
			gs, ok := seq.SketchGram()
			if !ok {
				t.Fatalf("%s: no SketchGram", proto)
			}
			sm := seq.Metrics()

			for _, workers := range workerCounts {
				for _, batch := range batches {
					par, err := distwindow.New(cfg, distwindow.WithParallel(workers), distwindow.WithRingSize(ring))
					if err != nil {
						t.Fatal(err)
					}
					feedParallelBatched(t, par, sites, rowsPerSite, d, batch)
					par.Drain()
					gp, _ := par.SketchGram()
					if !gs.Equal(gp) {
						t.Errorf("%s workers=%d batch=%d: Gram differs from sequential", proto, workers, batch)
					}
					if !seq.Sketch().Equal(par.Sketch()) {
						t.Errorf("%s workers=%d batch=%d: Sketch differs from sequential", proto, workers, batch)
					}
					pm := par.Metrics()
					if sm.Rows != pm.Rows || sm.Net.WordsUp != pm.Net.WordsUp {
						t.Errorf("%s workers=%d batch=%d: rows %d vs %d, words up %d vs %d",
							proto, workers, batch, sm.Rows, pm.Rows, sm.Net.WordsUp, pm.Net.WordsUp)
					}
					par.Close()
				}
			}
		})
	}
}

// TestParallelDeterminismSkew feeds each site a bounded-out-of-order
// stream through the reorder buffers. Per site, the buffer releases rows
// in sorted order — the same per-site sequence the in-order sequential
// tracker sees — so after FlushSkew the states must again be identical.
// Timestamps are strictly increasing per site (the reorder heap is not
// stable for within-site ties) but still tie across sites, exercising the
// merge's site tie-break.
func TestParallelDeterminismSkew(t *testing.T) {
	const (
		d           = 4
		sites       = 3
		rowsPerSite = 300
		skew        = 8
	)
	mk := func(s, seq int) distwindow.Row {
		r := makeRow(d, s, seq)
		r.T = int64(seq)
		return r
	}
	cfg := distwindow.Config{Protocol: distwindow.DA1, D: d, W: 50, Eps: 0.2, Sites: sites}
	seq, err := distwindow.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MaxSkew = skew
	par, err := distwindow.New(cfg, distwindow.WithParallel(2))
	if err != nil {
		t.Fatal(err)
	}
	defer par.Close()

	// Sequential reference: strictly in order, no skew machinery; at each
	// tick all sites tie and apply in site order, matching the merge.
	for i := 0; i < rowsPerSite; i++ {
		for s := 0; s < sites; s++ {
			if err := seq.TryObserve(s, mk(s, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Parallel: swap adjacent pairs (displacement 2 < skew) per site.
	var wg sync.WaitGroup
	for s := 0; s < sites; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < rowsPerSite; i += 4 {
				for _, j := range []int{i + 2, i, i + 3, i + 1} {
					if j < rowsPerSite {
						par.TryObserve(s, mk(s, j))
					}
				}
			}
		}(s)
	}
	wg.Wait()
	par.FlushSkew()

	if dropped := par.Metrics().SkewDropped; dropped != 0 {
		t.Fatalf("unexpected skew drops: %d", dropped)
	}
	gs, _ := seq.SketchGram()
	gp, _ := par.SketchGram()
	if !gs.Equal(gp) {
		t.Fatal("parallel Gram with skew reordering differs from in-order sequential")
	}
}

// TestParallelDeterminismSkewBatched drives the skew-replay path through
// ObserveBatch: batches carry out-of-order rows (displacement 2, within the
// skew horizon), so single blocks deliver into the reorder buffer and its
// releases — not arrival order — feed the protocol. Output must still match
// the in-order sequential reference for every batch size.
func TestParallelDeterminismSkewBatched(t *testing.T) {
	const (
		d           = 4
		sites       = 3
		rowsPerSite = 300
		skew        = 8
		ring        = 32
	)
	mk := func(s, seq int) distwindow.Row {
		r := makeRow(d, s, seq)
		r.T = int64(seq)
		return r
	}
	cfg := distwindow.Config{Protocol: distwindow.DA1, D: d, W: 50, Eps: 0.2, Sites: sites}
	seq, err := distwindow.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rowsPerSite; i++ {
		for s := 0; s < sites; s++ {
			if err := seq.TryObserve(s, mk(s, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	gs, _ := seq.SketchGram()

	for _, batch := range []int{1, 7, 64, ring * 64} {
		cfgSkew := cfg
		cfgSkew.MaxSkew = skew
		par, err := distwindow.New(cfgSkew, distwindow.WithParallel(2), distwindow.WithRingSize(ring))
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for s := 0; s < sites; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				buf := make([]distwindow.Row, 0, batch)
				flush := func() {
					if len(buf) == 0 {
						return
					}
					if _, err := par.ObserveBatch(s, buf); err != nil {
						t.Errorf("site %d: %v", s, err)
					}
					buf = buf[:0]
				}
				for i := 0; i < rowsPerSite; i += 4 {
					for _, j := range []int{i + 2, i, i + 3, i + 1} {
						if j < rowsPerSite {
							buf = append(buf, mk(s, j))
							if len(buf) == batch {
								flush()
							}
						}
					}
				}
				flush()
			}(s)
		}
		wg.Wait()
		par.FlushSkew()
		if dropped := par.Metrics().SkewDropped; dropped != 0 {
			t.Errorf("batch=%d: unexpected skew drops: %d", batch, dropped)
		}
		gp, _ := par.SketchGram()
		if !gs.Equal(gp) {
			t.Errorf("batch=%d: batched skew-replay Gram differs from sequential", batch)
		}
		par.Close()
	}
}

// TestParallelStress is the -race workout: concurrent per-site feeders,
// a metrics scraper, and repeated drains, on every pipeline-capable
// protocol shape (with and without skew buffers).
func TestParallelStress(t *testing.T) {
	const (
		d           = 4
		sites       = 8
		rowsPerSite = 1500
	)
	for _, maxSkew := range []int64{0, 4} {
		cfg := distwindow.Config{
			Protocol: distwindow.DA2, D: d, W: 40, Eps: 0.25, Sites: sites, MaxSkew: maxSkew,
		}
		tr, err := distwindow.New(cfg, distwindow.WithParallel(0), distwindow.WithRingSize(16))
		if err != nil {
			t.Fatal(err)
		}

		stop := make(chan struct{})
		var scraper sync.WaitGroup
		scraper.Add(1)
		go func() {
			defer scraper.Done()
			for {
				select {
				case <-stop:
					return
				default:
					m := tr.Metrics()
					_ = m.Net.TotalWords()
					_ = tr.Stats()
				}
			}
		}()

		var wg sync.WaitGroup
		for s := 0; s < sites; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				for seq := 0; seq < rowsPerSite; seq++ {
					if err := tr.TryObserve(s, makeRow(d, s, seq)); err != nil {
						t.Errorf("site %d: %v", s, err)
						return
					}
				}
			}(s)
		}
		wg.Wait()
		tr.FlushSkew()
		tr.Advance(int64(rowsPerSite/2 + 10))
		if b := tr.Sketch(); b.Cols() != d {
			t.Fatalf("sketch cols = %d, want %d", b.Cols(), d)
		}
		close(stop)
		scraper.Wait()

		if m := tr.Metrics(); m.Rows != sites*rowsPerSite {
			t.Fatalf("maxSkew=%d: rows %d, want %d (stale %d, skew %d)",
				maxSkew, m.Rows, sites*rowsPerSite, m.StaleDrops, m.SkewDropped)
		}
		tr.Close()
		tr.Close() // idempotent
	}
}

// TestParallelStaleCountedNotReturned checks the documented parallel-mode
// semantics: an out-of-order row (no skew buffer) is dropped on the
// worker and surfaces in Metrics, and TryObserve itself stays error-free.
func TestParallelStaleCountedNotReturned(t *testing.T) {
	cfg := distwindow.Config{Protocol: distwindow.DA1, D: 2, W: 100, Eps: 0.3, Sites: 1}
	tr, err := distwindow.New(cfg, distwindow.WithParallel(1))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if err := tr.TryObserve(0, distwindow.Row{T: 10, V: []float64{1, 0}}); err != nil {
		t.Fatal(err)
	}
	if err := tr.TryObserve(0, distwindow.Row{T: 5, V: []float64{0, 1}}); err != nil {
		t.Fatalf("stale row returned error in parallel mode: %v", err)
	}
	tr.Drain()
	m := tr.Metrics()
	if m.StaleDrops != 1 || m.Rows != 1 {
		t.Fatalf("stale=%d rows=%d, want 1 and 1", m.StaleDrops, m.Rows)
	}
	// Structural errors are still synchronous.
	if err := tr.TryObserve(3, distwindow.Row{T: 11, V: []float64{1, 0}}); !errors.Is(err, distwindow.ErrSiteRange) {
		t.Fatalf("bad site: got %v", err)
	}
	if err := tr.TryObserve(0, distwindow.Row{T: 11, V: []float64{1}}); !errors.Is(err, distwindow.ErrDimension) {
		t.Fatalf("bad dimension: got %v", err)
	}
}

// TestParallelDecayAdvance pins the decay tracker's parallel clock
// contract: after Advance(now) and a drain, the coordinator has decayed
// to now exactly as the sequential tracker has.
func TestParallelDecayAdvance(t *testing.T) {
	cfg := distwindow.Config{Protocol: distwindow.Decay, D: 3, Eps: 0.2, Sites: 2, DecayGamma: 0.95}
	seq, err := distwindow.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	par, err := distwindow.New(cfg, distwindow.WithParallel(2))
	if err != nil {
		t.Fatal(err)
	}
	defer par.Close()
	feedSequential(t, seq, 2, 40, 3)
	for s := 0; s < 2; s++ {
		for i := 0; i < 40; i++ {
			par.TryObserve(s, makeRow(3, s, i))
		}
	}
	seq.Advance(60)
	par.Advance(60)
	gs, _ := seq.SketchGram()
	gp, _ := par.SketchGram()
	if !gs.Equal(gp) {
		t.Fatal("decayed Grams differ after Advance")
	}
	if gs.At(0, 0) == 0 || math.IsNaN(gs.At(0, 0)) {
		t.Fatalf("degenerate gram: %v", gs.At(0, 0))
	}
}

// TestParallelRingMemoryFollowsBlocksInFlight runs DA2 through
// WithParallel(2) at the shape of the da2-pipeline benchmark (d=32, 20
// sites, 64-row ObserveBatch runs per site, a Drain every 20,000 rows) and
// bounds the heap it holds once collected. A lane's row buffers follow the
// blocks it has had in flight at once, not its 256 ring slots: with one
// 64×32-value buffer per slot, the rings alone would hold 20 × 256 × 16 KB
// = 84 MB.
func TestParallelRingMemoryFollowsBlocksInFlight(t *testing.T) {
	if testing.Short() {
		t.Skip("240,000-row DA2 run skipped in -short")
	}
	const (
		d, sites, batch = 32, 20, 64
		rowsPerWindow   = 10_000
		drainEvery      = 2 * rowsPerWindow
		total           = 240_000
		limitMB         = 40
	)
	cfg := distwindow.Config{Protocol: distwindow.DA2, D: d, W: rowsPerWindow * 1000, Eps: 0.05, Sites: sites, Seed: 1}
	tr, err := distwindow.New(cfg, distwindow.WithParallel(2))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	rng := rand.New(rand.NewSource(1))
	// A rank-4 signal plus noise, so DA2 emits and compacts as on real
	// streams; each site stages rows into 64-row runs.
	basis := make([][]float64, 4)
	for i := range basis {
		basis[i] = make([]float64, d)
		for j := range basis[i] {
			basis[i][j] = rng.NormFloat64()
		}
	}
	stage := make([][]distwindow.Row, sites)
	flush := func(s int) {
		if len(stage[s]) == 0 {
			return
		}
		if n, err := tr.ObserveBatch(s, stage[s]); err != nil || n != len(stage[s]) {
			t.Fatalf("ObserveBatch site %d: %d of %d rows, %v", s, n, len(stage[s]), err)
		}
		stage[s] = stage[s][:0]
	}
	for i := 1; i <= total; i++ {
		v := make([]float64, d)
		for j := range v {
			v[j] = 0.1 * rng.NormFloat64()
		}
		for _, b := range basis {
			c := rng.NormFloat64()
			for j := range v {
				v[j] += c * b[j]
			}
		}
		s := rng.Intn(sites)
		stage[s] = append(stage[s], distwindow.Row{T: int64(i) * 1000, V: v})
		if len(stage[s]) == batch {
			flush(s)
		}
		if i%drainEvery == 0 {
			for s := range stage {
				flush(s)
			}
			tr.Drain()
		}
	}
	stage = nil
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapMB := float64(ms.HeapAlloc) / (1 << 20)
	t.Logf("heap after GC: %.1f MB", heapMB)
	if heapMB >= limitMB {
		t.Fatalf("parallel DA2 holds %.1f MB of heap after %d rows, want < %d MB", heapMB, total, limitMB)
	}
	runtime.KeepAlive(tr)
}
