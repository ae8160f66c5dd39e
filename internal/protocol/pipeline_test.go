package protocol

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"distwindow/internal/stream"
)

func TestTournamentOrder(t *testing.T) {
	for _, k := range []int{1, 2, 3, 4, 5, 8, 13} {
		tr := newTournament(k)
		// All virtual at minInt64: winner must be virtual.
		if _, real := tr.min(); real {
			t.Fatalf("k=%d: fresh tournament winner is real", k)
		}
		// Give every lane a real key; winner must be the lexicographic min.
		rng := rand.New(rand.NewSource(int64(k)))
		keys := make([]mergeKey, k)
		for i := range keys {
			keys[i] = mergeKey{t: int64(rng.Intn(5)), site: i, real: true}
			tr.setKey(i, keys[i])
		}
		tr.rebuild()
		w, real := tr.min()
		if !real {
			t.Fatalf("k=%d: all-real tournament winner is virtual", k)
		}
		for i, key := range keys {
			if key.less(keys[w]) {
				t.Fatalf("k=%d: winner %d (%+v) not minimal, lane %d has %+v", k, w, keys[w], i, key)
			}
		}
		// One lane goes virtual below the winner: winner must become virtual.
		tr.setKey((w+1)%k, mergeKey{t: keys[w].t - 1, site: (w + 1) % k})
		tr.rebuild()
		if w2, real := tr.min(); k > 1 && (real || w2 != (w+1)%k) {
			t.Fatalf("k=%d: expected virtual winner %d, got %d real=%v", k, (w+1)%k, w2, real)
		}
	}
}

// TestTournamentReplay drives the winner-replay path against a brute-force
// minimum over many random pop sequences.
func TestTournamentReplay(t *testing.T) {
	for _, k := range []int{2, 3, 5, 8, 11} {
		rng := rand.New(rand.NewSource(int64(100 + k)))
		tr := newTournament(k)
		for i := 0; i < k; i++ {
			tr.setKey(i, mergeKey{t: int64(rng.Intn(50)), site: i, real: true})
		}
		tr.rebuild()
		for step := 0; step < 200; step++ {
			w, _ := tr.min()
			for i := 0; i < k; i++ {
				if tr.keys[i].less(tr.keys[w]) {
					t.Fatalf("k=%d step %d: winner %d (%+v) beaten by lane %d (%+v)",
						k, step, w, tr.keys[w], i, tr.keys[i])
				}
			}
			// Pop: the winner's next key is ≥ its old one (FIFO per lane).
			next := tr.keys[w]
			next.t += int64(rng.Intn(10))
			next.real = rng.Intn(4) > 0
			tr.replayWinner(next)
		}
	}
}

func TestMergeKeyGate(t *testing.T) {
	// A virtual key (P, i) must block exactly the candidates (T, j) with
	// (T, j) >= (P, i) lexicographically.
	cases := []struct {
		cand    mergeKey
		virt    mergeKey
		applies bool
	}{
		{mergeKey{t: 5, site: 2, real: true}, mergeKey{t: 6, site: 0}, true},
		{mergeKey{t: 5, site: 2, real: true}, mergeKey{t: 5, site: 3}, true},
		{mergeKey{t: 5, site: 2, real: true}, mergeKey{t: 5, site: 1}, false},
		{mergeKey{t: 5, site: 2, real: true}, mergeKey{t: 4, site: 7}, false},
		// Real beats virtual at the same (t, site): per-site FIFO covers it.
		{mergeKey{t: 5, site: 2, real: true}, mergeKey{t: 5, site: 2}, true},
	}
	for i, c := range cases {
		if got := c.cand.less(c.virt); got != c.applies {
			t.Errorf("case %d: cand %+v vs virtual %+v: applies=%v want %v", i, c.cand, c.virt, got, c.applies)
		}
	}
}

func TestSPSCRingBackpressure(t *testing.T) {
	r := newSPSCRing(4)
	const n = 10_000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			r.push(func(s *laneItem) { s.t = int64(i) })
		}
	}()
	for i := 0; i < n; i++ {
		var it *laneItem
		for {
			var ok bool
			if it, ok = r.peek(); ok {
				break
			}
			runtime.Gosched()
		}
		if it.t != int64(i) {
			t.Fatalf("slot %d: got t=%d", i, it.t)
		}
		r.pop()
	}
	<-done
	if !r.empty() {
		t.Fatal("ring not empty after drain")
	}
}

// TestSPSCRingSlotOwnership pins the peek → process → pop contract under
// the race detector: the consumer mutates a peeked item's block in place
// (as the worker's handlers do) while the producer refills handed-back
// blocks. Any overlap between producer fill and consumer processing is a
// data race the -race run would flag.
func TestSPSCRingSlotOwnership(t *testing.T) {
	r := newSPSCRing(4)
	const n = 20_000
	rows := []stream.Row{{T: 0, V: []float64{0, 0}}}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			rows[0].T = int64(i)
			rows[0].V[0], rows[0].V[1] = float64(i), float64(2*i)
			r.push(func(s *laneItem) { s.fillRows(r.block(), rows) })
		}
	}()
	for i := 0; i < n; i++ {
		var it *laneItem
		for {
			var ok bool
			if it, ok = r.peek(); ok {
				break
			}
			runtime.Gosched()
		}
		ts, v := it.row(0)
		if ts != int64(i) || v[0] != float64(i) || v[1] != float64(2*i) {
			t.Fatalf("slot %d: got t=%d v=%v", i, ts, v)
		}
		// Process in place: the slot is ours until pop.
		v[0], v[1] = v[1], v[0]
		it.blk.ts[0] = -ts
		r.pop()
	}
	<-done
}

func TestOutRingOrderAndRecycle(t *testing.T) {
	q := newOutRing()
	// Several chunk generations, drained concurrently: order must be FIFO
	// and the freelist handoff race-clean.
	const n = 10 * outChunkCap
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			q.push(Update{T: int64(i), Site: i % 7, V: []float64{float64(i)}})
		}
	}()
	for i := 0; i < n; i++ {
		var u *Update
		for {
			var ok bool
			if u, ok = q.peek(); ok {
				break
			}
			runtime.Gosched()
		}
		if u.T != int64(i) || u.Site != i%7 || u.V[0] != float64(i) {
			t.Fatalf("item %d: got %+v", i, *u)
		}
		if got := q.pop(); got.T != int64(i) {
			t.Fatalf("pop %d: got T=%d", i, got.T)
		}
	}
	<-done
	if !q.empty() {
		t.Fatal("out-ring not empty after drain")
	}
}

// orderHandler emits one update per row at the row's timestamp, so the
// coordinator's apply order directly witnesses the merge order.
type orderHandler struct{}

func (orderHandler) HandleRow(site int, tt int64, v []float64, emit EmitAt) int64 {
	emit(tt, float64(site), append([]float64(nil), v...))
	return tt
}
func (orderHandler) HandleAdvance(site int, now int64, emit EmitAt) int64 { return now }
func (orderHandler) HandleFlush(site int, emit EmitAt) int64              { return minInt64 }

func TestPipelineGlobalOrder(t *testing.T) {
	const sites, rows = 7, 5_000
	var mu sync.Mutex
	var got []Update
	p := NewPipeline(sites, orderHandler{}, func(u Update) {
		mu.Lock()
		got = append(got, u)
		mu.Unlock()
	}, PipelineConfig{Workers: 4, RingSize: 16})
	defer p.Close()

	// One feeder per site, timestamps interleaved with deliberate ties
	// across sites (t = i/2 repeats) to stress the site tie-break.
	var wg sync.WaitGroup
	for s := 0; s < sites; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < rows; i++ {
				p.EnqueueRow(s, int64(i/2), []float64{float64(i)})
			}
		}(s)
	}
	wg.Wait()
	p.Drain(false)

	if len(got) != sites*rows {
		t.Fatalf("applied %d updates, want %d", len(got), sites*rows)
	}
	for i := 1; i < len(got); i++ {
		a, b := got[i-1], got[i]
		if b.T < a.T || (b.T == a.T && b.Site < a.Site) {
			t.Fatalf("apply %d out of order: (%d,%d) then (%d,%d)", i, a.T, a.Site, b.T, b.Site)
		}
	}
	// Per-site FIFO: scale encodes the site, V[0] the per-site sequence.
	next := make([]float64, sites)
	for _, u := range got {
		want := next[u.Site]
		// Two rows share each timestamp per site.
		if u.V[0] != want {
			t.Fatalf("site %d: got seq %v want %v", u.Site, u.V[0], want)
		}
		next[u.Site]++
	}
}

// TestPipelineEnqueueRowsOrder drives the block path: per-site runs larger
// than MaxBlock (forcing splits) with cross-site timestamp ties, verifying
// the global merge order and per-site FIFO survive batching.
func TestPipelineEnqueueRowsOrder(t *testing.T) {
	const sites, rows, batch = 5, 4_096, 100 // batch > MaxBlock: splits
	var mu sync.Mutex
	var got []Update
	p := NewPipeline(sites, orderHandler{}, func(u Update) {
		mu.Lock()
		got = append(got, u)
		mu.Unlock()
	}, PipelineConfig{Workers: 3, RingSize: 8, MaxBlock: 32})
	defer p.Close()

	var wg sync.WaitGroup
	for s := 0; s < sites; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			buf := make([]stream.Row, 0, batch)
			for i := 0; i < rows; {
				buf = buf[:0]
				for len(buf) < batch && i < rows {
					// Rows copy into the ring per block, but blocks of one
					// EnqueueRows call are pushed one by one, so each row
					// needs its own V until the call returns.
					buf = append(buf, stream.Row{T: int64(i / 2), V: []float64{float64(i)}})
					i++
				}
				p.EnqueueRows(s, buf)
			}
		}(s)
	}
	wg.Wait()
	p.Drain(false)

	if len(got) != sites*rows {
		t.Fatalf("applied %d updates, want %d", len(got), sites*rows)
	}
	for i := 1; i < len(got); i++ {
		a, b := got[i-1], got[i]
		if b.T < a.T || (b.T == a.T && b.Site < a.Site) {
			t.Fatalf("apply %d out of order: (%d,%d) then (%d,%d)", i, a.T, a.Site, b.T, b.Site)
		}
	}
	next := make([]float64, sites)
	for _, u := range got {
		if u.V[0] != next[u.Site] {
			t.Fatalf("site %d: got seq %v want %v", u.Site, u.V[0], next[u.Site])
		}
		next[u.Site]++
	}
}

// TestPipelineEnqueueRowsOverfill pins the parked-worker wakeup: a single
// EnqueueRows call carrying more blocks than the ring holds must not
// deadlock. With a per-push wakeup the worker starts draining as soon as
// the first block lands; with only an end-of-call wakeup the push on a
// full ring waits forever for a pop that never comes.
func TestPipelineEnqueueRowsOverfill(t *testing.T) {
	const ringSize, maxBlock = 4, 2
	// 40 blocks for a 4-slot ring: the call must overfill many times over.
	const rows = 40 * maxBlock
	var mu sync.Mutex
	var got []Update
	p := NewPipeline(1, orderHandler{}, func(u Update) {
		mu.Lock()
		got = append(got, u)
		mu.Unlock()
	}, PipelineConfig{Workers: 1, RingSize: ringSize, MaxBlock: maxBlock})
	defer p.Close()

	buf := make([]stream.Row, rows)
	for i := range buf {
		buf[i] = stream.Row{T: int64(i), V: []float64{float64(i)}}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.EnqueueRows(0, buf)
		p.Drain(false)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("EnqueueRows deadlocked: parked worker never woken while ring overfilled")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != rows {
		t.Fatalf("applied %d updates, want %d", len(got), rows)
	}
	for i, u := range got {
		if u.T != int64(i) {
			t.Fatalf("update %d: got T=%d, want %d", i, u.T, i)
		}
	}
}

func TestPipelineDrainReusable(t *testing.T) {
	// Drain must leave the pipeline usable: keys restored after the +inf
	// drain pass, progress preserved, later rows still merge correctly.
	const sites = 3
	var mu sync.Mutex
	var got []Update
	p := NewPipeline(sites, orderHandler{}, func(u Update) {
		mu.Lock()
		got = append(got, u)
		mu.Unlock()
	}, PipelineConfig{Workers: 2, RingSize: 8})
	defer p.Close()

	for round := 0; round < 5; round++ {
		base := int64(round * 100)
		for s := 0; s < sites; s++ {
			for i := 0; i < 20; i++ {
				p.EnqueueRow(s, base+int64(i), []float64{1})
			}
		}
		p.Drain(true)
	}
	if len(got) != 5*sites*20 {
		t.Fatalf("applied %d, want %d", len(got), 5*sites*20)
	}
	for i := 1; i < len(got); i++ {
		a, b := got[i-1], got[i]
		if b.T < a.T || (b.T == a.T && b.Site < a.Site) {
			t.Fatalf("apply %d out of order after drains: (%d,%d) then (%d,%d)", i, a.T, a.Site, b.T, b.Site)
		}
	}
	if mp := p.MinProgress(); mp != 419 {
		t.Fatalf("MinProgress = %d, want 419", mp)
	}
}

func TestPipelineAdvanceTokens(t *testing.T) {
	const sites = 4
	var mu sync.Mutex
	adv := make(map[int]int64)
	h := advHandler{adv: adv, mu: &mu}
	p := NewPipeline(sites, h, func(Update) {}, PipelineConfig{Workers: 2})
	defer p.Close()
	p.Advance(42)
	p.Drain(false)
	mu.Lock()
	defer mu.Unlock()
	for s := 0; s < sites; s++ {
		if adv[s] != 42 {
			t.Fatalf("site %d advance = %d, want 42", s, adv[s])
		}
	}
	if mp := p.MinProgress(); mp != 42 {
		t.Fatalf("MinProgress = %d, want 42", mp)
	}
}

type advHandler struct {
	adv map[int]int64
	mu  *sync.Mutex
}

func (h advHandler) HandleRow(site int, t int64, v []float64, emit EmitAt) int64 { return t }
func (h advHandler) HandleAdvance(site int, now int64, emit EmitAt) int64 {
	h.mu.Lock()
	h.adv[site] = now
	h.mu.Unlock()
	return now
}
func (h advHandler) HandleFlush(site int, emit EmitAt) int64 { return minInt64 }
