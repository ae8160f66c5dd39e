package protocol

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"distwindow/internal/stream"
)

// stampRows fills rows with block i's stamp: row r has timestamp i<<8|r and
// values (i, r, j) packed into one float, so a reader can tell which block
// and row it holds.
func stampRows(rows []stream.Row, i int) {
	for r := range rows {
		rows[r].T = int64(i)<<8 | int64(r)
		for j := range rows[r].V {
			rows[r].V[j] = float64((i*256+r)*len(rows[r].V) + j)
		}
	}
}

// checkStamps reports the first row or value of a row item that does not
// carry block i's stamp. It reads the block's slices once, so a block
// refilled under it shows up as a wrong stamp or length, not a panic.
func checkStamps(it *laneItem, i int) error {
	ts, vbuf := it.blk.ts, it.blk.vbuf
	if len(ts) != it.n || len(vbuf) != it.n*it.d {
		return fmt.Errorf("block %d: %d timestamps and %d values for %d rows of %d", i, len(ts), len(vbuf), it.n, it.d)
	}
	for r := 0; r < it.n; r++ {
		if want := int64(i)<<8 | int64(r); ts[r] != want {
			return fmt.Errorf("block %d row %d: timestamp %#x, want %#x", i, r, ts[r], want)
		}
		for j := 0; j < it.d; j++ {
			if want := float64((i*256+r)*it.d + j); vbuf[r*it.d+j] != want {
				return fmt.Errorf("block %d row %d col %d: %v, want %v", i, r, j, vbuf[r*it.d+j], want)
			}
		}
	}
	return nil
}

func newRows(n, d int) []stream.Row {
	rows := make([]stream.Row, n)
	for r := range rows {
		rows[r].V = make([]float64, d)
	}
	return rows
}

// TestSPSCRingBlocksFollowLag pushes thousands of 64-row blocks through a
// 256-slot ring while the consumer lags by k items, never more: the lane
// must then own at most k+1 distinct blocks, however deep the ring. The
// consumer waits for k items before each pop, so the lag does reach k.
func TestSPSCRingBlocksFollowLag(t *testing.T) {
	const d, rowsPer, blocks = 32, 64, 2_000
	for _, k := range []int{1, 2, 8, 25} {
		r := newSPSCRing(256)
		done := make(chan struct{})
		go func() {
			defer close(done)
			rows := newRows(rowsPer, d)
			for i := 0; i < blocks; i++ {
				for r.tail.Load()-r.head.Load() >= uint64(k) {
					runtime.Gosched()
				}
				stampRows(rows, i)
				r.push(func(s *laneItem) { s.fillRows(r.block(), rows) })
			}
		}()
		seen := make(map[*rowBlock]bool)
		var bad error
		for i := 0; i < blocks; i++ {
			for r.tail.Load()-r.head.Load() < uint64(min(k, blocks-i)) {
				runtime.Gosched()
			}
			it, _ := r.peek()
			if err := checkStamps(it, i); err != nil && bad == nil {
				bad = err
			}
			seen[it.blk] = true
			r.pop()
		}
		<-done
		if bad != nil {
			t.Fatalf("k=%d: %v", k, bad)
		}
		if len(seen) > k+1 {
			t.Fatalf("consumer lagging by at most %d items: the lane used %d distinct blocks, want ≤ %d", k, len(seen), k+1)
		}
		t.Logf("lag %d: %d distinct blocks over %d pushes", k, len(seen), blocks)
	}
}

// TestSPSCRingHandoffStress paces the producer and the consumer with yields
// drawn from a seeded source, over ring depths of 1 to 8 slots and a mix of
// row items of 1 to 8 rows and advance tokens. Every row carries its
// (block, row) stamp. The consumer checks an item's stamps when it peeks
// it, yields, checks them again, and only then pops it, so a block handed
// back or refilled while a live slot still holds it fails the check. Each
// seed is a subtest; a failure names its seed and reruns with
// -run 'TestSPSCRingHandoffStress/seed=N'.
func TestSPSCRingHandoffStress(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 40
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			if err := handoffStress(seed); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		})
	}
}

// pace yields to the scheduler 0 to 3 times, as drawn from rng: the seeded
// points where one side of the ring lets the other run.
func pace(rng *rand.Rand) {
	for n := rng.Intn(8) - 4; n > 0; n-- {
		runtime.Gosched()
	}
}

func handoffStress(seed int64) error {
	const d, maxRows, items = 3, 8, 3_000
	rng := rand.New(rand.NewSource(seed))
	r := newSPSCRing(1 << rng.Intn(4))
	prodRng := rand.New(rand.NewSource(rng.Int63()))
	consRng := rand.New(rand.NewSource(rng.Int63()))

	// kinds tells the consumer what the producer pushed; it is written
	// before the push that publishes item i, so the tail store orders it.
	kinds := make([]itemKind, items)
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		rows := newRows(maxRows, d)
		for i := 0; i < items && !stop.Load(); i++ {
			pace(prodRng)
			if prodRng.Intn(8) == 0 {
				kinds[i] = itemAdvance
				r.push(func(s *laneItem) { s.t, s.kind = int64(i), itemAdvance })
				continue
			}
			blk := rows[:1+prodRng.Intn(maxRows)]
			stampRows(blk, i)
			kinds[i] = itemRow
			r.push(func(s *laneItem) { s.fillRows(r.block(), blk) })
		}
	}()
	fail := func(err error) error {
		// Let a producer parked on the full ring finish so the goroutine
		// does not outlive the test.
		stop.Store(true)
		for {
			select {
			case <-done:
				return err
			default:
			}
			if _, ok := r.peek(); ok {
				r.pop()
			}
			runtime.Gosched()
		}
	}
	for i := 0; i < items; i++ {
		var it *laneItem
		for {
			var ok bool
			if it, ok = r.peek(); ok {
				break
			}
			runtime.Gosched()
		}
		if it.kind != kinds[i] {
			return fail(fmt.Errorf("item %d: kind %d, want %d", i, it.kind, kinds[i]))
		}
		if it.kind == itemAdvance {
			if it.t != int64(i) {
				return fail(fmt.Errorf("item %d: advance to %d", i, it.t))
			}
			r.pop()
			continue
		}
		if err := checkStamps(it, i); err != nil {
			return fail(err)
		}
		pace(consRng)
		if err := checkStamps(it, i); err != nil {
			return fail(fmt.Errorf("after yielding: %w", err))
		}
		r.pop()
		pace(consRng)
	}
	<-done
	if !r.empty() {
		return fmt.Errorf("ring not empty after %d items", items)
	}
	return nil
}

// gateHandler does no site work, and handles no row until release is
// closed: a feeder can fill the rings to their depth first.
type gateHandler struct{ release chan struct{} }

func (h gateHandler) HandleRow(site int, t int64, v []float64, emit EmitAt) int64 {
	<-h.release
	return t
}
func (gateHandler) HandleAdvance(site int, now int64, emit EmitAt) int64 { return now }
func (gateHandler) HandleFlush(site int, emit EmitAt) int64              { return minInt64 }

// TestPipelineEnqueueRowsSteadyStateAllocFree counts the allocations of
// steady-state EnqueueRows (and EnqueueRow, the one-row path) through a
// handler that does no work, in one measured run of 1,000 rounds of three
// calls per site. The warm-up fills every lane's ring to its depth while
// the workers are held, so each lane owns as many full-size blocks as it
// can ever have in flight; from then on every block is a handed-back one
// and nothing allocates.
func TestPipelineEnqueueRowsSteadyStateAllocFree(t *testing.T) {
	const sites, d, ring, batch = 2, 8, 32, 64
	h := gateHandler{release: make(chan struct{})}
	p := NewPipeline(sites, h, func(Update) {}, PipelineConfig{Workers: 2, RingSize: ring})
	defer p.Close()
	rows := newRows(3*batch+17, d) // three full blocks and a partial one
	now := int64(0)
	feed := func(runs int) {
		for i := 0; i < runs; i++ {
			for s := 0; s < sites; s++ {
				for r := range rows {
					now++
					rows[r].T = now
				}
				p.EnqueueRows(s, rows[:batch])
				p.EnqueueRows(s, rows)
				p.EnqueueRow(s, now, rows[0].V)
			}
		}
		for !p.lanesIdle() {
			runtime.Gosched()
		}
	}
	for s := 0; s < sites; s++ {
		for i := 0; i < ring; i++ {
			p.EnqueueRows(s, rows[:batch])
		}
	}
	close(h.release)
	feed(200)
	if n := testing.AllocsPerRun(1, func() { feed(1_000) }); n != 0 {
		t.Fatalf("steady-state EnqueueRows: %v allocations over one measured run, want 0", n)
	}
}
