package wire

import (
	"math"
	"testing"
	"time"

	"distwindow/internal/obs"
)

// TestCoordinatorCutReplayAfterResync pins the coordinator checkpoint as
// a consistent cut at the one point a sink can observe mid-Apply: the
// EvSiteResync a stale sender's next frame raises. A snapshot taken from
// that event must hold the frame wholly (folded, its sequence number
// consumed) or not at all; a snapshot holding the horizon without the fold
// would dedup the frame's replay away after a restore and lose its delta.
func TestCoordinatorCutReplayAfterResync(t *testing.T) {
	var (
		c    *Coordinator
		snap *Snapshot
	)
	c = NewCoordinator(2, WithStaleAfter(time.Second), WithSink(obs.FuncSink(func(e obs.Event) {
		if e.Kind == obs.EvSiteResync && snap == nil {
			s := c.Snapshot()
			snap = &s
		}
	})))
	clock := time.Unix(0, 0)
	c.now = func() time.Time { return clock }

	if err := c.Apply(Msg{Site: 0, Kind: DirectionAdd, V: []float64{1, 0}, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	clock = clock.Add(2 * time.Second)
	if n := c.CheckLiveness(); n != 1 {
		t.Fatalf("%d stale senders, want 1", n)
	}
	seq2 := Msg{Site: 0, Kind: DirectionAdd, V: []float64{0, 1}, Seq: 2}
	if err := c.Apply(seq2); err != nil {
		t.Fatal(err)
	}
	if snap == nil {
		t.Fatal("the stale sender's frame raised no EvSiteResync")
	}

	r, err := RestoreCoordinator(*snap)
	if err != nil {
		t.Fatal(err)
	}
	// The site never saw seq 2 acknowledged by the restored coordinator,
	// so it replays it.
	if err := r.Apply(seq2); err != nil {
		t.Fatal(err)
	}
	live, got := c.Snapshot().Streams[""].Chat, r.Snapshot().Streams[""].Chat
	for i := range live {
		if math.Float64bits(got[i]) != math.Float64bits(live[i]) {
			t.Fatalf("restored Ĉ %v after the replay, live Ĉ %v: the snapshot was a torn cut", got, live)
		}
	}
}

// TestCoordinatorCutUnderConcurrentApply snapshots a coordinator in a loop
// while another goroutine applies sequenced unit SumDelta frames. In every
// snapshot the sender's dedup horizon must equal the folded sum: one frame
// is one sequence number and one unit of sum, so any gap is a frame whose
// admission and fold straddle the cut.
func TestCoordinatorCutUnderConcurrentApply(t *testing.T) {
	const frames = 200_000
	c := NewCoordinator(1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for seq := uint64(1); seq <= frames; seq++ {
			if err := c.Apply(Msg{Site: 0, Kind: SumDelta, Delta: 1, Seq: seq}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	snaps, torn := 0, 0
	var first Snapshot
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		s := c.Snapshot()
		var horizon uint64
		for _, ss := range s.StreamSeqs {
			if ss.Site == 0 && ss.Stream == "" {
				horizon = ss.Seq
			}
		}
		if float64(horizon) != s.Streams[""].Sum {
			if torn == 0 {
				first = s
			}
			torn++
		}
		snaps++
	}
	if torn > 0 {
		t.Fatalf("%d of %d snapshots torn; first: horizon %v, sum %v", torn, snaps, first.StreamSeqs, first.Streams[""].Sum)
	}
	if got := c.Sum(); got != frames {
		t.Fatalf("Sum = %v, want %d", got, frames)
	}
	t.Logf("%d snapshots, none torn", snaps)
}
