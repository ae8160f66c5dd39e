package core

import (
	"sync"

	"distwindow/internal/protocol"
	"distwindow/mat"
)

// gramSnapshot freezes a one-way tracker's coordinator Gram estimate Ĉ.
// The chat copy is owned by the snapshot and never written again, so all
// methods are safe from any goroutine. The first Sketch call factors Ĉ
// once (PSDSqrt does not mutate its input) and every call hands out a copy
// of that factor; the float-op sequence is identical to the live tracker's
// Sketch at the same point in the apply order, so the result is
// bit-identical to a quiesced query.
type gramSnapshot struct {
	chat   *mat.Dense
	once   sync.Once
	sketch *mat.Dense
}

func (g *gramSnapshot) Sketch() *mat.Dense {
	g.once.Do(func() { g.sketch = mat.PSDSqrt(g.chat) })
	return g.sketch.Clone()
}

func (g *gramSnapshot) Gram() (*mat.Dense, bool) { return g.chat, true }

// FreezeGram returns the snapshot of a coordinator Gram estimate Ĉ that
// every one-way tracker publishes: it owns a copy of chat, taken now, and
// factors it at most once however many readers share it. The networked
// coordinator publishes its streams through it too, so a TCP stream and
// an in-process tracker answer a query with the same code.
func FreezeGram(chat *mat.Dense) protocol.CoordSnapshot {
	return &gramSnapshot{chat: chat.Clone()}
}

// sketchSnapshot freezes a sampling tracker's materialized sketch B. The
// sampling family keeps no coordinator Gram, so Gram reports absence.
type sketchSnapshot struct {
	b *mat.Dense
}

func (s sketchSnapshot) Sketch() *mat.Dense       { return s.b.Clone() }
func (s sketchSnapshot) Gram() (*mat.Dense, bool) { return nil, false }

// SnapshotCoord freezes Ĉ decayed to at, the time the read stands at. The
// decay multiplier γ^(at−chatT) is applied to the snapshot's copy, never
// to the live Ĉ, so reads leave the γ^Δt chain of the applies whole. An
// at before the last applied update leaves the copy at that update's time.
func (t *DecayTracker) SnapshotCoord(at int64) protocol.CoordSnapshot {
	return &gramSnapshot{chat: t.decayedChat(at)}
}

// SnapshotCoord materializes the current sample set into a frozen sketch.
// Safe from the ingest goroutine only (the sampling family is sequential).
func (s *Sampler) SnapshotCoord(int64) protocol.CoordSnapshot {
	return sketchSnapshot{b: s.Sketch()}
}

// SnapshotCoord materializes the current draws into a frozen sketch.
func (t *WithReplacement) SnapshotCoord(int64) protocol.CoordSnapshot {
	return sketchSnapshot{b: t.Sketch()}
}

var (
	_ protocol.Snapshotter = (*DA1)(nil)
	_ protocol.Snapshotter = (*DA2)(nil)
	_ protocol.Snapshotter = (*DecayTracker)(nil)
	_ protocol.Snapshotter = (*Sampler)(nil)
	_ protocol.Snapshotter = (*WithReplacement)(nil)
)
