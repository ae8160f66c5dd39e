package core

import (
	"distwindow/internal/meh"
	"distwindow/mat"
)

// Pools bundles the cross-tracker storage pools a multi-tenant registry
// shares among the trackers it owns: decomposition workspaces and mEH
// bucket storage. The zero value disables sharing — every tracker
// allocates privately, exactly as before the pools existed — so threading
// Pools through Config is free for single-tracker callers.
//
// Pools is runtime-only state: it is never serialized. Config carries it
// in an unexported field (gob skips it, so a snapshot cannot depend on
// which process's pools a tracker happened to share), and restored
// trackers re-attach whatever pools the restoring process passes in.
type Pools struct {
	// WS shares decomposition/power-iteration workspaces.
	WS *mat.WorkspacePool
	// Meh shares mEH row buffers and bucket sketches.
	Meh *meh.Pool
}

// NewPools returns a fully-populated pool set with default caps.
func NewPools() Pools {
	return Pools{WS: mat.NewWorkspacePool(0), Meh: meh.NewPool()}
}

// workspace returns a workspace from the shared pool when one is
// attached, fresh otherwise (WorkspacePool.Get handles the nil pool).
func (p Pools) workspace() *mat.Workspace { return p.WS.Get() }

// attach installs the shared mEH pool on a histogram, if any.
func (p Pools) attach(h *meh.Histogram) {
	if p.Meh != nil && h != nil {
		h.SetShared(p.Meh)
	}
}

// Releaser is implemented by trackers that can donate their pooled
// storage back to the Config.Pools they were built with. Release must
// only be called once ingestion has stopped for good — the tracker is
// unusable afterwards. The facade's Registry calls it on eviction.
type Releaser interface {
	Release()
}
