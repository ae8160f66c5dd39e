package distwindow

import (
	"encoding/gob"
	"fmt"
	"io"

	"distwindow/internal/core"
	"distwindow/internal/protocol"
)

// Checkpointing: the deterministic trackers (DA1, DA2, DA2-C and the SUM
// special case) can serialize their complete state — site histograms,
// ledgers, coordinator estimate — and resume after a process restart with
// bit-identical behaviour. The sampling trackers are not checkpointable:
// their state includes the in-flight priority RNG, and restarting it
// would silently change the sampling distribution.

// checkpointEnvelope is the on-disk format.
type checkpointEnvelope struct {
	Protocol Protocol
	Config   Config
	DA1      *core.DA1Snapshot
	DA2      *core.DA2Snapshot
}

// Checkpointable reports whether the tracker's protocol supports
// Checkpoint/Restore.
func (t *Tracker) Checkpointable() bool {
	switch t.cfg.Protocol {
	case DA1, DA2, DA2C:
		return true
	}
	return false
}

// Checkpoint serializes the tracker's full state to w. Returns an error
// for protocols that do not support checkpointing.
func (t *Tracker) Checkpoint(w io.Writer) error {
	env := checkpointEnvelope{Protocol: t.cfg.Protocol, Config: t.cfg}
	switch inner := t.inner.(type) {
	case *core.DA1:
		sn := inner.Snapshot()
		env.DA1 = &sn
	case *core.DA2:
		sn := inner.Snapshot()
		env.DA2 = &sn
	default:
		return fmt.Errorf("distwindow: protocol %s is not checkpointable", t.cfg.Protocol)
	}
	return gob.NewEncoder(w).Encode(env)
}

// Restore rebuilds a tracker from a checkpoint written by Checkpoint.
// Communication counters restart from zero (they describe a run, not the
// protocol state).
//
// Options use New's vocabulary and are applied to the rebuilt tracker in
// the same order, so a restored tracker can come back with its sink,
// tracing, audit or pipeline already wired — observability does not lapse
// across a restart. Checkpoints never carry runtime wiring (a Sink is a
// live object, not state), which is why it is re-supplied here.
//
// The envelope is validated before any state is rebuilt: undecodable
// bytes, an invalid configuration, or missing state return an error
// wrapping ErrCheckpointCorrupt; a declared protocol that disagrees with
// the snapshot the envelope actually carries (wrong family, or a DA2
// snapshot whose compress flag contradicts the DA2/DA2-C header) returns
// one wrapping ErrCheckpointMismatch. Both guards exist because gob is
// permissive: a truncated or mislabeled file can decode into a plausible
// envelope that would silently run the wrong protocol.
func Restore(r io.Reader, opts ...Option) (*Tracker, error) {
	o := buildOptions(opts)
	var env checkpointEnvelope
	if err := gob.NewDecoder(r).Decode(&env); err != nil {
		return nil, fmt.Errorf("%w: reading: %v", ErrCheckpointCorrupt, err)
	}
	if err := env.Config.Validate(); err != nil {
		return nil, fmt.Errorf("%w: config: %v", ErrCheckpointCorrupt, err)
	}
	if env.Protocol != env.Config.Protocol {
		return nil, fmt.Errorf("%w: envelope says %s, config says %s",
			ErrCheckpointMismatch, env.Protocol, env.Config.Protocol)
	}
	switch env.Protocol {
	case DA1:
		if env.DA1 == nil || env.DA2 != nil {
			return nil, fmt.Errorf("%w: %s envelope without a DA1 snapshot", ErrCheckpointMismatch, env.Protocol)
		}
	case DA2:
		if env.DA2 == nil || env.DA1 != nil || env.DA2.Compress {
			return nil, fmt.Errorf("%w: %s envelope without a plain DA2 snapshot", ErrCheckpointMismatch, env.Protocol)
		}
	case DA2C:
		if env.DA2 == nil || env.DA1 != nil || !env.DA2.Compress {
			return nil, fmt.Errorf("%w: %s envelope without a compressed DA2 snapshot", ErrCheckpointMismatch, env.Protocol)
		}
	default:
		return nil, fmt.Errorf("%w: protocol %s is not checkpointable", ErrCheckpointCorrupt, env.Protocol)
	}
	net := protocol.NewNetwork(env.Config.Sites)
	var t *Tracker
	switch {
	case env.DA1 != nil:
		inner, err := core.RestoreDA1(*env.DA1, net)
		if err != nil {
			return nil, err
		}
		t = newTracker(inner, net, env.Config)
	case env.DA2 != nil:
		inner, err := core.RestoreDA2(*env.DA2, net)
		if err != nil {
			return nil, err
		}
		t = newTracker(inner, net, env.Config)
	default:
		return nil, fmt.Errorf("%w: no tracker state", ErrCheckpointCorrupt)
	}
	if err := t.applyOptions(o); err != nil {
		return nil, err
	}
	return t, nil
}
