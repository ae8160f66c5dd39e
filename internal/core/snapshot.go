package core

import (
	"fmt"

	"distwindow/internal/eh"
	"distwindow/internal/iwmt"
	"distwindow/internal/meh"
	"distwindow/internal/protocol"
	"distwindow/mat"
)

// This file implements checkpoint/restore for the deterministic trackers,
// so long-running deployments can survive process restarts without losing
// window state. The sampling family is intentionally excluded: its state
// includes in-flight randomness (the priority RNG) whose faithful capture
// would change the protocol's probabilistic guarantees across a restart.

// DA1Snapshot serializes a DA1 tracker.
type DA1Snapshot struct {
	Cfg   Config
	Sites []DA1SiteSnapshot
	Chat  []float64
	Now   int64
}

// DA1SiteSnapshot serializes one DA1 site.
type DA1SiteSnapshot struct {
	Hist  meh.Snapshot
	Chat  []float64
	Churn float64
	LastF float64
	Now   int64
	PV    []float64
}

// Snapshot captures the tracker's full state.
func (t *DA1) Snapshot() DA1Snapshot {
	sn := DA1Snapshot{Cfg: t.cfg, Chat: cloneData(t.chat), Now: t.now}
	for _, s := range t.sites {
		sn.Sites = append(sn.Sites, DA1SiteSnapshot{
			Hist:  s.hist.Snapshot(),
			Chat:  cloneData(s.chat),
			Churn: s.churn,
			LastF: s.lastF,
			Now:   s.now,
			PV:    append([]float64(nil), s.pv...),
		})
	}
	return sn
}

// RestoreDA1 rebuilds a DA1 tracker onto a fresh network.
func RestoreDA1(sn DA1Snapshot, net *protocol.Network) (*DA1, error) {
	t, err := NewDA1(sn.Cfg, net)
	if err != nil {
		return nil, err
	}
	if len(sn.Sites) != sn.Cfg.Sites {
		return nil, fmt.Errorf("core: DA1 snapshot has %d sites, config says %d", len(sn.Sites), sn.Cfg.Sites)
	}
	if err := restoreInto(t.chat, sn.Chat); err != nil {
		return nil, err
	}
	t.now = sn.Now
	for i, ss := range sn.Sites {
		h, err := meh.Restore(ss.Hist)
		if err != nil {
			return nil, fmt.Errorf("core: DA1 site %d: %w", i, err)
		}
		s := t.sites[i]
		s.hist = h
		if err := restoreInto(s.chat, ss.Chat); err != nil {
			return nil, err
		}
		s.churn = ss.Churn
		s.lastF = ss.LastF
		s.now = ss.Now
		if len(ss.PV) == sn.Cfg.D {
			s.pv = append([]float64(nil), ss.PV...)
		}
	}
	return t, nil
}

// DA2Snapshot serializes a DA2 tracker.
type DA2Snapshot struct {
	Cfg      Config
	Compress bool
	Sites    []DA2SiteSnapshot
	Chat     []float64
	Now      int64
}

// DA2SiteSnapshot serializes one DA2 site.
type DA2SiteSnapshot struct {
	A        iwmt.Snapshot
	Ledger   []iwmt.Msg
	Q        []iwmt.Msg
	E        *iwmt.Snapshot
	Resid    []float64
	Mass     eh.Snapshot
	Boundary int64
	Now      int64
}

// Snapshot captures the tracker's full state.
func (t *DA2) Snapshot() DA2Snapshot {
	sn := DA2Snapshot{Cfg: t.cfg, Compress: t.compress, Chat: cloneData(t.chat), Now: t.now}
	for _, s := range t.sites {
		ss := DA2SiteSnapshot{
			A:        s.a.Snapshot(),
			Ledger:   cloneMsgs(s.ledger),
			Q:        cloneMsgs(s.q),
			Mass:     s.mass.Snapshot(),
			Boundary: s.boundary,
			Now:      s.now,
		}
		if s.e != nil {
			e := s.e.Snapshot()
			ss.E = &e
		}
		if s.resid != nil {
			ss.Resid = cloneData(s.resid)
		}
		sn.Sites = append(sn.Sites, ss)
	}
	return sn
}

// RestoreDA2 rebuilds a DA2 tracker onto a fresh network.
func RestoreDA2(sn DA2Snapshot, net *protocol.Network) (*DA2, error) {
	t, err := newDA2(sn.Cfg, net, sn.Compress)
	if err != nil {
		return nil, err
	}
	if len(sn.Sites) != sn.Cfg.Sites {
		return nil, fmt.Errorf("core: DA2 snapshot has %d sites, config says %d", len(sn.Sites), sn.Cfg.Sites)
	}
	if err := restoreInto(t.chat, sn.Chat); err != nil {
		return nil, err
	}
	t.now = sn.Now
	for i, ss := range sn.Sites {
		s := t.sites[i]
		mass, err := eh.Restore(ss.Mass)
		if err != nil {
			return nil, fmt.Errorf("core: DA2 site %d mass: %w", i, err)
		}
		s.mass = mass
		a, err := iwmt.Restore(ss.A, func() float64 { return sn.Cfg.Eps * s.mass.Query() })
		if err != nil {
			return nil, fmt.Errorf("core: DA2 site %d IWMT_a: %w", i, err)
		}
		s.a = a
		s.ledger = cloneMsgs(ss.Ledger)
		s.q = cloneMsgs(ss.Q)
		s.boundary = ss.Boundary
		s.now = ss.Now
		if ss.E != nil {
			e, err := iwmt.Restore(*ss.E, func() float64 { return sn.Cfg.Eps * s.mass.Query() })
			if err != nil {
				return nil, fmt.Errorf("core: DA2 site %d IWMT_e: %w", i, err)
			}
			s.e = e
		}
		if ss.Resid != nil {
			s.resid = mat.NewDense(sn.Cfg.D, sn.Cfg.D)
			if err := restoreInto(s.resid, ss.Resid); err != nil {
				return nil, err
			}
		}
	}
	return t, nil
}

// SumSnapshot serializes a SumTracker.
type SumSnapshot struct {
	Cfg   Config
	Sites []SumSiteSnapshot
	Est   float64
}

// SumSiteSnapshot serializes one SUM site.
type SumSiteSnapshot struct {
	Hist    eh.Snapshot
	Chat    float64
	Now     int64
	Checked uint64
}

// Snapshot captures the tracker's state.
func (t *SumTracker) Snapshot() SumSnapshot {
	sn := SumSnapshot{Cfg: t.cfg, Est: t.est}
	for _, s := range t.sites {
		sn.Sites = append(sn.Sites, SumSiteSnapshot{
			Hist: s.hist.Snapshot(), Chat: s.chat, Now: s.now, Checked: s.checked,
		})
	}
	return sn
}

// RestoreSum rebuilds a SumTracker onto a fresh network.
func RestoreSum(sn SumSnapshot, net *protocol.Network) (*SumTracker, error) {
	t, err := NewSumTracker(sn.Cfg, net)
	if err != nil {
		return nil, err
	}
	if len(sn.Sites) != sn.Cfg.Sites {
		return nil, fmt.Errorf("core: SUM snapshot has %d sites, config says %d", len(sn.Sites), sn.Cfg.Sites)
	}
	t.est = sn.Est
	for i, ss := range sn.Sites {
		h, err := eh.Restore(ss.Hist)
		if err != nil {
			return nil, fmt.Errorf("core: SUM site %d: %w", i, err)
		}
		t.sites[i] = &sumSite{hist: h, chat: ss.Chat, now: ss.Now, checked: ss.Checked}
	}
	return t, nil
}

func cloneData(m *mat.Dense) []float64 {
	return append([]float64(nil), m.Data()...)
}

func cloneMsgs(ms []iwmt.Msg) []iwmt.Msg {
	out := make([]iwmt.Msg, len(ms))
	for i, m := range ms {
		out[i] = iwmt.Msg{T: m.T, V: append([]float64(nil), m.V...)}
	}
	return out
}

func restoreInto(dst *mat.Dense, data []float64) error {
	if len(data) != len(dst.Data()) {
		return fmt.Errorf("core: snapshot matrix length %d, want %d", len(data), len(dst.Data()))
	}
	copy(dst.Data(), data)
	return nil
}
