package wire

import (
	"distwindow/internal/core"
	"distwindow/internal/protocol"
)

// Site crash-recovery: every networked site can serialize its complete
// protocol state and resume after a process restart with bit-identical
// behaviour. The intended checkpoint is the pair (site state, sender
// replay state — ResilientSender.State): restore both, reconnect, and
// re-feed the input rows observed since the checkpoint. The restored
// sender's sequence counter picks up where the checkpoint left it, so the
// re-fed rows regenerate the exact message sequence the crashed site
// already produced, and the coordinator's (Site, Seq) dedup discards
// every delta it already consumed — the resync is exactly-once with no
// coordinator-side coordination.
//
// A site's state is its one-site core tracker's site snapshot plus the
// site configuration; restore goes through core's own restore.

// DA1SiteState serializes a DA1Site.
type DA1SiteState struct {
	Cfg SiteConfig
	core.DA1SiteSnapshot
}

// Snapshot captures the site's state (deep copies throughout).
func (s *DA1Site) Snapshot() DA1SiteState {
	return DA1SiteState{Cfg: s.cfg, DA1SiteSnapshot: s.core.Snapshot().Sites[0]}
}

// RestoreDA1Site rebuilds a site from a snapshot, pushing to out.
func RestoreDA1Site(st DA1SiteState, out Sender) (*DA1Site, error) {
	t, err := newCore(st.Cfg, func(cc core.Config, net *protocol.Network) (*core.DA1, error) {
		return core.RestoreDA1(core.DA1Snapshot{Cfg: cc, Sites: []core.DA1SiteSnapshot{st.DA1SiteSnapshot}, Chat: zeroGram(cc)}, net)
	})
	if err != nil {
		return nil, err
	}
	return newDA1Site(st.Cfg, out, t), nil
}

// DA2SiteState serializes a DA2Site (both variants).
type DA2SiteState struct {
	Cfg      SiteConfig
	Compress bool
	core.DA2SiteSnapshot
}

// Snapshot captures the site's state (deep copies throughout).
func (s *DA2Site) Snapshot() DA2SiteState {
	sn := s.core.Snapshot()
	return DA2SiteState{Cfg: s.cfg, Compress: sn.Compress, DA2SiteSnapshot: sn.Sites[0]}
}

// RestoreDA2Site rebuilds a site from a snapshot, pushing to out.
func RestoreDA2Site(st DA2SiteState, out Sender) (*DA2Site, error) {
	t, err := newCore(st.Cfg, func(cc core.Config, net *protocol.Network) (*core.DA2, error) {
		return core.RestoreDA2(core.DA2Snapshot{Cfg: cc, Compress: st.Compress, Sites: []core.DA2SiteSnapshot{st.DA2SiteSnapshot}, Chat: zeroGram(cc)}, net)
	})
	if err != nil {
		return nil, err
	}
	return newDA2Site(st.Cfg, out, t), nil
}

// SumSiteState serializes a SumSite.
type SumSiteState struct {
	Cfg SiteConfig
	core.SumSiteSnapshot
}

// Snapshot captures the site's state.
func (s *SumSite) Snapshot() SumSiteState {
	return SumSiteState{Cfg: s.cfg, SumSiteSnapshot: s.core.Snapshot().Sites[0]}
}

// RestoreSumSite rebuilds a site from a snapshot, pushing to out.
func RestoreSumSite(st SumSiteState, out Sender) (*SumSite, error) {
	st.Cfg.D = 1
	t, err := newCore(st.Cfg, func(cc core.Config, net *protocol.Network) (*core.SumTracker, error) {
		return core.RestoreSum(core.SumSnapshot{Cfg: cc, Sites: []core.SumSiteSnapshot{st.SumSiteSnapshot}}, net)
	})
	if err != nil {
		return nil, err
	}
	return newSumSite(st.Cfg, out, t), nil
}

// zeroGram is the coordinator half of a restored one-site tracker: a
// networked site never folds its updates in place, so it stays zero.
func zeroGram(cc core.Config) []float64 { return make([]float64, cc.D*cc.D) }
