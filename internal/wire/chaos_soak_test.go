package wire

import (
	"io"
	"math/rand"
	"net"
	"testing"
	"time"

	"distwindow/internal/chaos"
	"distwindow/mat"
)

// The chaos soak drives the same seeded workload twice — once fault-free,
// once under seeded transport faults plus a mid-stream site crash restored
// from a checkpoint — and requires the coordinator's final estimate to be
// BIT-IDENTICAL. Floating-point addition is order-sensitive, so the soak
// serializes delivery: after every row it waits until the row's site has
// an empty backlog (acks received) before feeding the next row. That
// pins the coordinator's apply order; the delivery guarantee under test
// is that faults and recovery change NOTHING — not the set of applied
// deltas, not their order, not a single bit of the estimate.

// soakResult is everything the two runs must agree on.
type soakResult struct {
	chat []float64
	sum  float64
	cm   CoordinatorMetrics
}

// soakSite abstracts the per-protocol site over the crash/restore cycle.
type soakSite struct {
	observe func(int64, []float64) error
	advance func(int64) error
	// checkpoint captures the site's protocol state; the returned restore
	// builds a fresh site from it pushing to a new sender.
	checkpoint func() func(out Sender) (*soakSite, error)
}

func newSoakSite(t *testing.T, proto string, cfg SiteConfig, out Sender) *soakSite {
	t.Helper()
	switch proto {
	case "da1":
		s, err := NewDA1Site(cfg, out)
		if err != nil {
			t.Fatal(err)
		}
		return wrapDA1(s)
	case "da2", "da2c":
		var s *DA2Site
		var err error
		if proto == "da2" {
			s, err = NewDA2Site(cfg, out)
		} else {
			s, err = NewDA2CSite(cfg, out)
		}
		if err != nil {
			t.Fatal(err)
		}
		return wrapDA2(s)
	}
	t.Fatalf("unknown soak protocol %q", proto)
	return nil
}

func wrapDA1(s *DA1Site) *soakSite {
	return &soakSite{
		observe: s.Observe,
		advance: s.Advance,
		checkpoint: func() func(Sender) (*soakSite, error) {
			st := s.Snapshot()
			return func(out Sender) (*soakSite, error) {
				r, err := RestoreDA1Site(st, out)
				if err != nil {
					return nil, err
				}
				return wrapDA1(r), nil
			}
		},
	}
}

func wrapDA2(s *DA2Site) *soakSite {
	return &soakSite{
		observe: s.Observe,
		advance: s.Advance,
		checkpoint: func() func(Sender) (*soakSite, error) {
			st := s.Snapshot()
			return func(out Sender) (*soakSite, error) {
				r, err := RestoreDA2Site(st, out)
				if err != nil {
					return nil, err
				}
				return wrapDA2(r), nil
			}
		},
	}
}

// withSum pairs a matrix site with a SUM site on the same sender, fed
// each row's squared norm; the two are checkpointed and restored together.
func withSum(ms *soakSite, ss *SumSite) *soakSite {
	return &soakSite{
		observe: func(t int64, v []float64) error {
			if err := ms.observe(t, v); err != nil {
				return err
			}
			return ss.Observe(t, mat.VecNormSq(v))
		},
		advance: func(t int64) error {
			if err := ms.advance(t); err != nil {
				return err
			}
			return ss.Advance(t)
		},
		checkpoint: func() func(Sender) (*soakSite, error) {
			restoreM, st := ms.checkpoint(), ss.Snapshot()
			return func(out Sender) (*soakSite, error) {
				rm, err := restoreM(out)
				if err != nil {
					return nil, err
				}
				rs, err := RestoreSumSite(st, out)
				if err != nil {
					return nil, err
				}
				return withSum(rm, rs), nil
			}
		},
	}
}

// The soak workload: soakRows seeded rows, row i at time i+1 on site
// i%soakSites, then every site advanced to soakRows in site order.
const (
	soakD     = 6
	soakW     = int64(120)
	soakEps   = 0.2
	soakSites = 2
	soakRows  = 360
)

type soakRow struct {
	t int64
	v []float64
}

func soakWorkload() []soakRow {
	rng := rand.New(rand.NewSource(99))
	evs := make([]soakRow, soakRows)
	for i := range evs {
		v := make([]float64, soakD)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		evs[i] = soakRow{t: int64(i + 1), v: v}
	}
	return evs
}

// runSoak streams the seeded workload into a real TCP coordinator. With
// inj non-nil every connection draws faults from it; with crash true,
// site 0 is killed mid-stream and resumed from its last checkpoint plus a
// re-feed of the rows observed since — the crashed process's input replay.
// With sum true every site also runs a SUM site over the same sender.
func runSoak(t *testing.T, proto string, inj *chaos.Injector, crash bool, sum bool) soakResult {
	t.Helper()
	const (
		d       = soakD
		w       = soakW
		eps     = soakEps
		sites   = soakSites
		rows    = soakRows
		cpAt    = 150 // site-0 checkpoint row (global index)
		crashAt = 260 // site-0 crash row (global index)
	)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	coord := NewCoordinator(d, WithStaleAfter(30*time.Second))
	go coord.Serve(ln)
	defer coord.Close()

	newSender := func(jitterSeed int64) *ResilientSender {
		dial := func() (io.ReadWriteCloser, error) {
			return net.DialTimeout("tcp", ln.Addr().String(), 2*time.Second)
		}
		if inj != nil {
			dial = inj.Dial(dial)
		}
		s, err := DialFunc(dial, WithResilience(ResilienceConfig{
			BackoffBase: time.Millisecond,
			BackoffMax:  8 * time.Millisecond,
			JitterSeed:  jitterSeed,
		}))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	senders := make([]*ResilientSender, sites)
	ss := make([]*soakSite, sites)
	for i := 0; i < sites; i++ {
		senders[i] = newSender(int64(i) + 1)
		cfg := SiteConfig{ID: i, D: d, W: w, Eps: eps}
		ss[i] = newSoakSite(t, proto, cfg, senders[i])
		if sum {
			s, err := NewSumSite(cfg, senders[i])
			if err != nil {
				t.Fatal(err)
			}
			ss[i] = withSum(ss[i], s)
		}
	}

	// Seeded workload: row i goes to site i%sites, so both runs stream the
	// identical per-site subsequences.
	evs := soakWorkload()

	// wait blocks until the site's backlog is fully acknowledged; Flush
	// inside the loop retries dials killed by faults.
	wait := func(si int) {
		deadline := time.Now().Add(20 * time.Second)
		for senders[si].Pending() > 0 {
			if time.Now().After(deadline) {
				t.Fatalf("site %d: %d frames still unacknowledged (metrics %+v)", si, senders[si].Pending(), senders[si].Metrics())
			}
			senders[si].Flush()
			time.Sleep(200 * time.Microsecond)
		}
	}

	var restore func(Sender) (*soakSite, error)
	var senderCP SenderState
	var since []soakRow // site-0 rows observed after the checkpoint

	for i, e := range evs {
		si := i % sites
		if err := ss[si].observe(e.t, e.v); err != nil {
			t.Fatalf("site %d row %d: %v", si, i, err)
		}
		wait(si)
		if si == 0 && restore != nil {
			since = append(since, e)
		}
		switch {
		case crash && i == cpAt:
			// Checkpoint site 0: protocol state + sender replay state. The
			// backlog is empty here (the soak drains per row), so the
			// checkpoint's job is carrying the sequence counter forward.
			restore = ss[0].checkpoint()
			senderCP = senders[0].State()
		case crash && i == crashAt:
			// Crash site 0: the process is gone, its in-memory state with
			// it. Resume from the checkpoint, re-feed the rows observed
			// since, and let the coordinator's dedup discard the deltas it
			// already consumed.
			senders[0].DiscardPending = true
			senders[0].Close()
			senders[0] = newSender(101)
			if err := senders[0].RestoreState(senderCP); err != nil {
				t.Fatal(err)
			}
			rs, err := restore(senders[0])
			if err != nil {
				t.Fatal(err)
			}
			ss[0] = rs
			for _, r := range since {
				if err := ss[0].observe(r.t, r.v); err != nil {
					t.Fatalf("re-feed t=%d: %v", r.t, err)
				}
				wait(0)
			}
		}
	}
	for si := 0; si < sites; si++ {
		if err := ss[si].advance(int64(rows)); err != nil {
			t.Fatalf("site %d advance: %v", si, err)
		}
		wait(si)
	}
	for si := 0; si < sites; si++ {
		senders[si].Close()
	}

	snap := coord.Snapshot()
	return soakResult{chat: snap.Chat, sum: coord.Sum(), cm: coord.Metrics()}
}

func soakInjector() *chaos.Injector {
	return chaos.New(chaos.Config{
		Seed:  2026,
		PDrop: 0.04, PCut: 0.03, PDup: 0.05,
		PReadCut: 0.02, PDialFail: 0.1,
	})
}

// soakCutInjector draws from the same seed but injects only mid-frame
// cuts, which soakInjector's mix seldom reaches in a soak's few dozen
// writes: a torn v2 frame reaches the coordinator before the link dies,
// and the next connection's replay must land it exactly once. Only
// writes draw from it, and the soak serializes its writes, so every run
// draws the same cuts. soakInjector's mix also draws on reads, in an
// order the ack reader's timing decides.
func soakCutInjector() *chaos.Injector {
	return chaos.New(chaos.Config{Seed: 2026, PCut: 0.2})
}

// soakMixDrawn reports whether a faulty run drew the families its mix
// exists for; if not, the soak proved nothing. The default mix must draw
// the accepted-but-undelivered drop plus one other family, the cut mix a
// mid-frame cut.
func soakMixDrawn(st chaos.Stats, cuts bool) bool {
	if cuts {
		return st.Cuts > 0
	}
	return st.Drops > 0 && st.Cuts+st.Dups+st.ReadCuts+st.DialFails > 0
}

// runChaosSoak compares a fault-free run against one under the default
// fault mix, or under the cut mix with cuts true.
func runChaosSoak(t *testing.T, proto string, cuts bool) {
	if testing.Short() {
		t.Skip("chaos soak is a multi-second TCP test")
	}
	clean := runSoak(t, proto, nil, false, false)
	inj := soakInjector()
	if cuts {
		inj = soakCutInjector()
	}
	faulty := runSoak(t, proto, inj, true, false)

	if len(clean.chat) != len(faulty.chat) {
		t.Fatalf("estimate sizes differ: %d vs %d", len(clean.chat), len(faulty.chat))
	}
	for i := range clean.chat {
		if clean.chat[i] != faulty.chat[i] {
			t.Fatalf("Ĉ[%d] differs: fault-free %v, chaos %v — delivery was not exactly-once in order",
				i, clean.chat[i], faulty.chat[i])
		}
	}
	if clean.sum != faulty.sum {
		t.Fatalf("Sum differs: %v vs %v", clean.sum, faulty.sum)
	}
	if clean.cm.Msgs != faulty.cm.Msgs {
		t.Fatalf("applied-message counts differ: fault-free %d, chaos %d — a delta was lost or double-applied",
			clean.cm.Msgs, faulty.cm.Msgs)
	}
	if faulty.cm.BadMsgs != 0 {
		t.Fatalf("%d frames rejected under chaos", faulty.cm.BadMsgs)
	}
	st := inj.Stats()
	if !soakMixDrawn(st, cuts) {
		t.Fatalf("chaos fault mix too thin (stats %+v); the soak proved nothing", st)
	}
	t.Logf("proto %s: %d applied msgs, %d deduped replays; chaos %+v", proto, faulty.cm.Msgs, faulty.cm.DupMsgs, st)
}

func TestChaosSoakDA1(t *testing.T)  { runChaosSoak(t, "da1", false) }
func TestChaosSoakDA2(t *testing.T)  { runChaosSoak(t, "da2", false) }
func TestChaosSoakDA2C(t *testing.T) { runChaosSoak(t, "da2c", false) }

// The BinaryV2 soaks run the same workloads under the cut mix, so torn
// v2 frames, which the default mix seldom draws, meet the same
// bit-identity bar.
func TestChaosSoakDA1BinaryV2(t *testing.T) { runChaosSoak(t, "da1", true) }
func TestChaosSoakDA2BinaryV2(t *testing.T) { runChaosSoak(t, "da2", true) }
