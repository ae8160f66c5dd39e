package main

import (
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"sync"
	"time"

	"distwindow/internal/chaos"
	"distwindow/internal/obs"
	"distwindow/internal/obs/telemetry"
	"distwindow/internal/stream"
	"distwindow/internal/window"
	"distwindow/internal/wire"
)

// runMultiStream demonstrates stream multiplexing: nStream independent
// logical windows share the per-site TCP connections. Each site keeps ONE
// resilient sender; every stream's protocol instance on that site pushes
// through wire.StreamOf, so frames from all streams interleave on one
// backlog with per-(site, stream) sequence spaces and per-stream acks.
// The coordinator keeps a separate estimate per stream, and the run
// checks every stream's covariance error against its own exact window.
// With telemetry on, each site runs one publisher over its shared sender
// (stream "", aggregating rows across the multiplexed streams) and the
// run ends with the coordinator's fleet report.
func runMultiStream(proto string, m, nStream, rows, d int, w int64, eps float64, seed int64, chCfg chaos.Config, tele bool, teleEvery time.Duration) {
	perStream := rows / nStream
	if perStream < 1 {
		log.Fatalf("-rows %d spread over -streams %d leaves no rows per stream", rows, nStream)
	}
	ids := make([]string, nStream)
	for k := range ids {
		ids[k] = fmt.Sprintf("stream-%03d", k)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	copts := []wire.CoordinatorOption{wire.WithStaleAfter(2 * time.Second)}
	if tele {
		copts = append(copts, wire.WithTelemetry())
	}
	coord := wire.NewCoordinator(d, copts...)
	go coord.Serve(ln)
	fmt.Printf("coordinator listening on %s (%d logical streams over %d connections)\n", ln.Addr(), nStream, m)

	var inj *chaos.Injector
	if chCfg.PDrop > 0 || chCfg.PCut > 0 || chCfg.PDup > 0 || chCfg.PDelay > 0 || chCfg.PDialFail > 0 {
		inj = chaos.New(chCfg)
	}

	// Per-stream seeded workloads: values come from the stream's own rng
	// (so its exact window is reproducible), site assignment from a global
	// one (so streams genuinely interleave across connections).
	type ev struct {
		k    int
		site int
		t    int64
		v    []float64
	}
	siteRng := rand.New(rand.NewSource(seed))
	valRngs := make([]*rand.Rand, nStream)
	for k := range valRngs {
		valRngs[k] = rand.New(rand.NewSource(seed + int64(1000*k)))
	}
	evs := make([]ev, 0, perStream*nStream)
	for i := 0; i < perStream; i++ {
		for k := 0; k < nStream; k++ {
			v := make([]float64, d)
			for j := range v {
				v[j] = valRngs[k].NormFloat64()
			}
			evs = append(evs, ev{k: k, site: siteRng.Intn(m), t: int64(i + 1), v: v})
		}
	}

	start := time.Now()
	var wg sync.WaitGroup
	chans := make([]chan ev, m)
	senders := make([]*wire.ResilientSender, m)
	for si := 0; si < m; si++ {
		chans[si] = make(chan ev, 64)
		wg.Add(1)
		go func(si int, in <-chan ev) {
			defer wg.Done()
			dial := func() (io.ReadWriteCloser, error) {
				return net.DialTimeout("tcp", ln.Addr().String(), 2*time.Second)
			}
			if inj != nil {
				dial = inj.Dial(dial)
			}
			rs, err := wire.DialFunc(dial, wire.WithResilience(wire.ResilienceConfig{
				BackoffBase: 5 * time.Millisecond,
				BackoffMax:  200 * time.Millisecond,
				JitterSeed:  seed + int64(si),
			}))
			if err != nil {
				log.Fatal(err)
			}
			senders[si] = rs
			defer rs.Close()
			defer func() {
				if n := rs.FlushWait(10 * time.Second); n > 0 {
					log.Printf("site %d: %d frames still undelivered after flush", si, n)
					rs.DiscardPending = true
				}
			}()

			// One telemetry publisher per site over the shared sender; its
			// deferred Stop runs before the sender-close defers, so the final
			// frame goes out on the live connection.
			var rowsN obs.Counter
			if tele {
				pub := telemetry.NewPublisher(
					wire.CollectSite(si, "", proto, rowsN.Load, rs),
					wire.TelemetrySender(rs),
				)
				pub.Start(teleEvery)
				defer pub.Stop()
			}

			// One protocol instance per stream, all sharing this sender.
			observe := make([]func(int64, []float64) error, nStream)
			advance := make([]func(int64) error, nStream)
			cfg := wire.SiteConfig{ID: si, D: d, W: w, Eps: eps}
			for k := 0; k < nStream; k++ {
				out := rs.Stream(ids[k])
				switch proto {
				case "da1":
					s, err := wire.NewDA1Site(cfg, out)
					if err != nil {
						log.Fatal(err)
					}
					observe[k], advance[k] = s.Observe, s.Advance
				case "da2":
					s, err := wire.NewDA2Site(cfg, out)
					if err != nil {
						log.Fatal(err)
					}
					observe[k], advance[k] = s.Observe, s.Advance
				default:
					log.Fatalf("unknown protocol %q", proto)
				}
			}
			for e := range in {
				if err := observe[e.k](e.t, e.v); err != nil {
					log.Printf("site %d stream %s: %v", si, ids[e.k], err)
					for range in {
					}
					return
				}
				rowsN.Inc()
			}
			for k := 0; k < nStream; k++ {
				if err := advance[k](int64(perStream)); err != nil {
					log.Printf("site %d stream %s advance: %v", si, ids[k], err)
				}
			}
		}(si, chans[si])
	}
	for _, e := range evs {
		chans[e.site] <- e
	}
	for _, ch := range chans {
		close(ch)
	}
	wg.Wait()
	time.Sleep(200 * time.Millisecond)

	// Per-stream ground truth: replay each stream's value rng.
	worst, sum := 0.0, 0.0
	worstID := ""
	for k := 0; k < nStream; k++ {
		truth := window.NewExact(w)
		rng := rand.New(rand.NewSource(seed + int64(1000*k)))
		for i := 0; i < perStream; i++ {
			v := make([]float64, d)
			for j := range v {
				v[j] = rng.NormFloat64()
			}
			truth.Add(stream.Row{T: int64(i + 1), V: v})
		}
		e := truth.CovErr(d, coord.SketchOf(ids[k]))
		sum += e
		if e > worst {
			worst, worstID = e, ids[k]
		}
		if nStream <= 8 {
			fmt.Printf("  %s: covariance error %.4f (target ε=%.3g)\n", ids[k], e, eps)
		}
	}

	cm := coord.Metrics()
	var rm wire.ResilientMetrics
	for _, s := range senders {
		if s == nil {
			continue
		}
		sm := s.Metrics()
		rm.Msgs += sm.Msgs
		rm.Acked += sm.Acked
		rm.Replayed += sm.Replayed
		rm.Pending += sm.Pending
	}
	fmt.Printf("protocol:         %s over TCP, %d sites × %d streams\n", proto, m, nStream)
	fmt.Printf("streamed:         %d rows (%d per stream, d=%d) in %v\n",
		len(evs), perStream, d, time.Since(start).Round(time.Millisecond))
	fmt.Printf("covariance error: mean %.4f, worst %.4f (%s), target ε=%.3g\n",
		sum/float64(nStream), worst, worstID, eps)
	fmt.Printf("wire traffic:     %d messages, %.1f KiB payload across %d coordinator streams\n",
		cm.Msgs, float64(cm.Bytes)/1024, cm.Streams)
	fmt.Printf("resilience:       %d frames written (%d replays), %d acked, %d pending; %d duplicate frames dropped\n",
		rm.Msgs, rm.Replayed, rm.Acked, rm.Pending, cm.DupMsgs)
	if inj != nil {
		st := inj.Stats()
		fmt.Printf("chaos:            %d writes (%d dropped, %d cut, %d duped, %d delayed), %d of %d dials refused\n",
			st.Writes, st.Drops, st.Cuts, st.Dups, st.Delays, st.DialFails, st.Dials)
	}
	if tele {
		printFleetReport(coord.Fleet())
	}
	coord.Close()
}
