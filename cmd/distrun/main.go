// Command distrun demonstrates the one-way deterministic protocols over a
// real TCP deployment on localhost: one coordinator process goroutine, m
// site goroutines each with its own TCP connection, streaming a generated
// dataset in real (accelerated) order. It prints the assembled sketch's
// covariance error against the exact window and the wire traffic.
//
// With -pipeline the same workload instead runs in-process through the
// parallel per-site ingestion pipeline (distwindow.New with WithParallel):
// one feeder goroutine per site, site-local work on the pipeline's
// workers, coordinator updates merged in global (T, site) order. -workers
// sizes the pipeline (0 = one per core) and -batch sizes the feeders'
// ObserveBatch runs (1 = row-at-a-time TryObserve); the end-of-run report
// prints the achieved rows/s per worker.
//
// Usage:
//
//	distrun -proto da2 -sites 8 -rows 30000 -d 24
//	distrun -proto da2 -sites 8 -rows 30000 -d 24 -pipeline -workers 4 -batch 64
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"text/tabwriter"

	"distwindow"
	"distwindow/internal/audit"
	"distwindow/internal/chaos"
	"distwindow/internal/obs"
	"distwindow/internal/obs/telemetry"
	"distwindow/internal/stream"
	"distwindow/internal/trace"
	"distwindow/internal/window"
	"distwindow/internal/wire"
)

func main() {
	var (
		proto   = flag.String("proto", "da2", "protocol: da1 or da2")
		m       = flag.Int("sites", 8, "number of site connections")
		rows    = flag.Int("rows", 30_000, "rows to stream")
		d       = flag.Int("d", 24, "row dimension")
		w       = flag.Int64("w", 8_000, "window length in ticks")
		eps     = flag.Float64("eps", 0.05, "target covariance error")
		seed    = flag.Int64("seed", 1, "RNG seed")
		metrics = flag.String("metrics", "", "serve GET /metrics and /healthz on this address (e.g. :9090) while streaming")
		pprofF  = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ on the -metrics address")
		traceN  = flag.Int("trace-sample", 0, "causal tracing: trace 1-in-N ingested rows (0 = off); export at /debug/trace and -trace-out")
		traceO  = flag.String("trace-out", "", "write the Chrome trace-event JSON to this path at exit (requires -trace-sample)")
		liveAud = flag.Bool("live-audit", false, "run the live ε-error auditor against the coordinator's sketch; panel at /debug/audit")
		pipe    = flag.Bool("pipeline", false, "run in-process through the parallel per-site pipeline instead of TCP")
		pipeW   = flag.Int("workers", 0, "pipeline worker goroutines, 0 = one per core (requires -pipeline)")
		batch   = flag.Int("batch", 64, "rows per ObserveBatch run in the pipeline feeders, 1 = row-at-a-time (requires -pipeline)")
		nStream = flag.Int("streams", 1, "multiplex this many logical streams over the per-site connections (each stream is an independent window; implies -resilient)")

		tele      = flag.Bool("telemetry", false, "fleet telemetry: sites publish counter frames over their wire connections; coordinator aggregates, serves Prometheus /metrics and /debug/fleet, and prints a fleet report at exit")
		teleEvery = flag.Duration("telemetry-interval", 100*time.Millisecond, "how often each site publishes a telemetry frame (requires -telemetry)")

		resilient = flag.Bool("resilient", false, "use acknowledged resilient senders (seq/ack frames, reconnect + replay) instead of bare connections")
		chSeed    = flag.Int64("chaos-seed", 1, "seed for the chaos fault stream")
		chDrop    = flag.Float64("chaos-drop", 0, "chaos: probability a frame write is accepted but never delivered (requires -resilient)")
		chCut     = flag.Float64("chaos-cut", 0, "chaos: probability a frame write is cut mid-frame (requires -resilient)")
		chDup     = flag.Float64("chaos-dup", 0, "chaos: probability a frame write is delivered twice (requires -resilient)")
		chDelay   = flag.Float64("chaos-delay", 0, "chaos: probability a frame write is delayed (requires -resilient)")
		chDial    = flag.Float64("chaos-dialfail", 0, "chaos: probability a dial attempt is refused (requires -resilient)")
	)
	flag.Parse()

	chaosOn := *chDrop > 0 || *chCut > 0 || *chDup > 0 || *chDelay > 0 || *chDial > 0
	if chaosOn && !*resilient {
		log.Fatal("-chaos-* flags inject faults the bare sender cannot survive; add -resilient")
	}

	if *pipe {
		if *nStream > 1 {
			log.Fatal("-streams multiplexes TCP connections; it cannot be combined with -pipeline")
		}
		if *tele {
			log.Fatal("-telemetry piggybacks frames on the wire; it cannot be combined with -pipeline")
		}
		if *batch < 1 {
			log.Fatal("-batch must be ≥ 1")
		}
		runPipeline(*proto, *m, *rows, *d, *w, *eps, *seed, *pipeW, *batch)
		return
	}
	if *nStream > 1 {
		runMultiStream(*proto, *m, *nStream, *rows, *d, *w, *eps, *seed, chaos.Config{
			Seed: *chSeed, PDrop: *chDrop, PCut: *chCut, PDup: *chDup,
			PDelay: *chDelay, PDialFail: *chDial,
		}, *tele, *teleEvery)
		return
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	// Tracing: every site goroutine owns a Tracer (the current-span chain
	// is single-goroutine) but all record into one shared ring, and the
	// coordinator's apply spans join the sites' traces via the context the
	// frames carry.
	var ring *trace.Ring
	var copts []wire.CoordinatorOption
	if *traceN > 0 {
		ring = trace.NewRing(0)
		copts = append(copts, wire.WithTracer(trace.New(ring, *traceN)))
	}
	if *tele {
		copts = append(copts, wire.WithTelemetry())
	}
	if *resilient {
		copts = append(copts, wire.WithStaleAfter(2*time.Second))
	}
	coord := wire.NewCoordinator(*d, copts...)

	// One shared injector gives the whole run a single seeded fault stream;
	// every site's dials and connections draw from it.
	var inj *chaos.Injector
	if chaosOn {
		inj = chaos.New(chaos.Config{
			Seed: *chSeed, PDrop: *chDrop, PCut: *chCut, PDup: *chDup,
			PDelay: *chDelay, PDialFail: *chDial,
		})
	}
	// The live auditor shadows the exact union window in the coordinator
	// process and checks the assembled sketch against ε as rows stream in.
	// Transient violations are expected over a real network: each audit
	// tick races the frames still in flight between sites and coordinator.
	var aud *audit.Auditor
	if *liveAud {
		acfg := audit.Config{
			D: *d, W: *w, Eps: *eps,
			Sketch: coord.Sketch,
			Words:  func() int64 { _, bytes := coord.Stats(); return bytes / 8 },
		}
		if *resilient {
			acfg.DegradedSites = coord.CheckLiveness
		}
		aud, err = audit.New(acfg)
		if err != nil {
			log.Fatal(err)
		}
	}

	go coord.Serve(ln)
	fmt.Printf("coordinator listening on %s\n", ln.Addr())
	if *metrics != "" {
		var opts []obs.MuxOption
		if *pprofF {
			opts = append(opts, obs.WithPprof())
		}
		if ring != nil {
			opts = append(opts, obs.WithHandler("/debug/trace", ring.Handler()))
		}
		if aud != nil {
			opts = append(opts, obs.WithHandler("/debug/audit", aud.Handler()))
		}
		go func() {
			if err := http.ListenAndServe(*metrics, coord.MetricsMux(opts...)); err != nil {
				log.Printf("metrics server: %v", err)
			}
		}()
		fmt.Printf("metrics on http://%s/metrics\n", *metrics)
		if *tele {
			fmt.Printf("fleet dashboard on http://%s/debug/fleet\n", *metrics)
		}
	}

	// Generate the whole event stream up front so the exact window is
	// reproducible ground truth.
	rng := rand.New(rand.NewSource(*seed))
	type ev struct {
		site int
		t    int64
		v    []float64
	}
	evs := make([]ev, *rows)
	for i := range evs {
		v := make([]float64, *d)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		evs[i] = ev{site: rng.Intn(*m), t: int64(i + 1), v: v}
	}

	// Stream in global timestamp order: the main loop walks the events and
	// dispatches each to its site's channel, so the sites progress roughly
	// in step (and the auditor's shadow window sees rows in order). Each
	// site goroutine owns its TCP connection and, when tracing, its own
	// Tracer over the shared ring.
	start := time.Now()
	var wg sync.WaitGroup
	chans := make([]chan ev, *m)
	resSenders := make([]*wire.ResilientSender, *m)
	for si := 0; si < *m; si++ {
		chans[si] = make(chan ev, 64)
		wg.Add(1)
		go func(si int, in <-chan ev) {
			defer wg.Done()
			drain := func() {
				for range in {
				}
			}
			var sender wire.Sender
			if *resilient {
				dial := func() (io.ReadWriteCloser, error) {
					return net.DialTimeout("tcp", ln.Addr().String(), 2*time.Second)
				}
				if inj != nil {
					dial = inj.Dial(dial)
				}
				rs, err := wire.DialFunc(dial, wire.WithResilience(wire.ResilienceConfig{
					BackoffBase: 5 * time.Millisecond,
					BackoffMax:  200 * time.Millisecond,
					JitterSeed:  *chSeed + int64(si),
				}))
				if err != nil {
					log.Fatal(err)
				}
				resSenders[si] = rs
				sender = rs
				defer func() {
					if n := rs.FlushWait(10 * time.Second); n > 0 {
						log.Printf("site %d: %d frames still undelivered after flush", si, n)
					}
					if err := rs.Close(); err != nil {
						var pe *wire.PendingError
						if errors.As(err, &pe) {
							log.Printf("site %d: discarding %d undelivered frames at shutdown", si, pe.Pending)
							rs.DiscardPending = true
						}
						rs.Close()
					}
				}()
			} else {
				conn, err := net.Dial("tcp", ln.Addr().String())
				if err != nil {
					log.Printf("site %d: %v", si, err)
					drain()
					return
				}
				cs, err := wire.NewSender(conn)
				if err != nil {
					log.Fatal(err)
				}
				defer cs.Close()
				sender = cs
			}
			// Telemetry rides the same connection as the estimates, best
			// effort and outside the seq/ack space; the deferred Stop runs
			// before the sender closes, so the final frame (with the site's
			// finished counters) still goes out.
			var rowsN obs.Counter
			if *tele {
				pub := telemetry.NewPublisher(
					wire.CollectSite(si, "", *proto, rowsN.Load, resSenders[si]),
					wire.TelemetrySender(sender),
				)
				pub.Start(*teleEvery)
				defer pub.Stop()
			}
			cfg := wire.SiteConfig{ID: si, D: *d, W: *w, Eps: *eps}
			var observe func(t int64, v []float64) error
			var advance func(t int64) error
			switch *proto {
			case "da1":
				s, err := wire.NewDA1Site(cfg, sender)
				if err != nil {
					log.Fatal(err)
				}
				if ring != nil {
					s.SetTracer(trace.New(ring, *traceN))
				}
				observe, advance = s.Observe, s.Advance
			case "da2":
				s, err := wire.NewDA2Site(cfg, sender)
				if err != nil {
					log.Fatal(err)
				}
				if ring != nil {
					s.SetTracer(trace.New(ring, *traceN))
				}
				observe, advance = s.Observe, s.Advance
			default:
				log.Fatalf("unknown protocol %q", *proto)
			}
			for e := range in {
				if err := observe(e.t, e.v); err != nil {
					log.Printf("site %d: %v", si, err)
					drain()
					return
				}
				rowsN.Inc()
			}
			if err := advance(int64(*rows)); err != nil {
				log.Printf("site %d: %v", si, err)
			}
		}(si, chans[si])
	}
	for _, e := range evs {
		chans[e.site] <- e
		if aud != nil {
			aud.Observe(e.t, e.v)
		}
	}
	for _, ch := range chans {
		close(ch)
	}
	wg.Wait()
	// Let the coordinator drain in-flight frames before measuring.
	time.Sleep(200 * time.Millisecond)

	truth := window.NewExact(*w)
	for _, e := range evs {
		truth.Add(stream.Row{T: e.t, V: e.v})
	}
	b := coord.Sketch()
	cm := coord.Metrics()
	fmt.Printf("protocol:         %s over TCP, %d sites\n", *proto, *m)
	fmt.Printf("streamed:         %d rows (d=%d) in %v\n", *rows, *d, time.Since(start).Round(time.Millisecond))
	fmt.Printf("covariance error: %.4f (target ε=%.3g)\n", truth.CovErr(*d, b), *eps)
	fmt.Printf("wire traffic:     %d messages, %.1f KiB payload\n", cm.Msgs, float64(cm.Bytes)/1024)
	fmt.Printf("message kinds:    %d direction adds, %d removes, %d sum deltas (%d rejected)\n",
		cm.DirectionAdds, cm.DirectionRemoves, cm.SumDeltas, cm.BadMsgs)
	raw := float64(truth.Len()*(*d+2)) * 8 / 1024
	fmt.Printf("vs. shipping the active window: %.1f KiB\n", raw)
	if *resilient {
		var rm wire.ResilientMetrics
		for _, s := range resSenders {
			if s == nil {
				continue
			}
			m := s.Metrics()
			rm.Msgs += m.Msgs
			rm.Acked += m.Acked
			rm.Replayed += m.Replayed
			rm.Pending += m.Pending
			rm.DialAttempts += m.DialAttempts
			rm.DialFailures += m.DialFailures
		}
		fmt.Printf("resilience:       %d frames written (%d replays), %d acked, %d pending; %d dials (%d failed)\n",
			rm.Msgs, rm.Replayed, rm.Acked, rm.Pending, rm.DialAttempts, rm.DialFailures)
		fmt.Printf("dedup:            %d duplicate frames dropped, %d acks sent, %d sites stale\n",
			cm.DupMsgs, cm.AckedMsgs, cm.StaleSites)
	}
	if inj != nil {
		st := inj.Stats()
		fmt.Printf("chaos:            %d writes (%d dropped, %d cut, %d duped, %d delayed), %d read cuts, %d of %d dials refused\n",
			st.Writes, st.Drops, st.Cuts, st.Dups, st.Delays, st.ReadCuts, st.DialFails, st.Dials)
	}
	if aud != nil {
		aud.Advance(int64(*rows))
		aud.Tick()
		am := aud.Metrics()
		fmt.Printf("live audit:       %d ticks, %d violations, last err %.4f, max %.4f (ε=%g)\n",
			am.Ticks, am.Violations, am.LastErr, am.MaxErr, am.Eps)
	}
	if *tele {
		// The coordinator contributes its own auditor figures as site -1, so
		// the paper-native series (ε-headroom, words/window) appear in the
		// fleet view next to the sites' ingest series.
		if aud != nil {
			am := aud.Metrics()
			coord.Fleet().Record(wire.TeleFrame{
				Site: -1, Proto: *proto, UnixNs: time.Now().UnixNano(),
				Eps: am.Eps, Err: am.LastErr, Headroom: am.Headroom,
				WordsPerWindow: am.WordsPerWindow, Violations: am.Violations,
			})
		}
		printFleetReport(coord.Fleet())
	}
	if *traceO != "" {
		if ring == nil {
			log.Fatal("-trace-out requires -trace-sample")
		}
		js, err := ring.ChromeTrace()
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*traceO, js, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trace:            %s (%d spans recorded)\n", *traceO, ring.Recorded())
	}
	coord.Close()
}

// runPipeline streams the same generated dataset through the in-process
// parallel pipeline: the event stream is partitioned by site and each
// site's subsequence is fed by its own goroutine, so ingestion parallelism
// comes from the pipeline's workers rather than TCP connections. Feeders
// hand rows to the lane rings in ObserveBatch runs of the given batch size
// (one ring block and one worker wakeup per run); batch 1 falls back to
// row-at-a-time TryObserve.
func runPipeline(proto string, m, rows, d int, w int64, eps float64, seed int64, workers, batch int) {
	var p distwindow.Protocol
	switch proto {
	case "da1":
		p = distwindow.DA1
	case "da2":
		p = distwindow.DA2
	default:
		log.Fatalf("-pipeline supports da1 and da2, not %q", proto)
	}
	tr, err := distwindow.New(distwindow.Config{
		Protocol: p, D: d, W: w, Eps: eps, Sites: m, Seed: seed,
	}, distwindow.WithParallel(workers))
	if err != nil {
		log.Fatal(err)
	}
	defer tr.Close()

	// Same generator and seed as the TCP path, so the two modes stream the
	// identical dataset; rows are partitioned by site for the feeders.
	rng := rand.New(rand.NewSource(seed))
	rowsOf := make([][]distwindow.Row, m)
	var all []distwindow.Row
	for i := 0; i < rows; i++ {
		v := make([]float64, d)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		r := distwindow.Row{T: int64(i + 1), V: v}
		si := rng.Intn(m)
		rowsOf[si] = append(rowsOf[si], r)
		all = append(all, r)
	}

	start := time.Now()
	var wg sync.WaitGroup
	for si := 0; si < m; si++ {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			rs := rowsOf[si]
			if batch <= 1 {
				for _, r := range rs {
					if err := tr.TryObserve(si, r); err != nil {
						log.Printf("site %d: %v", si, err)
						return
					}
				}
				return
			}
			for len(rs) > 0 {
				n := min(batch, len(rs))
				if _, err := tr.ObserveBatch(si, rs[:n]); err != nil {
					log.Printf("site %d: %v", si, err)
					return
				}
				rs = rs[n:]
			}
		}(si)
	}
	wg.Wait()
	tr.Drain()
	elapsed := time.Since(start)

	truth := window.NewExact(w)
	for _, r := range all {
		truth.Add(stream.Row{T: r.T, V: r.V})
	}
	b := tr.Sketch()
	met := tr.Metrics()
	fmt.Printf("protocol:         %s in-process pipeline, %d sites\n", proto, m)
	fmt.Printf("streamed:         %d rows (d=%d) in %v\n", rows, d, elapsed.Round(time.Millisecond))
	nw := tr.ParallelWorkers()
	rate := float64(rows) / elapsed.Seconds()
	fmt.Printf("ingest:           %.0f rows/s over %d workers (%.0f rows/s/worker, batch %d)\n",
		rate, nw, rate/float64(nw), batch)
	fmt.Printf("covariance error: %.4f (target ε=%.3g)\n", truth.CovErr(d, b), eps)
	fmt.Printf("traffic:          %d msgs up, %.1f KiB equivalent payload\n",
		met.Net.MsgsUp, float64(met.Net.WordsUp)*8/1024)
	raw := float64(truth.Len()*(d+2)) * 8 / 1024
	fmt.Printf("vs. shipping the active window: %.1f KiB\n", raw)
}

// printFleetReport renders the coordinator's fleet telemetry view as the
// end-of-run table: one row per (site, stream) series with the latest
// counters, ring-derived rates and degradation, plus the fleet totals.
// Site -1 is the coordinator's own auditor series.
func printFleetReport(f *telemetry.Fleet) {
	m := f.Snapshot()
	fmt.Printf("fleet telemetry:  %d series across %d sites, %d frames received (%d dropped)\n",
		len(m.Series), m.Sites, m.FramesTotal, m.DroppedFrames)
	if len(m.DegradedSites) > 0 {
		fmt.Printf("                  degraded sites: %v\n", m.DegradedSites)
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "  site\tstream\tproto\trows\trows/s\twords\treplays\tbacklog\tε-headroom\twords/window\t")
	for _, v := range m.Series {
		headroom := "-"
		if v.Eps > 0 {
			headroom = fmt.Sprintf("%.4f", v.Headroom)
		}
		wpw := "-"
		if v.WordsPerWindow > 0 {
			wpw = fmt.Sprintf("%.0f", v.WordsPerWindow)
		}
		stream := v.Stream
		if stream == "" {
			stream = "default"
		}
		deg := ""
		if v.Degraded {
			deg = " (degraded)"
		}
		fmt.Fprintf(tw, "  %d\t%s\t%s\t%d\t%.0f\t%d\t%d\t%d\t%s\t%s\t%s\n",
			v.Site, stream, v.Proto, v.Rows, v.RowsPerSec, v.Words,
			v.Replays, v.Backlog, headroom, wpw, deg)
	}
	tw.Flush()
	if m.UpdateLat.Count > 0 {
		fmt.Printf("  update latency: %d samples, p50 %v, p99 %v\n",
			m.UpdateLat.Count,
			time.Duration(m.UpdateLat.QuantileUpperNs(0.5)),
			time.Duration(m.UpdateLat.QuantileUpperNs(0.99)))
	}
}
