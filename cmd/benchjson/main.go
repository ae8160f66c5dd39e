// Command benchjson runs a fixed reference workload through the
// representative protocols and writes the headline performance figures —
// ingest update rate, communication words per window, sketch-query
// latency, the parallel-vs-sequential ingest ratio, the multi-stream
// registry throughput sweep, the telemetry-on-vs-off ingest overhead,
// the published-snapshot query path (queries/s under 0/1/8/64 concurrent
// queriers with ingest running, plus the publish-overhead and
// querier-interference gates), and the wire-codec comparison (gob vs
// binary v2 on the Direction frames the protocols actually send) — as a
// JSON document for machine comparison across changes
// (`make bench-json` → BENCH_PR10.json).
// Alongside throughput it records allocs/op for the ingest loop
// (runtime.MemStats mallocs over the timed rows), sweeps the parallel
// pipeline over a batch-size × workers grid per protocol and applies the
// benchgate scaling gate (≥1.6× at 2 workers, ≥2.5× at 4 — see
// internal/benchgate), and sweeps a Registry over a streams × workers
// grid with shard-owned feeders (handles hoisted out of the row loop,
// ObserveBatch runs, worker count clamped by Registry.IngestWorkers)
// gated on multi-worker ingest never degrading below 1-worker.
//
// The workload is deterministic (fixed seed, synthetic Gaussian rows), so
// two runs on the same machine differ only by measurement noise; compare
// figures across commits, not across machines. The parallel speedup in
// particular scales with the recorded GOMAXPROCS/NumCPU — on an
// effectively single-core machine the sweep is refused outright and the
// gate records SKIP with the reason, rather than publishing a
// meaningless "speedup".
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"distwindow"
	"distwindow/internal/benchgate"
	"distwindow/internal/obs/telemetry"
	"distwindow/internal/wire"
)

type result struct {
	Protocol      string  `json:"protocol"`
	Rows          int64   `json:"rows"`
	UpdatesPerSec float64 `json:"updates_per_sec"`
	// AllocsPerRow is the mean heap allocations per ingested row over the
	// timed loop (cumulative runtime.MemStats.Mallocs delta / rows). The
	// steady-state site step is allocation-free; the residue here is
	// warm-up growth plus the rare report/emission path.
	AllocsPerRow   float64 `json:"allocs_per_row"`
	WordsPerWindow float64 `json:"words_per_window"`
	TotalWords     int64   `json:"total_words"`
	// SketchQueryMs is the mean wall-clock latency of Tracker.Sketch over
	// Queries calls at end of stream.
	SketchQueryMs float64 `json:"sketch_query_ms"`
	Queries       int     `json:"queries"`
	// MaxErr/MeanErr are the live auditor's observed covariance errors —
	// a correctness sanity figure riding along with the perf numbers.
	MaxErr  float64 `json:"max_err"`
	MeanErr float64 `json:"mean_err"`
	Eps     float64 `json:"eps"`
}

// parallelResult compares sequential and pipelined ingestion of the same
// per-site streams for one one-way protocol, at one cell of the
// batch-size × workers grid.
type parallelResult struct {
	Protocol string `json:"protocol"`
	Sites    int    `json:"sites"`
	Workers  int    `json:"workers"`
	// Batch is the per-site feeder's run length: 1 feeds row-at-a-time
	// through TryObserve, larger values hand whole runs to ObserveBatch so
	// the lane ring sees one block push and one wakeup per run.
	Batch int   `json:"batch"`
	Rows  int64 `json:"rows"`
	// SequentialRowsPerSec feeds the global (T, site) interleaving through
	// the synchronous path; ParallelRowsPerSec feeds one goroutine per
	// site through WithParallel and includes the final drain.
	SequentialRowsPerSec float64 `json:"sequential_rows_per_sec"`
	ParallelRowsPerSec   float64 `json:"parallel_rows_per_sec"`
	Speedup              float64 `json:"speedup"`
}

// parallelGate is one protocol's scaling-gate verdict over its sweep
// cells (internal/benchgate holds the thresholds and the SKIP rules).
type parallelGate struct {
	Protocol string `json:"protocol"`
	benchgate.Result
}

// registryResult measures aggregate ingest throughput when Streams
// independent tracked windows live behind one Registry and a pool of
// shard-owning feeders ingests them: streams striped across workers,
// each stream's handle resolved once per run (not per row), rows
// delivered in ObserveBatch runs. Workers is the requested pool size;
// EffectiveWorkers is what Registry.IngestWorkers clamped it to (at most
// one per stream, at most GOMAXPROCS — oversubscribing a core measurably
// loses throughput). Rows is the total across all streams and is held
// fixed across cells, so RowsPerSec compares directly. Each cell is the
// best of Trials interleaved trials, so a background-load spike cannot
// sink one cell only.
type registryResult struct {
	Protocol         string  `json:"protocol"`
	Streams          int     `json:"streams"`
	Workers          int     `json:"workers"`
	EffectiveWorkers int     `json:"effective_workers"`
	Trials           int     `json:"trials"`
	Rows             int64   `json:"rows"`
	RowsPerSec       float64 `json:"rows_per_sec"`
	// AllocsPerRow over the best trial's cell (cold-opened streams each
	// trial, so warm-up growth such as the mEH row slab is priced in).
	AllocsPerRow float64 `json:"allocs_per_row"`
}

// registryGate is the falloff verdict at one stream count: the largest
// swept worker pool must not ingest slower than the 1-worker pool.
type registryGate struct {
	Streams int `json:"streams"`
	Workers int `json:"workers"`
	benchgate.Result
}

// telemetryResult prices the fleet telemetry plane on the ingest loop:
// the same rows streamed with no publisher versus with one snapshotting
// the tracker into frames at a realistic cadence on its own goroutine.
// OverheadPct is off/on − 1 in percent; the budget is <2%. The publisher
// is designed to run on a spare core, so on a single-core machine —
// where every tick preempts the only core the ingest loop has — the
// measurement is recorded but the gate is advisory (Advisory says why).
type telemetryResult struct {
	Protocol      string  `json:"protocol"`
	Rows          int64   `json:"rows"`
	IntervalMs    int64   `json:"interval_ms"`
	OffRowsPerSec float64 `json:"off_rows_per_sec"`
	OnRowsPerSec  float64 `json:"on_rows_per_sec"`
	OverheadPct   float64 `json:"overhead_pct"`
	Pass          bool    `json:"pass"`
	Advisory      string  `json:"advisory,omitempty"`
}

// queryPathResult measures the published-snapshot read path at one
// querier count: a DA1 tracker ingests the fixed row budget, draining
// (and so publishing) every 256 rows, while Queriers goroutines hammer
// Snapshot/Sketch as fast as they can. IngestRowsPerSec is the ingest
// loop's rate with that load; QueriesPerSec is the aggregate query rate
// across all queriers; IngestRatio divides by the same loop's query-free
// (0-querier) rate, so 1.0 means queries cost ingest nothing.
type queryPathResult struct {
	Protocol         string  `json:"protocol"`
	Queriers         int     `json:"queriers"`
	Rows             int64   `json:"rows"`
	IngestRowsPerSec float64 `json:"ingest_rows_per_sec"`
	QueriesPerSec    float64 `json:"queries_per_sec"`
	IngestRatio      float64 `json:"ingest_ratio_vs_query_free"`
}

// queryPathGates is the scorecard for the snapshot read path.
// PublishOverheadPct prices publication itself: unqueried ingest that
// drains every 256 rows versus the same ingest without drains (budget <3%
// — the copy-on-publish cost, amortized over the 256 rows).
// Ingest8qRatio is the acceptance figure: ingest with 8 concurrent
// queriers must stay within 5% of query-free ingest (ratio ≥0.95).
// Queriers run on their own cores by design, so on a single-core machine
// — where every query steals the only core ingest has — a failed
// interference gate is advisory, same as the telemetry and parallel-sweep
// gates.
type queryPathGates struct {
	PublishOverheadPct  float64 `json:"publish_overhead_pct"`
	PublishOverheadPass bool    `json:"publish_overhead_pass"`
	Ingest8qRatio       float64 `json:"ingest_8q_ratio"`
	Ingest8qPass        bool    `json:"ingest_8q_pass"`
	Advisory            string  `json:"advisory,omitempty"`
}

// codecResult measures one wire framing on steady-state Direction frames
// at the benchmark dimension — the frame class that dominates every
// protocol's traffic. FirstFrameBytes includes the stream preamble (gob's
// type descriptor, v2's Hello), paid once per connection.
type codecResult struct {
	Codec           string  `json:"codec"`
	D               int     `json:"d"`
	BytesPerFrame   float64 `json:"bytes_per_frame"`
	FirstFrameBytes int     `json:"first_frame_bytes"`
	EncodeNsPerOp   float64 `json:"encode_ns_per_op"`
	DecodeNsPerOp   float64 `json:"decode_ns_per_op"`
}

// codecGates is the honest scorecard of the v2 framing against gob. The
// bytes_2x gate records the original "≥2× fewer bytes per frame" target
// verbatim; it CANNOT pass on Direction frames, and Bytes2xNote explains
// the arithmetic: a lossless float64 costs 8 bytes, gob already spends
// ~9.25 bytes per float on these rows, so the ceiling on any lossless
// framing is ~1.16× — the real v2 wins are CPU (Cpu2x) and the
// corruption/coalescing behaviour the soaks cover. See DESIGN.md §14.
type codecGates struct {
	BytesRatioGobOverV2 float64 `json:"bytes_ratio_gob_over_v2"`
	Bytes2xPass         bool    `json:"bytes_2x_pass"`
	Bytes2xNote         string  `json:"bytes_2x_note"`
	BytesLeanerPass     bool    `json:"bytes_leaner_pass"`
	EncodeSpeedup       float64 `json:"encode_speedup"`
	DecodeSpeedup       float64 `json:"decode_speedup"`
	Cpu2xPass           bool    `json:"cpu_2x_pass"`
}

type doc struct {
	Generated string `json:"generated"`
	GoArch    string `json:"config"`
	// Cores is GOMAXPROCS at run time — the parallel speedup ceiling.
	// NumCPU is the machine's logical core count; when either is 1 the
	// parallel sweep is refused (ParallelSkipped records why) because a
	// pipeline cannot beat sequential without a second core, and a
	// "0.9x speedup" figure from a starved run would read as a regression.
	Cores   int      `json:"cores"`
	NumCPU  int      `json:"num_cpu"`
	Results []result `json:"results"`
	// ParallelSkipped is empty when the parallel sweep ran; ParallelGates
	// always carries one verdict per protocol (SKIP with the reason when
	// the sweep could not run).
	ParallelSkipped string            `json:"parallel_skipped,omitempty"`
	Parallel        []parallelResult  `json:"parallel"`
	ParallelGates   []parallelGate    `json:"parallel_gates"`
	Registry        []registryResult  `json:"registry"`
	RegistryGates   []registryGate    `json:"registry_gates"`
	Telemetry       []telemetryResult `json:"telemetry"`
	QueryPath       []queryPathResult `json:"query_path"`
	QueryPathGates  queryPathGates    `json:"query_path_gates"`
	WireCodec       []codecResult     `json:"wire_codec"`
	WireCodecGates  codecGates        `json:"wire_codec_gates"`
}

// countWriter counts bytes; the codec benchmark's encode sink.
type countWriter struct{ n int }

func (w *countWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// benchCodec measures bytes/frame and encode/decode CPU for both wire
// framings on steady-state Direction frames of dimension d.
func benchCodec(d int, seed int64) ([]codecResult, codecGates) {
	const frames = 50_000
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, d)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	measure := func(cdc wire.Codec) codecResult {
		m := wire.Msg{Site: 3, Kind: wire.DirectionAdd, T: 1, V: v}

		// Bytes: first frame (with stream preamble), then the steady state.
		var cw countWriter
		enc := cdc.NewEncoder(&cw)
		m.Seq = 1
		if err := enc.EncodeMsg(&m); err != nil {
			log.Fatal(err)
		}
		if err := enc.Flush(); err != nil {
			log.Fatal(err)
		}
		first := cw.n
		for i := 2; i <= frames+1; i++ {
			m.T, m.Seq = int64(i), uint64(i)
			if err := enc.EncodeMsg(&m); err != nil {
				log.Fatal(err)
			}
		}
		if err := enc.Flush(); err != nil {
			log.Fatal(err)
		}
		bytesPerFrame := float64(cw.n-first) / frames

		// Encode CPU: a fresh stream, flushed at the sender's cadence (every
		// frame, as a non-batched Send would) so gob and v2 pay comparable
		// write-path costs.
		enc = cdc.NewEncoder(&countWriter{})
		start := time.Now()
		for i := 1; i <= frames; i++ {
			m.T, m.Seq = int64(i), uint64(i)
			if err := enc.EncodeMsg(&m); err != nil {
				log.Fatal(err)
			}
			if err := enc.Flush(); err != nil {
				log.Fatal(err)
			}
		}
		encNs := float64(time.Since(start).Nanoseconds()) / frames

		// Decode CPU over the same frames.
		var buf bytes.Buffer
		enc = cdc.NewEncoder(&buf)
		for i := 1; i <= frames; i++ {
			m.T, m.Seq = int64(i), uint64(i)
			if err := enc.EncodeMsg(&m); err != nil {
				log.Fatal(err)
			}
		}
		if err := enc.Flush(); err != nil {
			log.Fatal(err)
		}
		dec := cdc.NewDecoder(&buf)
		var out wire.Msg
		start = time.Now()
		for i := 1; i <= frames; i++ {
			if err := dec.DecodeMsg(&out); err != nil {
				log.Fatalf("%s decode frame %d: %v", cdc, i, err)
			}
		}
		decNs := float64(time.Since(start).Nanoseconds()) / frames
		if rel, ok := dec.(interface{ Release() }); ok {
			rel.Release()
		}

		return codecResult{
			Codec:           cdc.String(),
			D:               d,
			BytesPerFrame:   bytesPerFrame,
			FirstFrameBytes: first,
			EncodeNsPerOp:   encNs,
			DecodeNsPerOp:   decNs,
		}
	}

	g := measure(wire.Gob)
	v2 := measure(wire.BinaryV2)
	gates := codecGates{
		BytesRatioGobOverV2: g.BytesPerFrame / v2.BytesPerFrame,
		EncodeSpeedup:       g.EncodeNsPerOp / v2.EncodeNsPerOp,
		DecodeSpeedup:       g.DecodeNsPerOp / v2.DecodeNsPerOp,
	}
	gates.Bytes2xPass = gates.BytesRatioGobOverV2 >= 2
	gates.BytesLeanerPass = gates.BytesRatioGobOverV2 > 1
	gates.Cpu2xPass = gates.EncodeSpeedup >= 2 && gates.DecodeSpeedup >= 2
	if !gates.Bytes2xPass {
		gates.Bytes2xNote = fmt.Sprintf(
			"unattainable losslessly: a float64 is 8 bytes and gob spends %.2f B/float on a d=%d Direction row, capping any lossless framing at %.2fx; v2's measured ratio is %.2fx (DESIGN.md §14)",
			g.BytesPerFrame/float64(d), d, g.BytesPerFrame/(8*float64(d)), gates.BytesRatioGobOverV2)
	}
	return []codecResult{g, v2}, gates
}

func main() {
	var (
		out     = flag.String("out", "BENCH_PR10.json", "output path")
		rows    = flag.Int64("rows", 200_000, "rows to stream per protocol")
		d       = flag.Int("d", 32, "row dimension")
		sites   = flag.Int("sites", 8, "number of sites")
		w       = flag.Int64("w", 50_000, "window length in ticks")
		eps     = flag.Float64("eps", 0.1, "target covariance error")
		queries = flag.Int("queries", 50, "sketch queries to time at end of stream")
		seed    = flag.Int64("seed", 1, "RNG seed")
	)
	flag.Parse()

	// Pre-generate the rows so the timed loop measures Observe alone.
	rng := rand.New(rand.NewSource(*seed))
	vs := make([][]float64, 4096)
	for i := range vs {
		v := make([]float64, *d)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		vs[i] = v
	}
	siteOf := make([]int, len(vs))
	for i := range siteOf {
		siteOf[i] = rng.Intn(*sites)
	}

	var results []result
	for _, proto := range []distwindow.Protocol{distwindow.PWOR, distwindow.DA1, distwindow.DA2} {
		// The auditor supplies words/window and the error sanity figures;
		// audit sparsely so its shadow cost stays out of the update rate.
		tr, err := distwindow.New(distwindow.Config{
			Protocol: proto, D: *d, W: *w, Eps: *eps, Sites: *sites, Seed: *seed,
		}, distwindow.WithAudit(distwindow.AuditConfig{EveryRows: 1 << 30}))
		if err != nil {
			log.Fatal(err)
		}
		var msBefore, msAfter runtime.MemStats
		runtime.ReadMemStats(&msBefore)
		start := time.Now()
		for i := int64(1); i <= *rows; i++ {
			k := int(i) & (len(vs) - 1)
			if err := tr.TryObserve(siteOf[k], distwindow.Row{T: i, V: vs[k]}); err != nil {
				log.Fatal(err)
			}
		}
		elapsed := time.Since(start).Seconds()
		runtime.ReadMemStats(&msAfter)
		allocsPerRow := float64(msAfter.Mallocs-msBefore.Mallocs) / float64(*rows)
		if _, ok := tr.AuditTick(); !ok {
			log.Fatal("audit tick failed")
		}

		qStart := time.Now()
		for i := 0; i < *queries; i++ {
			_ = tr.Sketch()
		}
		qMs := time.Since(qStart).Seconds() * 1e3 / float64(*queries)

		am, _ := tr.Audit()
		results = append(results, result{
			Protocol:       string(proto),
			Rows:           *rows,
			UpdatesPerSec:  float64(*rows) / elapsed,
			AllocsPerRow:   allocsPerRow,
			WordsPerWindow: am.WordsPerWindow,
			TotalWords:     tr.Stats().TotalWords(),
			SketchQueryMs:  qMs,
			Queries:        *queries,
			MaxErr:         am.MaxErr,
			MeanErr:        am.MeanErr,
			Eps:            *eps,
		})
		fmt.Printf("%-10s %10.0f rows/s  %6.2f allocs/row  %12.0f words/window  %8.3f ms/query\n",
			proto, float64(*rows)/elapsed, allocsPerRow, am.WordsPerWindow, qMs)
	}

	// Parallel-vs-sequential ingest for the one-way protocols over the
	// batch-size × workers grid: both trackers consume identical per-site
	// streams (T = per-site tick), the sequential one in the merge's global
	// (T, site) order, the parallel one from one feeder goroutine per site.
	// Batch 1 feeds TryObserve row-at-a-time (a ring push and a wakeup per
	// row); larger batches hand whole runs to ObserveBatch, the pipeline's
	// amortized path. Every cell's sketch is cross-checked against the
	// sequential reference, so the grid is also a determinism soak. The
	// scaling gate (internal/benchgate) then judges the per-worker curve —
	// or records SKIP with the reason when the machine cannot show scaling.
	perSite := *rows / int64(*sites)
	var parallels []parallelResult
	var parallelGates []parallelGate
	parallelSkipped := ""
	switch {
	case runtime.NumCPU() < 2:
		parallelSkipped = fmt.Sprintf("single-core machine (NumCPU=%d)", runtime.NumCPU())
	case runtime.GOMAXPROCS(0) < 2:
		parallelSkipped = fmt.Sprintf("GOMAXPROCS=%d pins the process to one core", runtime.GOMAXPROCS(0))
	}
	if parallelSkipped != "" {
		fmt.Printf("parallel sweep skipped: %s\n", parallelSkipped)
	}
	for _, proto := range []distwindow.Protocol{distwindow.DA1, distwindow.DA2} {
		var cells []benchgate.ParallelCell
		if parallelSkipped == "" {
			cfg := distwindow.Config{Protocol: proto, D: *d, W: *w, Eps: *eps, Sites: *sites, Seed: *seed}

			seqTr, err := distwindow.New(cfg)
			if err != nil {
				log.Fatal(err)
			}
			seqStart := time.Now()
			for t := int64(1); t <= perSite; t++ {
				for s := 0; s < *sites; s++ {
					if err := seqTr.TryObserve(s, distwindow.Row{T: t, V: vs[(int(t)+s*31)&(len(vs)-1)]}); err != nil {
						log.Fatal(err)
					}
				}
			}
			seqSecs := time.Since(seqStart).Seconds()
			gs, _ := seqTr.SketchGram()

			for _, workers := range []int{1, 2, 4} {
				for _, batch := range []int{1, 64} {
					parTr, err := distwindow.New(cfg, distwindow.WithParallel(workers))
					if err != nil {
						log.Fatal(err)
					}
					parStart := time.Now()
					var wg sync.WaitGroup
					for s := 0; s < *sites; s++ {
						wg.Add(1)
						go func(s int) {
							defer wg.Done()
							if batch == 1 {
								for t := int64(1); t <= perSite; t++ {
									parTr.TryObserve(s, distwindow.Row{T: t, V: vs[(int(t)+s*31)&(len(vs)-1)]})
								}
								return
							}
							run := make([]distwindow.Row, 0, batch)
							for t := int64(1); t <= perSite; t++ {
								run = append(run, distwindow.Row{T: t, V: vs[(int(t)+s*31)&(len(vs)-1)]})
								if len(run) == batch || t == perSite {
									if _, err := parTr.ObserveBatch(s, run); err != nil {
										log.Fatal(err)
									}
									run = run[:0]
								}
							}
						}(s)
					}
					wg.Wait()
					parTr.Drain()
					parSecs := time.Since(parStart).Seconds()

					// Cross-check the determinism invariant at every cell.
					gp, _ := parTr.SketchGram()
					if !gs.Equal(gp) {
						log.Fatalf("%s: parallel sketch diverged from sequential at %d workers, batch %d",
							proto, workers, batch)
					}
					parTr.Close()

					total := perSite * int64(*sites)
					pr := parallelResult{
						Protocol:             string(proto),
						Sites:                *sites,
						Workers:              workers,
						Batch:                batch,
						Rows:                 total,
						SequentialRowsPerSec: float64(total) / seqSecs,
						ParallelRowsPerSec:   float64(total) / parSecs,
						Speedup:              seqSecs / parSecs,
					}
					parallels = append(parallels, pr)
					cells = append(cells, benchgate.ParallelCell{
						Workers: workers, Batch: batch, RowsPerSec: pr.ParallelRowsPerSec,
					})
					fmt.Printf("%-10s parallel(w=%d b=%-3d) %9.0f rows/s vs sequential %9.0f rows/s  (%.2fx, %d cores)\n",
						proto, workers, batch, pr.ParallelRowsPerSec, pr.SequentialRowsPerSec, pr.Speedup, runtime.GOMAXPROCS(0))
				}
			}
		}
		g := parallelGate{Protocol: string(proto), Result: benchgate.EvalParallelScaling(cells, runtime.NumCPU())}
		parallelGates = append(parallelGates, g)
		fmt.Printf("%-10s scaling gate %s: %s\n", proto, g.Status, g.Reason)
	}

	// Multi-tenant registry sweep: nStreams independent DA1 windows behind
	// one Registry, fed by a shard-owning worker pool — streams striped
	// across workers (each stream has exactly one ingester for its whole
	// run), the stream handle resolved once per run instead of per row,
	// rows delivered in ObserveBatch runs, and the pool sized by
	// Registry.IngestWorkers so oversubscribing cores (the BENCH_PR8
	// falloff) cannot happen. The total row budget is held fixed across
	// cells, so rows/s compares directly: the streams axis shows the cost
	// of tenancy at scale (cold windows, shared pools), the workers axis
	// that multi-worker ingest never degrades below 1-worker — the gate
	// EvalRegistryScaling enforces per stream count. Each cell is the best
	// of regTrials trials, trials interleaved across cells so a background
	// spike cannot charge one cell only.
	const (
		regTrials = 3
		regBatch  = 64
	)
	regCfg := distwindow.Config{Protocol: distwindow.DA1, D: *d, W: *w, Eps: *eps, Sites: *sites, Seed: *seed}
	runRegistryCell := func(nStreams, workers int, perStream int64) registryResult {
		reg := distwindow.NewRegistry()
		ids := make([]string, nStreams)
		for i := range ids {
			ids[i] = fmt.Sprintf("s%03d", i)
			if _, _, err := reg.Open(ids[i], regCfg); err != nil {
				log.Fatal(err)
			}
		}
		effective := reg.IngestWorkers(workers, nStreams)
		var msB, msA runtime.MemStats
		runtime.ReadMemStats(&msB)
		start := time.Now()
		var wg sync.WaitGroup
		for wk := 0; wk < effective; wk++ {
			wg.Add(1)
			go func(wk int) {
				defer wg.Done()
				run := make([]distwindow.Row, 0, regBatch)
				for si := wk; si < nStreams; si += effective {
					tr, ok := reg.Get(ids[si]) // hoisted: one lookup per stream, not per row
					if !ok {
						log.Fatalf("registry sweep: stream %s vanished", ids[si])
					}
					for t := int64(1); t <= perStream; t++ {
						k := (int(t) + si*31) & (len(vs) - 1)
						run = append(run, distwindow.Row{T: t, V: vs[k]})
						if len(run) == regBatch || t == perStream {
							if _, err := tr.ObserveBatch(siteOf[k], run); err != nil {
								log.Fatal(err)
							}
							run = run[:0]
						}
					}
				}
			}(wk)
		}
		wg.Wait()
		secs := time.Since(start).Seconds()
		runtime.ReadMemStats(&msA)
		reg.Close()

		total := perStream * int64(nStreams)
		return registryResult{
			Protocol:         string(distwindow.DA1),
			Streams:          nStreams,
			Workers:          workers,
			EffectiveWorkers: effective,
			Trials:           regTrials,
			Rows:             total,
			RowsPerSec:       float64(total) / secs,
			AllocsPerRow:     float64(msA.Mallocs-msB.Mallocs) / float64(total),
		}
	}

	var regResults []registryResult
	var regGates []registryGate
	for _, nStreams := range []int{1, 16, 256} {
		perStream := *rows / int64(nStreams)
		if perStream < 1 {
			continue
		}
		var counts []int
		for _, workers := range []int{1, 2, 4} {
			if workers <= nStreams {
				counts = append(counts, workers)
			}
		}
		best := make([]registryResult, len(counts))
		for trial := 0; trial < regTrials; trial++ {
			for ci, workers := range counts {
				if rr := runRegistryCell(nStreams, workers, perStream); rr.RowsPerSec > best[ci].RowsPerSec {
					best[ci] = rr
				}
			}
		}
		var cells []benchgate.RegistryCell
		for _, rr := range best {
			regResults = append(regResults, rr)
			cells = append(cells, benchgate.RegistryCell{Streams: rr.Streams, Workers: rr.Workers, RowsPerSec: rr.RowsPerSec})
			fmt.Printf("registry   %4d streams × %d workers (%d effective) %9.0f rows/s  %6.2f allocs/row  (best of %d)\n",
				nStreams, rr.Workers, rr.EffectiveWorkers, rr.RowsPerSec, rr.AllocsPerRow, regTrials)
		}
		if maxW := counts[len(counts)-1]; maxW > 1 {
			g := registryGate{
				Streams: nStreams,
				Workers: maxW,
				Result:  benchgate.EvalRegistryScaling(cells, nStreams, maxW),
			}
			regGates = append(regGates, g)
			fmt.Printf("registry   %4d streams falloff gate %s: %s\n", nStreams, g.Status, g.Reason)
		}
	}

	// Telemetry overhead: the same ingest loop with and without a live
	// publisher snapshotting the tracker every 10ms (10× the distrun
	// default, to make interference measurable). Collection reads the same
	// atomic counters Metrics does and never touches the ingest path, so
	// the on/off ratio must stay under the 2% budget. Best of three trials
	// per side, trials interleaved, so a background-load spike cannot
	// charge one side only.
	const teleInterval = 10 * time.Millisecond
	var teleResults []telemetryResult
	for _, proto := range []distwindow.Protocol{distwindow.PWOR, distwindow.DA2} {
		cfg := distwindow.Config{Protocol: proto, D: *d, W: *w, Eps: *eps, Sites: *sites, Seed: *seed}
		ingest := func(withTele bool) float64 {
			tr, err := distwindow.New(cfg)
			if err != nil {
				log.Fatal(err)
			}
			defer tr.Close()
			if withTele {
				pub := telemetry.NewPublisher(
					func() telemetry.Frame { return tr.TelemetryFrame(0, "bench") },
					func(telemetry.Frame) error { return nil },
				)
				pub.Start(teleInterval)
				defer pub.Stop()
			}
			start := time.Now()
			for i := int64(1); i <= *rows; i++ {
				k := int(i) & (len(vs) - 1)
				if err := tr.TryObserve(siteOf[k], distwindow.Row{T: i, V: vs[k]}); err != nil {
					log.Fatal(err)
				}
			}
			return float64(*rows) / time.Since(start).Seconds()
		}
		var offBest, onBest float64
		for trial := 0; trial < 3; trial++ {
			if r := ingest(false); r > offBest {
				offBest = r
			}
			if r := ingest(true); r > onBest {
				onBest = r
			}
		}
		overhead := (offBest/onBest - 1) * 100
		tres := telemetryResult{
			Protocol:      string(proto),
			Rows:          *rows,
			IntervalMs:    teleInterval.Milliseconds(),
			OffRowsPerSec: offBest,
			OnRowsPerSec:  onBest,
			OverheadPct:   overhead,
			Pass:          overhead < 2,
		}
		if !tres.Pass && parallelSkipped != "" {
			tres.Advisory = "single-core machine: the publisher time-shares the ingest core, so the <2% budget applies to multi-core runs"
		}
		teleResults = append(teleResults, tres)
		verdict := "PASS"
		if !tres.Pass {
			verdict = "WARN"
		}
		if tres.Advisory != "" {
			verdict += " (advisory: single-core)"
		}
		fmt.Printf("telemetry  %-10s on %9.0f rows/s vs off %9.0f rows/s  overhead %+.2f%%  %s (<2%% budget)\n",
			proto, onBest, offBest, overhead, verdict)
	}

	// Query path: the published-snapshot read path under concurrent
	// queriers. Each cell ingests the same row budget into a DA1 tracker,
	// draining every 256 rows so queriers see new versions at that rate,
	// while q goroutines loop Snapshot → Sketch full-tilt; the 0-querier
	// cell is the interference baseline, and a run without drains prices
	// the publish overhead itself. Best of two interleaved trials per
	// cell.
	qpRows := *rows / 4
	if qpRows < 1 {
		qpRows = 1
	}
	qpCfg := distwindow.Config{Protocol: distwindow.DA1, D: *d, W: *w, Eps: *eps, Sites: *sites, Seed: *seed}
	const qpPublishEvery = 256
	runQueryPath := func(publish bool, queriers int) (ingestRate, queryRate float64) {
		tr, err := distwindow.New(qpCfg)
		if err != nil {
			log.Fatal(err)
		}
		defer tr.Close()
		var stopQ atomic.Bool
		var queries atomic.Int64
		var qwg sync.WaitGroup
		for q := 0; q < queriers; q++ {
			qwg.Add(1)
			go func() {
				defer qwg.Done()
				for !stopQ.Load() {
					s, _ := tr.Snapshot() // never fails
					_ = s.Sketch()
					queries.Add(1)
				}
			}()
		}
		start := time.Now()
		for i := int64(1); i <= qpRows; i++ {
			k := int(i) & (len(vs) - 1)
			if err := tr.TryObserve(siteOf[k], distwindow.Row{T: i, V: vs[k]}); err != nil {
				log.Fatal(err)
			}
			if publish && i%qpPublishEvery == 0 {
				tr.Drain()
			}
		}
		secs := time.Since(start).Seconds()
		stopQ.Store(true)
		qwg.Wait()
		return float64(qpRows) / secs, float64(queries.Load()) / secs
	}
	const qpTrials = 2
	querierCounts := []int{0, 1, 8, 64}
	bestIngest := make([]float64, len(querierCounts))
	bestQueries := make([]float64, len(querierCounts))
	var noPublishBest float64
	for trial := 0; trial < qpTrials; trial++ {
		if r, _ := runQueryPath(false, 0); r > noPublishBest {
			noPublishBest = r
		}
		for ci, q := range querierCounts {
			ir, qr := runQueryPath(true, q)
			if ir > bestIngest[ci] {
				bestIngest[ci] = ir
			}
			if qr > bestQueries[ci] {
				bestQueries[ci] = qr
			}
		}
	}
	var queryPath []queryPathResult
	for ci, q := range querierCounts {
		qp := queryPathResult{
			Protocol:         string(distwindow.DA1),
			Queriers:         q,
			Rows:             qpRows,
			IngestRowsPerSec: bestIngest[ci],
			QueriesPerSec:    bestQueries[ci],
			IngestRatio:      bestIngest[ci] / bestIngest[0],
		}
		queryPath = append(queryPath, qp)
		fmt.Printf("querypath  %2d queriers: ingest %9.0f rows/s (%.2fx of query-free)  %9.0f queries/s\n",
			q, qp.IngestRowsPerSec, qp.IngestRatio, qp.QueriesPerSec)
	}
	qpGates := queryPathGates{
		PublishOverheadPct: (noPublishBest/bestIngest[0] - 1) * 100,
		Ingest8qRatio:      bestIngest[2] / bestIngest[0],
	}
	qpGates.PublishOverheadPass = qpGates.PublishOverheadPct < 3
	qpGates.Ingest8qPass = qpGates.Ingest8qRatio >= 0.95
	if !qpGates.Ingest8qPass && parallelSkipped != "" {
		qpGates.Advisory = "single-core machine: queriers time-share the only ingest core, so the 5% interference budget applies to multi-core runs"
	}
	qpVerdict := func(pass bool) string {
		if pass {
			return "PASS"
		}
		if qpGates.Advisory != "" {
			return "WARN (advisory: single-core)"
		}
		return "FAIL"
	}
	fmt.Printf("querypath  gates: publish overhead %+.2f%% %s (<3%% budget); 8-querier ingest %.2fx %s (≥0.95 budget)\n",
		qpGates.PublishOverheadPct, qpVerdict(qpGates.PublishOverheadPass),
		qpGates.Ingest8qRatio, qpVerdict(qpGates.Ingest8qPass))

	// Wire codec comparison on the frame class that dominates the
	// protocols' traffic.
	codecResults, codecG := benchCodec(*d, *seed)
	for _, cr := range codecResults {
		fmt.Printf("codec      %-4s %6.1f B/frame (first %4d B)  encode %7.0f ns/op  decode %7.0f ns/op\n",
			cr.Codec, cr.BytesPerFrame, cr.FirstFrameBytes, cr.EncodeNsPerOp, cr.DecodeNsPerOp)
	}
	b2 := "FAIL"
	if codecG.Bytes2xPass {
		b2 = "PASS"
	}
	cpu := "FAIL"
	if codecG.Cpu2xPass {
		cpu = "PASS"
	}
	fmt.Printf("codec      gates: bytes %.2fx gob/v2 (2x gate %s, leaner %v); encode %.1fx, decode %.1fx (cpu 2x gate %s)\n",
		codecG.BytesRatioGobOverV2, b2, codecG.BytesLeanerPass, codecG.EncodeSpeedup, codecG.DecodeSpeedup, cpu)
	if codecG.Bytes2xNote != "" {
		fmt.Printf("codec      note: %s\n", codecG.Bytes2xNote)
	}

	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc{
		Generated:       time.Now().UTC().Format(time.RFC3339),
		GoArch:          fmt.Sprintf("d=%d sites=%d w=%d eps=%g rows=%d", *d, *sites, *w, *eps, *rows),
		Cores:           runtime.GOMAXPROCS(0),
		NumCPU:          runtime.NumCPU(),
		Results:         results,
		ParallelSkipped: parallelSkipped,
		Parallel:        parallels,
		ParallelGates:   parallelGates,
		Registry:        regResults,
		RegistryGates:   regGates,
		Telemetry:       teleResults,
		QueryPath:       queryPath,
		QueryPathGates:  qpGates,
		WireCodec:       codecResults,
		WireCodecGates:  codecG,
	}); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", *out)
}
