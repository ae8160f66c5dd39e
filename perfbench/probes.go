package main

import (
	"bytes"
	"fmt"
	"net/http"
	"time"

	"distwindow"
	"distwindow/internal/csvio"
	"distwindow/internal/eh"
	"distwindow/internal/fd"
	"distwindow/internal/iwmt"
	"distwindow/internal/meh"
	"distwindow/internal/stream"
	"distwindow/internal/wire"
	"distwindow/internal/wire/codec"
	"distwindow/mat"
)

// setIfMissing records a per-layer metric unless the workload's own traced
// pass already measured it on the live path.
func (r *report) setIfMissing(name, unit string, v float64) {
	if _, ok := r.metrics[name]; !ok {
		r.set(name, unit, v)
	}
}

// probeLayers replays the workload's own rows through each layer's entry
// points in isolation — meh, fd, eh, iwmt, mat, csvio, codec, the core
// site step, the facade, the parallel pipeline, snapshots and the
// registry, the networked sites and the HTTP server — and records every
// per-layer metric the traced pass did not measure on the live path.
func probeLayers(e env, r *report, p params, isNet bool) error {
	// One window of rows (at least 5,000): enough for the histograms and
	// sketches to reach their steady size.
	evs := newSource(p.d, p.sites, p.rpw, e.seed).take(max(p.rpw, 5_000))
	cp := p
	if cp.proto != distwindow.DA1 && cp.proto != distwindow.DA2 {
		cp.proto = distwindow.DA1 // net-tcp: the costlier of its two sites
	}
	probeMEH(r, p, evs)
	probeFD(r, p, evs)
	probeIWMT(r, p, evs)
	probeMat(r, p, evs)
	if err := probeCSVCodec(r, p, evs); err != nil {
		return err
	}
	if err := probeCore(r, cp, evs); err != nil {
		return err
	}
	seqNs, err := probeFacade(r, cp, evs)
	if err != nil {
		return err
	}
	if err := probePipeline(r, cp, evs, seqNs); err != nil {
		return err
	}
	if err := probeSnapshots(r, cp, evs); err != nil {
		return err
	}
	if !isNet {
		if err := probeWire(r, p, evs); err != nil {
			return err
		}
	}
	if _, ok := r.metrics["sketchd.ingest_self_us"]; !ok {
		if err := probeHTTP(e, r, cp, evs); err != nil {
			return err
		}
	}
	return nil
}

func probeMEH(r *report, p params, evs []stream.Event) {
	hs := make([]*meh.Histogram, p.sites)
	for i := range hs {
		hs[i] = meh.New(p.W(), p.d, p.eps/2)
	}
	t0 := time.Now()
	for _, ev := range evs {
		hs[ev.Site].Add(ev.Row.T, ev.Row.V)
	}
	el := time.Since(t0)
	buckets, space := 0, 0
	for _, h := range hs {
		buckets += h.Buckets()
		if w := h.SpaceWords(); w > space {
			space = w
		}
	}
	r.setIfMissing("meh.add_ns_per_row", "ns", float64(el)/float64(len(evs)))
	r.setIfMissing("meh.buckets", "count", float64(buckets)/float64(len(hs)))
	r.setIfMissing("meh.space_words", "words", float64(space))
}

func probeFD(r *report, p params, evs []stream.Event) {
	sk := fd.New(p.ell(), p.d)
	t0 := time.Now()
	for _, ev := range evs {
		sk.Update(ev.Row.V)
	}
	r.setIfMissing("fd.update_ns_per_row", "ns", float64(time.Since(t0))/float64(len(evs)))
	// A second sketch times each call for the tail: the shrink steps.
	sk = fd.New(p.ell(), p.d)
	lat := make([]time.Duration, len(evs))
	for i, ev := range evs {
		a := time.Now()
		sk.Update(ev.Row.V)
		lat[i] = time.Since(a)
	}
	r.setIfMissing("fd.update_p99_ns", "ns", percentile(durations(lat, time.Nanosecond), 0.99).Value)
}

func probeIWMT(r *report, p params, evs []stream.Event) {
	mass := make([]*eh.Histogram, p.sites)
	trk := make([]*iwmt.Tracker, p.sites)
	for i := range mass {
		m := eh.New(p.W(), p.eps/2)
		mass[i] = m
		trk[i] = iwmt.New(p.ell(), p.d, func() float64 { return p.eps * m.Query() })
	}
	var ehT, iwT time.Duration
	msgs := 0
	for _, ev := range evs {
		w := ev.Row.NormSq()
		if w <= 0 {
			continue
		}
		a := time.Now()
		mass[ev.Site].Insert(ev.Row.T, w)
		b := time.Now()
		msgs += len(trk[ev.Site].Input(ev.Row.T, ev.Row.V))
		c := time.Now()
		ehT += b.Sub(a)
		iwT += c.Sub(b)
	}
	n := float64(len(evs))
	r.setIfMissing("eh.insert_ns_per_row", "ns", float64(ehT)/n)
	r.setIfMissing("iwmt.input_ns_per_row", "ns", float64(iwT)/n)
	r.setIfMissing("iwmt.msgs_per_krow", "msgs/krow", float64(msgs)/n*1000)
}

// probeMat times the dense kernels on the workload's window Gram: the
// spectral trigger's warm power iteration on C − Ĉ, the eigensolver and
// the query's PSD square root.
func probeMat(r *report, p params, evs []stream.Event) {
	half := len(evs) / 2
	g, older := mat.NewDense(p.d, p.d), mat.NewDense(p.d, p.d)
	for i, ev := range evs {
		mat.OuterAdd(g, ev.Row.V, 1)
		if i < half {
			mat.OuterAdd(older, ev.Row.V, 1)
		}
	}
	diff := mat.Sub(g, older)
	v := make([]float64, p.d)
	op := func(x, y []float64) {
		for i := range y {
			y[i] = mat.Dot(diff.Row(i), x)
		}
	}
	const reps = 200
	timeit := func(f func()) float64 {
		xs := make([]float64, reps)
		for i := range xs {
			a := time.Now()
			f()
			xs[i] = float64(time.Since(a)) / float64(time.Microsecond)
		}
		return median(xs)
	}
	r.setIfMissing("mat.op_sym_norm_us", "us", timeit(func() { mat.OpSymNormWarm(p.d, v, 8, op) }))
	r.setIfMissing("mat.eig_sym_us", "us", timeit(func() { mat.EigSym(diff) }))
	r.setIfMissing("mat.psd_sqrt_us", "us", timeit(func() { mat.PSDSqrt(g) }))
}

func probeCSVCodec(r *report, p params, evs []stream.Event) error {
	body := csvBody(evs)
	t0 := time.Now()
	if _, _, err := csvio.Read(bytes.NewReader(body), func(csvio.Event) error { return nil }); err != nil {
		return fmt.Errorf("csvio probe: %w", err)
	}
	r.setIfMissing("csvio.read_ns_per_row", "ns", float64(time.Since(t0))/float64(len(evs)))

	frames := evs
	if len(frames) > 5000 {
		frames = frames[:5000]
	}
	var buf bytes.Buffer
	enc := codec.BinaryV2.NewEncoder(&buf)
	t0 = time.Now()
	for _, ev := range frames {
		m := wire.Msg{Site: ev.Site, Kind: wire.DirectionAdd, T: ev.Row.T, V: ev.Row.V, StreamID: "da2"}
		if err := enc.EncodeMsg(&m); err != nil {
			return fmt.Errorf("codec probe: %w", err)
		}
		if err := enc.Flush(); err != nil {
			return fmt.Errorf("codec probe: %w", err)
		}
	}
	nf := float64(len(frames))
	r.setIfMissing("codec.encode_ns_per_frame", "ns", float64(time.Since(t0))/nf)
	r.setIfMissing("wire.bytes_per_frame", "bytes", float64(buf.Len())/nf)
	dec, _, err := codec.Detect(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return fmt.Errorf("codec probe: %w", err)
	}
	var m wire.Msg
	t0 = time.Now()
	for range frames {
		if err := dec.DecodeMsg(&m); err != nil {
			return fmt.Errorf("codec probe decode: %w", err)
		}
	}
	r.setIfMissing("codec.decode_ns_per_frame", "ns", float64(time.Since(t0))/nf)
	return nil
}

// probeCore replays the rows through the core tracker: once traced for the
// site step's self time and the apply time, once untraced for allocations.
func probeCore(r *report, p params, evs []stream.Event) error {
	tc := newTracer()
	tk := tc.track("core")
	cd, err := newCoreRunner(p, tk)
	if err != nil {
		return err
	}
	obsv := cd.target().observe
	root := tk.begin("bench.replay")
	for _, ev := range evs {
		_ = obsv(ev) // the core runner never fails
	}
	tk.end(root)
	lt := tc.times()
	n := float64(len(evs))
	r.setIfMissing("core.site_step_ns_per_row", "ns", float64(lt.Self["core.site_step"])/n)
	r.setIfMissing("core.apply_ns_per_update", "ns", perCall(lt, "core.apply"))
	r.setIfMissing("core.updates_per_krow", "updates/krow", float64(cd.updates)/n*1000)

	cd, err = newCoreRunner(p, nil)
	if err != nil {
		return err
	}
	obsv = cd.target().observe
	half := len(evs) / 2
	for _, ev := range evs[:half] { // warm up: buffers reach steady size
		_ = obsv(ev)
	}
	mark := markRuntime()
	for _, ev := range evs[half:] {
		_ = obsv(ev)
	}
	r.setIfMissing("core.site_step_allocs_per_row", "allocs/row", mark.allocsSince()/float64(len(evs)-half))
	return nil
}

// probeFacade replays the rows through a sequential facade tracker and
// returns its cost per row, the single-threaded baseline.
func probeFacade(r *report, p params, evs []stream.Event) (float64, error) {
	tr, err := distwindow.New(p.config())
	if err != nil {
		return 0, err
	}
	half := len(evs) / 2
	for _, ev := range evs[:half] {
		if err := tr.TryObserve(ev.Site, row(ev)); err != nil {
			return 0, err
		}
	}
	mark := markRuntime()
	t0 := time.Now()
	for _, ev := range evs[half:] {
		if err := tr.TryObserve(ev.Site, row(ev)); err != nil {
			return 0, err
		}
	}
	el := time.Since(t0)
	n := float64(len(evs) - half)
	r.setIfMissing("distwindow.observe_allocs_per_row", "allocs/row", mark.allocsSince()/n)
	ns := float64(el) / n
	r.setIfMissing("distwindow.observe_ns_per_row", "ns", ns)
	return ns, nil
}

// probePipeline replays the rows through the parallel pipeline in 64-row
// runs per site, draining every window/4 rows.
func probePipeline(r *report, p params, evs []stream.Event, seqNs float64) error {
	tr, err := distwindow.New(p.config(), distwindow.WithParallel(pipelineWorkers))
	if err != nil {
		return err
	}
	defer tr.Close()
	tc := newTracer()
	f := newFeeder(tr, p.sites)
	f.tk = tc.track("feeder")
	root := f.tk.begin("bench.replay")
	t0 := time.Now()
	for i, ev := range evs {
		_ = f.push(ev) // push only stages; failures are counted on flush
		if (i+1)%(p.rpw/4) == 0 {
			f.drain()
		}
	}
	f.drain()
	el := time.Since(t0)
	f.tk.end(root)
	lt := tc.times()
	r.check("probe_pipeline_batches", f.failed == 0, "%d refused ObserveBatch runs", f.failed)
	r.setIfMissing("protocol.observe_batch_ns_per_row", "ns", float64(lt.Self["protocol.observe_batch"])/float64(f.handed))
	r.setIfMissing("protocol.observe_batch_p99_us", "us", percentile(durations(f.batchLat, time.Microsecond), 0.99).Value)
	r.setIfMissing("protocol.drain_ms", "ms", median(durations(f.drains, time.Millisecond)))
	r.setIfMissing("protocol.speedup_vs_sequential", "ratio", seqNs/(float64(el)/float64(len(evs))))
	return nil
}

// probeSnapshots replays the rows through a snapshot-armed tracker in
// 64-row batches, each ended by Drain (the publish point sketchd uses),
// querying a fresh and then a cached snapshot every 8 batches; and
// times registry lookups among 16 open streams.
func probeSnapshots(r *report, p params, evs []stream.Event) error {
	tr, err := distwindow.New(p.config(), distwindow.WithSnapshots(0))
	if err != nil {
		return err
	}
	var drains, first, cached []time.Duration
	for i, ev := range evs {
		if err := tr.TryObserve(ev.Site, row(ev)); err != nil {
			return err
		}
		if (i+1)%batchRows != 0 {
			continue
		}
		a := time.Now()
		tr.Drain()
		drains = append(drains, time.Since(a))
		if len(drains)%8 == 0 {
			snap, err := tr.Snapshot()
			if err != nil {
				return err
			}
			a = time.Now()
			snap.Sketch()
			snap.PCA(5)
			first = append(first, time.Since(a))
			a = time.Now()
			snap.Sketch()
			snap.PCA(5)
			cached = append(cached, time.Since(a))
		}
	}
	r.setIfMissing("distwindow.drain_publish_us", "us", median(durations(drains, time.Microsecond)))
	r.setIfMissing("distwindow.snapshot_publishes", "1/krow", float64(tr.Metrics().SnapshotPublishes)/float64(len(evs))*1000)
	r.setIfMissing("distwindow.snapshot_first_query_us", "us", median(durations(first, time.Microsecond)))
	r.setIfMissing("distwindow.snapshot_cached_query_ns", "ns", median(durations(cached, time.Nanosecond)))

	reg := distwindow.NewRegistry()
	defer reg.Close()
	for i := 0; i < serveStreams; i++ {
		if _, _, err := reg.Open(streamID(i), p.config()); err != nil {
			return err
		}
	}
	const gets = 100_000
	t0 := time.Now()
	for i := 0; i < gets; i++ {
		if _, ok := reg.Get(streamID(i % serveStreams)); !ok {
			return fmt.Errorf("registry probe: stream vanished")
		}
	}
	// streamID formats the id; time that alone and subtract it.
	t1 := time.Now()
	for i := 0; i < gets; i++ {
		_ = streamID(i % serveStreams)
	}
	fmtT := time.Since(t1)
	r.setIfMissing("distwindow.registry_get_ns", "ns", float64(t1.Sub(t0)-fmtT)/gets)
	return nil
}

// probeWire feeds the rows through networked DA1 and DA2 sites over
// loopback TCP with the v2 codec, traced at the Sender and connection
// boundaries.
func probeWire(r *report, p params, evs []stream.Event) error {
	tc := newTracer()
	run, err := startNet(p, tc)
	if err != nil {
		return err
	}
	mark := markRuntime()
	for i := 0; i < len(evs); i += chunkRows {
		run.feed(evs[i:min(i+chunkRows, len(evs))])
	}
	allocs := mark.allocsSince()
	settled := run.settle(30 * time.Second)
	run.close()
	r.check("probe_wire_settled", settled, "coordinator applied %d of %d frames", run.coord.Metrics().Msgs, run.sent())
	r.setIfMissing("wire.site_allocs_per_row", "allocs/row", allocs/float64(len(evs)))
	wireMetrics(r, run, tc)
	return nil
}

// wireMetrics derives the wire-layer figures from a traced netRun's spans,
// over every row fed and frame sent during the run's lifetime.
func wireMetrics(r *report, run *netRun, tc *tracer) {
	var names []string
	var rows, written int64
	for _, f := range run.feeders {
		names = append(names, f.tk.name)
		rows += f.rows
		written += f.conn.written
	}
	lt := tc.times(names...)
	frames := float64(run.sent())
	r.setIfMissing("wire.site_observe_ns_per_row", "ns", float64(lt.Self["wire.site_observe"])/float64(rows))
	r.setIfMissing("wire.send_ns_per_frame", "ns", float64(lt.Self["wire.send"])/frames)
	r.setIfMissing("wire.conn_write_ns_per_frame", "ns", float64(lt.Self["wire.conn_write"])/frames)
	r.setIfMissing("wire.bytes_per_frame", "bytes", float64(written)/frames)
	r.setIfMissing("wire.frames_per_krow", "frames/krow", frames/float64(rows)*1000)
	ct := tc.times("coordinator-0", "coordinator-1")
	r.setIfMissing("wire.coord_apply_ns_per_msg", "ns", float64(ct.Unattributed)/float64(run.coord.Metrics().Msgs))
}

// probeHTTP sends the rows to a sketchd server as closed-loop 64-row
// ingests into one stream, then queries it, and subtracts the in-process
// cost of the same work to leave the server's own share.
func probeHTTP(e env, r *report, p params, evs []stream.Event) error {
	srv, err := startServer(e.sketchd)
	if err != nil {
		return err
	}
	defer srv.stop()
	c := oneConnClient()
	defer c.CloseIdleConnections()
	if _, err := do(c, http.MethodPost, openURL(srv.base, p, 0), nil); err != nil {
		return err
	}
	reg := distwindow.NewRegistry()
	defer reg.Close()
	tr, _, err := reg.Open(streamID(0), p.config(), distwindow.WithSnapshots(0))
	if err != nil {
		return err
	}
	var httpT, local, qHTTP, qLocal []time.Duration
	for i := 0; i+batchRows <= len(evs); i += batchRows {
		body := csvBody(evs[i : i+batchRows])
		a := time.Now()
		if _, err := do(c, http.MethodPost, srv.base+"/ingest?stream="+streamID(0), body); err != nil {
			return err
		}
		httpT = append(httpT, time.Since(a))
		a = time.Now()
		if _, _, err := csvio.Read(bytes.NewReader(body), func(ev csvio.Event) error {
			return tr.TryObserve(ev.Site, distwindow.Row{T: ev.Row.T, V: ev.Row.V})
		}); err != nil {
			return err
		}
		tr.Drain()
		local = append(local, time.Since(a))
		if (i/batchRows)%4 == 0 {
			a = time.Now()
			if _, err := do(c, http.MethodGet, srv.base+"/query?top=5&stream="+streamID(0), nil); err != nil {
				return err
			}
			qHTTP = append(qHTTP, time.Since(a))
			snap, err := tr.Snapshot()
			if err != nil {
				return err
			}
			a = time.Now()
			snap.Sketch()
			snap.PCA(5)
			qLocal = append(qLocal, time.Since(a))
		}
	}
	r.setIfMissing("sketchd.ingest_self_us", "us", median(durations(httpT, time.Microsecond))-median(durations(local, time.Microsecond)))
	r.setIfMissing("sketchd.query_self_us", "us", median(durations(qHTTP, time.Microsecond))-median(durations(qLocal, time.Microsecond)))
	return nil
}
