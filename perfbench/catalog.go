package main

// metricSpec names one reported metric as BENCHMARK.json lists it.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// Only lists the workloads the metric applies to; empty means every
	// workload. BENCHMARK.json lists just the metrics of every workload,
	// the ones each run's result line carries; the others are printed as
	// metric lines and kept in the run record.
	Only []string `json:"-"`
	// Unlisted marks a metric of every workload that BENCHMARK.json leaves
	// out: printed and kept in the run record, not on the result line.
	Unlisted bool `json:"-"`
}

// appliesTo reports whether the metric is measured on workload w.
func (m metricSpec) appliesTo(w string) bool { return len(m.Only) == 0 || contains(m.Only, w) }

// listed reports whether BENCHMARK.json lists the metric, so that every
// run's result line carries it.
func (m metricSpec) listed() bool { return len(m.Only) == 0 && !m.Unlisted }

// queryWorkloads are the workloads with query traffic of their own:
// SketchOf calls on net-tcp, GET /query on serve-mixed.
var queryWorkloads = []string{"net-tcp", "serve-mixed"}

// endToEnd is what an untraced run reports. The p99s of ingest-to-
// queryable and query latency are printed as notes, not listed: on the
// 2-core reference VM they moved by half or more between runs of one seed
// (host stalls of tens of milliseconds land in some runs and not others),
// beyond any bound a regression gate could use. Traced runs report them
// as e2e.*_tail metrics. The ingest rate is listed per kref (ref.go); in
// rows/s it is printed but not listed, since it follows the host's core
// speed, which moved it by half between runs.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ingest_rows_per_kref", Unit: "rows/kref", Better: "higher", Bound: 0.25},
	{Name: "ingest_rows_per_s", Unit: "rows/s", Better: "higher", Unlisted: true},
	{Name: "words_per_window", Unit: "words", Better: "lower", Bound: 0.15},
	{Name: "site_space_words", Unit: "words", Better: "lower", Bound: 0.15},
	{Name: "max_cov_err", Unit: "ratio", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "ingest_to_queryable_p50_ms", Unit: "ms", Better: "lower", Only: queryWorkloads},
	{Name: "query_p50_us", Unit: "us", Better: "lower", Only: queryWorkloads},
}

// perLayer is what a traced run reports.
var perLayer = []metricSpec{
	{Name: "meh.add_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "meh.buckets", Unit: "count", Better: "lower"},
	{Name: "meh.space_words", Unit: "words", Better: "lower"},
	{Name: "mat.op_sym_norm_us", Unit: "us", Better: "lower"},
	{Name: "mat.eig_sym_us", Unit: "us", Better: "lower"},
	{Name: "mat.psd_sqrt_us", Unit: "us", Better: "lower"},
	{Name: "fd.update_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "fd.update_p99_ns", Unit: "ns", Better: "lower"},
	{Name: "eh.insert_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "iwmt.input_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "iwmt.msgs_per_krow", Unit: "msgs/krow", Better: "lower"},
	{Name: "core.site_step_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "core.site_step_allocs_per_row", Unit: "allocs/row", Better: "lower"},
	{Name: "core.apply_ns_per_update", Unit: "ns", Better: "lower"},
	{Name: "core.updates_per_krow", Unit: "updates/krow", Better: "lower"},
	{Name: "distwindow.observe_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "distwindow.observe_allocs_per_row", Unit: "allocs/row", Better: "lower"},
	{Name: "protocol.observe_batch_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "protocol.observe_batch_p99_us", Unit: "us", Better: "lower"},
	{Name: "protocol.drain_ms", Unit: "ms", Better: "lower"},
	{Name: "protocol.speedup_vs_sequential", Unit: "ratio", Better: "higher"},
	{Name: "csvio.read_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "distwindow.registry_get_ns", Unit: "ns", Better: "lower"},
	{Name: "distwindow.drain_publish_us", Unit: "us", Better: "lower"},
	{Name: "distwindow.snapshot_publishes", Unit: "1/krow", Better: "lower"},
	{Name: "distwindow.snapshot_first_query_us", Unit: "us", Better: "lower"},
	{Name: "distwindow.snapshot_cached_query_ns", Unit: "ns", Better: "lower"},
	{Name: "sketchd.ingest_self_us", Unit: "us", Better: "lower"},
	{Name: "sketchd.query_self_us", Unit: "us", Better: "lower"},
	{Name: "wire.site_observe_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "wire.site_allocs_per_row", Unit: "allocs/row", Better: "lower"},
	{Name: "wire.send_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "wire.conn_write_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "codec.encode_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "codec.decode_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "wire.bytes_per_frame", Unit: "bytes", Better: "lower"},
	{Name: "wire.frames_per_krow", Unit: "frames/krow", Better: "lower"},
	{Name: "wire.coord_apply_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "runtime.allocs_per_row", Unit: "allocs/row", Better: "lower"},
	{Name: "runtime.gc_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "bench.trace_overhead_pct", Unit: "pct", Better: "lower"},
	{Name: "bench.unattributed_share", Unit: "ratio", Better: "lower"},
	{Name: "e2e.ingest_to_queryable_tail_ms", Unit: "ms", Better: "lower", Only: queryWorkloads},
	{Name: "e2e.query_tail_us", Unit: "us", Better: "lower", Only: queryWorkloads},
	{Name: "bench.gen_late_p99_ms", Unit: "ms", Better: "lower", Only: queryWorkloads},
}
