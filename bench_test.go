package distwindow_test

// One testing.B benchmark per table and figure of the paper's evaluation
// (§IV). These run reduced ("tiny") streams so that `go test -bench=.`
// finishes in minutes and reports the figures' headline numbers as custom
// metrics; `go run ./cmd/trackbench` regenerates the complete series at
// default or paper ("full") scale.
//
// Metric conventions: avg_err/max_err are observed covariance errors,
// msg_words is communication per window (the paper's msg metric),
// site_words is the maximum per-site space, rows_per_s the update rate.

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"distwindow"
	"distwindow/internal/bench"
	"distwindow/internal/datagen"
	"distwindow/internal/obs/telemetry"
)

var (
	dsOnce sync.Once
	dsAll  []datagen.Dataset
)

func datasets() (pamap, synth, wiki datagen.Dataset) {
	dsOnce.Do(func() { dsAll = bench.Datasets(bench.Tiny, 1) })
	return dsAll[0], dsAll[1], dsAll[2]
}

func runOne(b *testing.B, ds datagen.Dataset, p distwindow.Protocol, eps float64, opt bench.Options) bench.Result {
	b.Helper()
	r, err := bench.Run(ds, p, eps, opt)
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkTable3Datasets regenerates Table III (dataset summaries).
func BenchmarkTable3Datasets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		dss := bench.Datasets(bench.Tiny, int64(i+1))
		for _, ds := range dss {
			s := datagen.Summarize(ds)
			if s.N == 0 {
				b.Fatal("empty dataset")
			}
		}
	}
	dss := bench.Datasets(bench.Tiny, 1)
	b.ReportMetric(dss[0].R, "pamap_R")
	b.ReportMetric(dss[1].R, "synthetic_R")
	b.ReportMetric(dss[2].R, "wiki_R")
}

// BenchmarkTable2Scaling verifies Table II's communication dependence on
// ε: sampling ∝ 1/ε², deterministic ∝ 1/ε (empirical log-log exponents).
func BenchmarkTable2Scaling(b *testing.B) {
	_, synth, _ := datasets()
	var alphaS, alphaD float64
	for i := 0; i < b.N; i++ {
		var rs []bench.Result
		for _, eps := range []float64{0.1, 0.2, 0.3} {
			for _, p := range []distwindow.Protocol{distwindow.PWOR, distwindow.DA1} {
				rs = append(rs, runOne(b, synth, p, eps, bench.Options{Queries: 1, Seed: 1, SkipErr: true}))
			}
		}
		sl := bench.Table2Check(rs)
		alphaS, alphaD = sl[distwindow.PWOR], sl[distwindow.DA1]
	}
	b.ReportMetric(alphaS, "alpha_sampling")
	b.ReportMetric(alphaD, "alpha_deterministic")
}

// epsPanel runs the ε-sweep behind panels (a)–(d) of a figure and reports
// the ε=0.1 operating point of the named protocol.
func epsPanel(b *testing.B, ds datagen.Dataset, wiki bool) {
	protos := bench.FigureProtocols(wiki)
	var last []bench.Result
	for i := 0; i < b.N; i++ {
		var rs []bench.Result
		for _, p := range protos {
			rs = append(rs, runOne(b, ds, p, 0.1, bench.Options{Queries: 20, Seed: 1}))
		}
		last = rs
	}
	for _, r := range last {
		switch r.Protocol {
		case distwindow.PWORAll:
			b.ReportMetric(r.AvgErr, "pwor_all_err")
			b.ReportMetric(r.MsgWords, "pwor_all_msg")
		case distwindow.DA2:
			b.ReportMetric(r.AvgErr, "da2_err")
			b.ReportMetric(r.MsgWords, "da2_msg")
		}
	}
}

// BenchmarkFig1ErrVsEps, ...CommVsEps and ...Tradeoff share one sweep: the
// paper's panels 1(a)–1(d) are views of the same (ε, err, msg) data.
func BenchmarkFig1ErrVsEps(b *testing.B) { p, _, _ := datasets(); epsPanel(b, p, false) }

// BenchmarkFig1CommVsEps measures panel 1(b): words/window as ε shrinks.
func BenchmarkFig1CommVsEps(b *testing.B) {
	p, _, _ := datasets()
	var lo, hi bench.Result
	for i := 0; i < b.N; i++ {
		lo = runOne(b, p, distwindow.DA1, 0.1, bench.Options{Queries: 1, Seed: 1, SkipErr: true})
		hi = runOne(b, p, distwindow.DA1, 0.3, bench.Options{Queries: 1, Seed: 1, SkipErr: true})
	}
	b.ReportMetric(lo.MsgWords, "da1_msg_eps0.1")
	b.ReportMetric(hi.MsgWords, "da1_msg_eps0.3")
}

// BenchmarkFig1Tradeoff measures panels 1(c,d): err against msg.
func BenchmarkFig1Tradeoff(b *testing.B) {
	p, _, _ := datasets()
	var det, smp bench.Result
	for i := 0; i < b.N; i++ {
		det = runOne(b, p, distwindow.DA1, 0.1, bench.Options{Queries: 20, Seed: 1})
		smp = runOne(b, p, distwindow.PWORAll, 0.1, bench.Options{Queries: 20, Seed: 1})
	}
	b.ReportMetric(det.AvgErr/det.MsgWords*1e6, "da1_err_per_Mword")
	b.ReportMetric(smp.AvgErr/smp.MsgWords*1e6, "pwor_all_err_per_Mword")
	b.ReportMetric(det.MaxErr, "da1_max_err")
	b.ReportMetric(smp.MaxErr, "pwor_all_max_err")
}

// BenchmarkFig1VarySites measures panels 1(e,f): error stability and the
// deterministic protocols' linear communication dependence on m.
func BenchmarkFig1VarySites(b *testing.B) {
	p, _, _ := datasets()
	var m5, m40 bench.Result
	for i := 0; i < b.N; i++ {
		m5 = runOne(b, p, distwindow.DA1, 0.1, bench.Options{Sites: 5, Queries: 1, Seed: 1, SkipErr: true})
		m40 = runOne(b, p, distwindow.DA1, 0.1, bench.Options{Sites: 40, Queries: 1, Seed: 1, SkipErr: true})
	}
	b.ReportMetric(m5.MsgWords, "da1_msg_m5")
	b.ReportMetric(m40.MsgWords, "da1_msg_m40")
	b.ReportMetric(m40.MsgWords/m5.MsgWords, "msg_ratio_m40_over_m5")
}

// BenchmarkFig2* repeat the panels on SYNTHETIC.
func BenchmarkFig2ErrVsEps(b *testing.B) { _, s, _ := datasets(); epsPanel(b, s, false) }

// BenchmarkFig2CommVsEps measures panel 2(b).
func BenchmarkFig2CommVsEps(b *testing.B) {
	_, s, _ := datasets()
	var lo, hi bench.Result
	for i := 0; i < b.N; i++ {
		lo = runOne(b, s, distwindow.DA2, 0.1, bench.Options{Queries: 1, Seed: 1, SkipErr: true})
		hi = runOne(b, s, distwindow.DA2, 0.3, bench.Options{Queries: 1, Seed: 1, SkipErr: true})
	}
	b.ReportMetric(lo.MsgWords, "da2_msg_eps0.1")
	b.ReportMetric(hi.MsgWords, "da2_msg_eps0.3")
}

// BenchmarkFig2Tradeoff measures panels 2(c,d). DA1 is notably strong on
// SYNTHETIC (rows drawn from one distribution), per the paper.
func BenchmarkFig2Tradeoff(b *testing.B) {
	_, s, _ := datasets()
	var det, smp bench.Result
	for i := 0; i < b.N; i++ {
		det = runOne(b, s, distwindow.DA1, 0.1, bench.Options{Queries: 20, Seed: 1})
		smp = runOne(b, s, distwindow.PWORAll, 0.1, bench.Options{Queries: 20, Seed: 1})
	}
	b.ReportMetric(det.AvgErr, "da1_err")
	b.ReportMetric(det.MsgWords, "da1_msg")
	b.ReportMetric(smp.AvgErr, "pwor_all_err")
	b.ReportMetric(smp.MsgWords, "pwor_all_msg")
}

// BenchmarkFig2VarySites measures panels 2(e,f).
func BenchmarkFig2VarySites(b *testing.B) {
	_, s, _ := datasets()
	var det5, det40, smp5, smp40 bench.Result
	for i := 0; i < b.N; i++ {
		det5 = runOne(b, s, distwindow.DA2, 0.1, bench.Options{Sites: 5, Queries: 1, Seed: 1, SkipErr: true})
		det40 = runOne(b, s, distwindow.DA2, 0.1, bench.Options{Sites: 40, Queries: 1, Seed: 1, SkipErr: true})
		smp5 = runOne(b, s, distwindow.PWOR, 0.1, bench.Options{Sites: 5, Queries: 1, Seed: 1, SkipErr: true})
		smp40 = runOne(b, s, distwindow.PWOR, 0.1, bench.Options{Sites: 40, Queries: 1, Seed: 1, SkipErr: true})
	}
	b.ReportMetric(det40.MsgWords/det5.MsgWords, "det_msg_ratio_m40_m5")
	b.ReportMetric(smp40.MsgWords/(smp5.MsgWords+1), "sampling_msg_ratio_m40_m5")
}

// BenchmarkFig3ErrVsEps covers Figure 3's WIKI panels (DA1 omitted at
// large d, exactly as in the paper).
func BenchmarkFig3ErrVsEps(b *testing.B) { _, _, w := datasets(); epsPanel(b, w, true) }

// BenchmarkFig3Tradeoff measures panels 3(c,d) — the skewed-data contrast
// between PWOR-ALL and ESWOR-ALL the paper highlights.
func BenchmarkFig3Tradeoff(b *testing.B) {
	_, _, w := datasets()
	var pa, ea bench.Result
	for i := 0; i < b.N; i++ {
		pa = runOne(b, w, distwindow.PWORAll, 0.1, bench.Options{Queries: 20, Seed: 1})
		ea = runOne(b, w, distwindow.ESWORAll, 0.1, bench.Options{Queries: 20, Seed: 1})
	}
	b.ReportMetric(pa.AvgErr, "pwor_all_err")
	b.ReportMetric(ea.AvgErr, "eswor_all_err")
	b.ReportMetric(pa.MaxErr, "pwor_all_max_err")
	b.ReportMetric(ea.MaxErr, "eswor_all_max_err")
}

// BenchmarkFig3VarySites covers the {10,20}-site WIKI sweep.
func BenchmarkFig3VarySites(b *testing.B) {
	_, _, w := datasets()
	var m10, m20 bench.Result
	for i := 0; i < b.N; i++ {
		m10 = runOne(b, w, distwindow.DA2, 0.1, bench.Options{Sites: 10, Queries: 1, Seed: 1, SkipErr: true})
		m20 = runOne(b, w, distwindow.DA2, 0.1, bench.Options{Sites: 20, Queries: 1, Seed: 1, SkipErr: true})
	}
	b.ReportMetric(m10.MsgWords, "da2_msg_m10")
	b.ReportMetric(m20.MsgWords, "da2_msg_m20")
}

// BenchmarkFig4Space measures panels 4(a–c): max per-site space vs ε.
func BenchmarkFig4Space(b *testing.B) {
	p, s, w := datasets()
	var sp, ss, sw bench.Result
	for i := 0; i < b.N; i++ {
		sp = runOne(b, p, distwindow.DA2, 0.1, bench.Options{Queries: 1, Seed: 1, SkipErr: true})
		ss = runOne(b, s, distwindow.PWOR, 0.1, bench.Options{Queries: 1, Seed: 1, SkipErr: true})
		sw = runOne(b, w, distwindow.DA2, 0.1, bench.Options{Queries: 1, Seed: 1, SkipErr: true})
	}
	b.ReportMetric(float64(sp.SiteSpace), "pamap_da2_site_words")
	b.ReportMetric(float64(ss.SiteSpace), "synthetic_pwor_site_words")
	b.ReportMetric(float64(sw.SiteSpace), "wiki_da2_site_words")
}

// BenchmarkFig4UpdateRate measures panel 4(d): rows/s per protocol family;
// sampling is d-insensitive, deterministic protocols slow with d.
func BenchmarkFig4UpdateRate(b *testing.B) {
	p, _, w := datasets()
	var sLow, sHigh, dLow, dHigh bench.Result
	for i := 0; i < b.N; i++ {
		sLow = runOne(b, p, distwindow.PWOR, 0.1, bench.Options{Queries: 1, Seed: 1, SkipErr: true})
		sHigh = runOne(b, w, distwindow.PWOR, 0.1, bench.Options{Queries: 1, Seed: 1, SkipErr: true})
		dLow = runOne(b, p, distwindow.DA2, 0.1, bench.Options{Queries: 1, Seed: 1, SkipErr: true})
		dHigh = runOne(b, w, distwindow.DA2, 0.1, bench.Options{Queries: 1, Seed: 1, SkipErr: true})
	}
	b.ReportMetric(sLow.UpdatesPerSec, "sampling_rate_d43")
	b.ReportMetric(sHigh.UpdatesPerSec, "sampling_rate_d128")
	b.ReportMetric(dLow.UpdatesPerSec, "det_rate_d43")
	b.ReportMetric(dHigh.UpdatesPerSec, "det_rate_d128")
}

// BenchmarkObserveHotPath isolates the per-row ingest cost with the
// default (nil) event sink — the guard for the observability layer's
// <5% instrumentation budget. Rows are pre-generated so the loop measures
// Observe alone; the trackers copy, so reuse is safe.
func BenchmarkObserveHotPath(b *testing.B) {
	const (
		d     = 32
		sites = 4
	)
	rows := make([][]float64, 1024)
	rng := rand.New(rand.NewSource(1))
	for i := range rows {
		v := make([]float64, d)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		rows[i] = v
	}
	for _, proto := range []distwindow.Protocol{distwindow.PWOR, distwindow.DA2} {
		b.Run(string(proto), func(b *testing.B) {
			tr, err := distwindow.New(distwindow.Config{
				Protocol: proto, D: d, W: 1 << 20, Eps: 0.1, Sites: sites, Seed: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := tr.TryObserve(i%sites, distwindow.Row{T: int64(i + 1), V: rows[i%len(rows)]}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkObserveHotPathTraced measures causal tracing's hot-path cost
// against BenchmarkObserveHotPath: "off" (tracing never enabled) must stay
// within the <2% budget — one nil-check per hook — and "1in64" head
// sampling within <10%, paying one atomic add per root plus allocation
// only on sampled rows.
func BenchmarkObserveHotPathTraced(b *testing.B) {
	const (
		d     = 32
		sites = 4
	)
	rows := make([][]float64, 1024)
	rng := rand.New(rand.NewSource(1))
	for i := range rows {
		v := make([]float64, d)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		rows[i] = v
	}
	for _, proto := range []distwindow.Protocol{distwindow.PWOR, distwindow.DA2} {
		for _, variant := range []struct {
			name  string
			every int
		}{{"off", 0}, {"1in64", 64}} {
			b.Run(string(proto)+"/"+variant.name, func(b *testing.B) {
				tr, err := distwindow.New(distwindow.Config{
					Protocol: proto, D: d, W: 1 << 20, Eps: 0.1, Sites: sites, Seed: 1,
				}, distwindow.WithTracing(distwindow.TraceConfig{SampleEvery: variant.every}))
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := tr.TryObserve(i%sites, distwindow.Row{T: int64(i + 1), V: rows[i%len(rows)]}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkObserveHotPathTelemetry measures the fleet telemetry plane's
// ingest cost against BenchmarkObserveHotPath: "off" runs the bare loop,
// "on" runs it while a Publisher snapshots the tracker into frames every
// 10ms on its own goroutine (10× the default distrun cadence, to make any
// interference measurable). Collection never touches the ingest path —
// it reads the same atomic counters Metrics does — so on/off must stay
// within the <2% overhead budget benchjson gates on.
func BenchmarkObserveHotPathTelemetry(b *testing.B) {
	const (
		d     = 32
		sites = 4
	)
	rows := make([][]float64, 1024)
	rng := rand.New(rand.NewSource(1))
	for i := range rows {
		v := make([]float64, d)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		rows[i] = v
	}
	for _, proto := range []distwindow.Protocol{distwindow.PWOR, distwindow.DA2} {
		for _, teleOn := range []bool{false, true} {
			name := string(proto) + "/off"
			if teleOn {
				name = string(proto) + "/on"
			}
			b.Run(name, func(b *testing.B) {
				tr, err := distwindow.New(distwindow.Config{
					Protocol: proto, D: d, W: 1 << 20, Eps: 0.1, Sites: sites, Seed: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				if teleOn {
					pub := telemetry.NewPublisher(
						func() telemetry.Frame { return tr.TelemetryFrame(0, "bench") },
						func(telemetry.Frame) error { return nil },
					)
					pub.Start(10 * time.Millisecond)
					defer pub.Stop()
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := tr.TryObserve(i%sites, distwindow.Row{T: int64(i + 1), V: rows[i%len(rows)]}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
