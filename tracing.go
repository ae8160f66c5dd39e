package distwindow

import (
	"fmt"
	"net/http"

	"distwindow/internal/audit"
	"distwindow/internal/obs"
	"distwindow/internal/protocol"
	"distwindow/mat"
)

// TraceConfig configures causal tracing on a Tracker.
type TraceConfig struct {
	// SampleEvery is the head-based sampling rate: one trace per
	// SampleEvery ingested rows (1 traces every row; 0 disables tracing).
	// The decision is taken once at the ingest root and inherited by every
	// downstream span — a sampled ingest yields sampled bucket, send and
	// apply spans.
	SampleEvery int
	// RingSize bounds the retained completed spans (rounded up to a power
	// of two; 0 means trace.DefaultRingSize). Old spans are overwritten.
	RingSize int
}

// TracingEnabled reports whether WithTracing installed a live tracer.
func (t *Tracker) TracingEnabled() bool { return t.tracer.Enabled() }

// TraceSpans returns how many spans have been recorded so far (spans older
// than the ring capacity have been overwritten). 0 when tracing is off.
func (t *Tracker) TraceSpans() int64 {
	if t.traceRing == nil {
		return 0
	}
	return t.traceRing.Recorded()
}

// TraceChrome exports the retained spans as Chrome trace-event JSON,
// loadable in Perfetto or chrome://tracing. It is safe to call while the
// tracker ingests.
func (t *Tracker) TraceChrome() ([]byte, error) {
	if t.traceRing == nil {
		return nil, fmt.Errorf("distwindow: tracing not enabled")
	}
	return t.traceRing.ChromeTrace()
}

// TraceHandler serves the Chrome trace export over HTTP (the same handler
// MetricsHandler mounts at /debug/trace). With tracing disabled it serves
// 404.
func (t *Tracker) TraceHandler() http.Handler {
	if t.traceRing == nil {
		return http.NotFoundHandler()
	}
	return t.traceRing.Handler()
}

// AuditConfig configures the live ε-error auditor.
type AuditConfig struct {
	// EveryRows is the audit cadence: one error measurement per EveryRows
	// ingested rows (default 512).
	EveryRows int
	// KeepSamples bounds the measurement history retained for the
	// /debug/audit panel (default 512).
	KeepSamples int
}

// AuditMetrics is a snapshot of the auditor's counters (see
// Metrics.Audit).
type AuditMetrics = audit.Metrics

// AuditSample is one audit measurement (see Tracker.AuditSamples).
type AuditSample = audit.Sample

// startAudit builds the auditor WithAudit asks for. It reads the
// coordinator through the same non-mutating seam publication uses, at the
// delivered watermark, on the ingest goroutine, at the audit cadence; so
// an audited tracker answers exactly as an unaudited one.
func (t *Tracker) startAudit(cfg AuditConfig) error {
	acfg := audit.Config{
		D:           t.cfg.D,
		W:           t.cfg.W,
		Eps:         t.cfg.Eps,
		EveryRows:   cfg.EveryRows,
		KeepSamples: cfg.KeepSamples,
		Words:       func() int64 { return t.net.Stats().TotalWords() },
	}
	read := func() protocol.CoordSnapshot { return t.inner.SnapshotCoord(t.delivered) }
	if _, ok := t.snap.Load().coord.Gram(); ok {
		acfg.Gram = func() *mat.Dense { g, _ := read().Gram(); return g }
	} else {
		acfg.Sketch = func() *mat.Dense { return read().Sketch() }
	}
	a, err := audit.New(acfg)
	if err != nil {
		return err
	}
	t.aud = a
	return nil
}

// AuditEnabled reports whether WithAudit installed an auditor.
func (t *Tracker) AuditEnabled() bool { return t.aud != nil }

// Audit returns the auditor's counter snapshot; ok is false when the
// tracker was built without WithAudit.
func (t *Tracker) Audit() (m AuditMetrics, ok bool) {
	if t.aud == nil {
		return AuditMetrics{}, false
	}
	return t.aud.Metrics(), true
}

// AuditSamples returns the retained audit measurement history, oldest
// first (nil when auditing is off).
func (t *Tracker) AuditSamples() []AuditSample {
	if t.aud == nil {
		return nil
	}
	return t.aud.Samples()
}

// AuditHandler serves the /debug/audit SVG error panel (the same handler
// MetricsHandler mounts). With auditing disabled it serves 404.
func (t *Tracker) AuditHandler() http.Handler {
	if t.aud == nil {
		return http.NotFoundHandler()
	}
	return t.aud.Handler()
}

// AuditTick forces an audit measurement now (instead of waiting for the
// row cadence) and returns it; ok is false when auditing is off.
func (t *Tracker) AuditTick() (s AuditSample, ok bool) {
	if t.aud == nil {
		return AuditSample{}, false
	}
	return t.aud.Tick(), true
}

// MuxOption customizes the mux returned by MetricsHandler (and the other
// obs muxes); see WithPprof and WithHandler.
type MuxOption = obs.MuxOption

// WithPprof mounts net/http/pprof's profiling endpoints under
// /debug/pprof/ — opt-in because profiling endpoints on an operations
// port are a policy decision.
func WithPprof() MuxOption { return obs.WithPprof() }

// WithHandler mounts an extra handler at the given pattern.
func WithHandler(pattern string, h http.Handler) MuxOption { return obs.WithHandler(pattern, h) }
