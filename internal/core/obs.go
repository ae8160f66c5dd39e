package core

import (
	"distwindow/internal/obs"
	"distwindow/internal/trace"
)

// SinkSetter is implemented by trackers that can forward bucket lifecycle
// events (and other internal events) to an obs.Sink. Install the sink
// before feeding data; the trackers do not synchronize the field.
type SinkSetter interface {
	SetSink(obs.Sink)
}

// TracerSetter is implemented by trackers that can forward a causal
// tracer into their sites' sliding-window histograms, so bucket
// create/merge/expire instants attach under the facade's ingest spans.
// Install the tracer before feeding data; the field is not synchronized.
type TracerSetter interface {
	SetTracer(*trace.Tracer)
}

// BucketCounter is implemented by trackers whose sites maintain
// exponential-histogram state; LiveBuckets reports the current total
// bucket count across sites — the space metric of the paper's experiments
// in structure units rather than words.
type BucketCounter interface {
	LiveBuckets() int
}

// SetSink forwards bucket lifecycle events from every site's gEH.
func (t *SumTracker) SetSink(s obs.Sink) {
	for i, st := range t.sites {
		st.hist.SetSink(s, i)
	}
}

// SetTracer forwards a causal tracer to every site's gEH.
func (t *SumTracker) SetTracer(tr *trace.Tracer) {
	for i := range t.sites {
		t.SetSiteTracer(i, tr, i)
	}
}

// SetSiteTracer forwards a causal tracer to one site's gEH, stamping its
// bucket instants with label instead of the site index — a networked
// site driving a one-site tracker passes its fleet-wide id.
func (t *SumTracker) SetSiteTracer(site int, tr *trace.Tracer, label int) {
	t.sites[site].hist.SetTracer(tr, label)
}

// LiveBuckets returns the total gEH bucket count across sites.
func (t *SumTracker) LiveBuckets() int {
	n := 0
	for _, st := range t.sites {
		n += st.hist.Buckets()
	}
	return n
}

// SetSink forwards bucket lifecycle events from every site's mEH. The
// exact-storage ablation has no histograms, so it emits nothing.
func (t *DA1) SetSink(s obs.Sink) {
	for i, st := range t.sites {
		if st.hist != nil {
			st.hist.SetSink(s, i)
		}
	}
}

// SetTracer forwards a causal tracer to every site's mEH (exact-storage
// ablation sites have none).
func (t *DA1) SetTracer(tr *trace.Tracer) {
	for i := range t.sites {
		t.SetSiteTracer(i, tr, i)
	}
}

// SetSiteTracer forwards a causal tracer to one site's mEH, stamping its
// bucket instants with label (see SumTracker.SetSiteTracer).
func (t *DA1) SetSiteTracer(site int, tr *trace.Tracer, label int) {
	if h := t.sites[site].hist; h != nil {
		h.SetTracer(tr, label)
	}
}

// LiveBuckets returns the total mEH bucket count across sites. In
// exact-storage mode each retained row counts as one bucket.
func (t *DA1) LiveBuckets() int {
	n := 0
	for _, st := range t.sites {
		if st.hist != nil {
			n += st.hist.Buckets()
		} else if st.win != nil {
			n += st.win.Len()
		}
	}
	return n
}

// SetSink forwards bucket lifecycle events from every site's mass gEH.
func (t *DA2) SetSink(s obs.Sink) {
	for i, st := range t.sites {
		st.mass.SetSink(s, i)
	}
}

// SetTracer forwards a causal tracer to every site's mass gEH.
func (t *DA2) SetTracer(tr *trace.Tracer) {
	for i := range t.sites {
		t.SetSiteTracer(i, tr, i)
	}
}

// SetSiteTracer forwards a causal tracer to one site's mass gEH, stamping
// its bucket instants with label (see SumTracker.SetSiteTracer).
func (t *DA2) SetSiteTracer(site int, tr *trace.Tracer, label int) {
	t.sites[site].mass.SetTracer(tr, label)
}

// LiveBuckets returns the total mass-gEH bucket count across sites.
func (t *DA2) LiveBuckets() int {
	n := 0
	for _, st := range t.sites {
		n += st.mass.Buckets()
	}
	return n
}

// SetSink forwards events from the embedded Frobenius tracker (present for
// the ES and uniform estimators; priority sampling has none).
func (s *Sampler) SetSink(sink obs.Sink) {
	if s.sum != nil {
		s.sum.SetSink(sink)
	}
}

// SetTracer forwards a causal tracer to the embedded Frobenius tracker.
func (s *Sampler) SetTracer(tr *trace.Tracer) {
	if s.sum != nil {
		s.sum.SetTracer(tr)
	}
}

// LiveBuckets returns the embedded Frobenius tracker's bucket count (0
// when the variant has none).
func (s *Sampler) LiveBuckets() int {
	if s.sum == nil {
		return 0
	}
	return s.sum.LiveBuckets()
}

// SetSink forwards events from the shared Frobenius tracker and every
// inner sampler.
func (t *WithReplacement) SetSink(s obs.Sink) {
	t.sum.SetSink(s)
	for _, inner := range t.inst {
		inner.SetSink(s)
	}
}

// LiveBuckets returns the shared Frobenius tracker's bucket count.
func (t *WithReplacement) LiveBuckets() int {
	return t.sum.LiveBuckets()
}

// SetTracer forwards a causal tracer to the shared Frobenius tracker and
// every inner sampler.
func (t *WithReplacement) SetTracer(tr *trace.Tracer) {
	t.sum.SetTracer(tr)
	for _, inner := range t.inst {
		inner.SetTracer(tr)
	}
}
