// Package protocol provides the distributed-monitoring fabric the tracking
// protocols run on: a simulated two-way communication channel between m
// sites and one coordinator with word-level cost accounting, plus the
// common Tracker interface every protocol implements and the metrics the
// paper's experiments report.
//
// The simulation is single-process and synchronous (the standard
// methodology in the distributed monitoring literature, and the one the
// paper uses): protocol logic invokes each other's handlers directly and
// reports every transmission to the Network so that communication cost is
// measured exactly as the paper counts it — one word per real number or
// integer transmitted.
package protocol

import (
	"distwindow/internal/obs"
	"distwindow/internal/stream"
	"distwindow/internal/trace"
	"distwindow/mat"
)

// Tracker is a complete distributed sliding-window tracking protocol:
// sites plus coordinator wired to a Network.
type Tracker interface {
	// Observe delivers a row to the given site. Timestamps must be
	// non-decreasing across successive calls.
	Observe(site int, r stream.Row)
	// AdvanceTime moves the global clock forward without new data so that
	// expirations and the resulting renegotiations happen.
	AdvanceTime(now int64)
	// Sketch returns the coordinator's current covariance sketch B of the
	// union window matrix A_w.
	Sketch() *mat.Dense
	// Stats returns the communication and space counters accumulated so
	// far.
	Stats() Stats
	// Name identifies the protocol in experiment output.
	Name() string
	// Snapshotter freezes the coordinator state for lock-free readers.
	Snapshotter
}

// Stats aggregates the cost metrics of a protocol run, in words (one word
// per float64/int64 transmitted, the paper's unit).
type Stats struct {
	// WordsUp counts words sent from sites to the coordinator.
	WordsUp int64
	// WordsDown counts words sent from the coordinator to sites
	// (broadcasts count m× their payload).
	WordsDown int64
	// MsgsUp and MsgsDown count discrete messages in each direction.
	MsgsUp, MsgsDown int64
	// Broadcasts counts coordinator broadcasts (threshold updates).
	Broadcasts int64
	// MaxSiteWords is the maximum words of state held by any single site
	// at any sampled instant.
	MaxSiteWords int64
	// CoordWords is the maximum words of state held by the coordinator at
	// any sampled instant.
	CoordWords int64
}

// TotalWords returns all communication in both directions.
func (s Stats) TotalWords() int64 { return s.WordsUp + s.WordsDown }

// SiteStats is the per-site slice of the communication counters: the words
// and messages a single site exchanged with the coordinator.
type SiteStats struct {
	WordsUp, MsgsUp     int64
	WordsDown, MsgsDown int64
}

// siteCounters is the live (atomic) form of SiteStats.
type siteCounters struct {
	wordsUp, msgsUp     obs.Counter
	wordsDown, msgsDown obs.Counter
}

// Network accounts for all transmissions between sites and coordinator.
// Protocols must report every logical message they exchange.
//
// Counters are atomic so a metrics endpoint on another goroutine can
// snapshot a live run; Stats() is derived from the very same counters the
// observability layer exports, so the paper's word accounting and the
// /metrics figures can never disagree. An optional obs.Sink receives one
// typed event per transmission (EvMsgSent for site→coordinator, EvMsgReceived
// for coordinator→site, EvThresholdRenegotiation for broadcasts); the
// default nil sink costs one branch per call.
type Network struct {
	m int

	wordsUp, wordsDown obs.Counter
	msgsUp, msgsDown   obs.Counter
	broadcasts         obs.Counter
	maxSiteWords       obs.MaxGauge
	coordWords         obs.MaxGauge
	perSite            []siteCounters

	sink   obs.Sink
	tracer *trace.Tracer
}

// NewNetwork returns a fabric connecting m sites to one coordinator.
func NewNetwork(m int) *Network {
	if m < 1 {
		panic("protocol: need at least one site")
	}
	return &Network{m: m, perSite: make([]siteCounters, m)}
}

// Sites returns the number of sites m.
func (n *Network) Sites() int { return n.m }

// SetSink installs an event sink (nil disables events). Install it before
// traffic flows; the field itself is not synchronized.
func (n *Network) SetSink(s obs.Sink) { n.sink = s }

// SetTracer installs a causal tracer: each transmission is recorded as a
// send/recv instant under the tracer's open ingest span (the simulated
// fabric is synchronous, so every message fires inside the Observe that
// caused it). Install before traffic flows; nil disables.
func (n *Network) SetTracer(tr *trace.Tracer) { n.tracer = tr }

// Up records a site→coordinator message of the given word count from an
// unidentified site (kept for callers that have no site in scope; prefer
// UpFrom so the per-site breakdown stays complete).
func (n *Network) Up(words int64) { n.UpFrom(-1, words) }

// UpFrom records a site→coordinator message of the given word count,
// attributed to the sending site.
func (n *Network) UpFrom(site int, words int64) {
	n.wordsUp.Add(words)
	n.msgsUp.Inc()
	if site >= 0 && site < len(n.perSite) {
		n.perSite[site].wordsUp.Add(words)
		n.perSite[site].msgsUp.Inc()
	}
	if n.sink != nil {
		n.sink.OnEvent(obs.Event{Kind: obs.EvMsgSent, Site: site, Words: words})
	}
	n.tracer.Instant(trace.OpSend, site, 0, words)
}

// Down records a coordinator→site message of the given word count to an
// unidentified site (prefer DownTo).
func (n *Network) Down(words int64) { n.DownTo(-1, words) }

// DownTo records a coordinator→site message of the given word count,
// attributed to the receiving site.
func (n *Network) DownTo(site int, words int64) {
	n.wordsDown.Add(words)
	n.msgsDown.Inc()
	if site >= 0 && site < len(n.perSite) {
		n.perSite[site].wordsDown.Add(words)
		n.perSite[site].msgsDown.Inc()
	}
	if n.sink != nil {
		n.sink.OnEvent(obs.Event{Kind: obs.EvMsgReceived, Site: site, Words: words})
	}
	n.tracer.Instant(trace.OpRecv, site, 0, words)
}

// Broadcast records a coordinator→all-sites broadcast: the payload is
// charged once per site. Broadcasts carry threshold renegotiations, so the
// sink sees one EvThresholdRenegotiation per call (not one per site).
func (n *Network) Broadcast(words int64) {
	n.wordsDown.Add(words * int64(n.m))
	n.msgsDown.Add(int64(n.m))
	n.broadcasts.Inc()
	for i := range n.perSite {
		n.perSite[i].wordsDown.Add(words)
		n.perSite[i].msgsDown.Inc()
	}
	if n.sink != nil {
		n.sink.OnEvent(obs.Event{Kind: obs.EvThresholdRenegotiation, Site: -1, Words: words})
	}
	n.tracer.Instant(trace.OpRecv, -1, 0, words*int64(n.m))
}

// SampleSiteSpace records the instantaneous space usage (words) of one
// site, keeping the running maximum.
func (n *Network) SampleSiteSpace(words int64) { n.maxSiteWords.Observe(words) }

// SampleCoordSpace records the coordinator's instantaneous space usage.
func (n *Network) SampleCoordSpace(words int64) { n.coordWords.Observe(words) }

// Stats returns a copy of the accumulated counters. The values are read
// from the same atomics the metrics layer exports.
func (n *Network) Stats() Stats {
	return Stats{
		WordsUp:      n.wordsUp.Load(),
		WordsDown:    n.wordsDown.Load(),
		MsgsUp:       n.msgsUp.Load(),
		MsgsDown:     n.msgsDown.Load(),
		Broadcasts:   n.broadcasts.Load(),
		MaxSiteWords: n.maxSiteWords.Load(),
		CoordWords:   n.coordWords.Load(),
	}
}

// PerSiteStats returns the per-site communication breakdown, indexed by
// site.
func (n *Network) PerSiteStats() []SiteStats {
	out := make([]SiteStats, len(n.perSite))
	for i := range n.perSite {
		out[i] = SiteStats{
			WordsUp:   n.perSite[i].wordsUp.Load(),
			MsgsUp:    n.perSite[i].msgsUp.Load(),
			WordsDown: n.perSite[i].wordsDown.Load(),
			MsgsDown:  n.perSite[i].msgsDown.Load(),
		}
	}
	return out
}

// Reset zeroes all counters (space maxima and the per-site breakdown
// included).
func (n *Network) Reset() {
	n.wordsUp.Reset()
	n.wordsDown.Reset()
	n.msgsUp.Reset()
	n.msgsDown.Reset()
	n.broadcasts.Reset()
	n.maxSiteWords.Reset()
	n.coordWords.Reset()
	for i := range n.perSite {
		n.perSite[i].wordsUp.Reset()
		n.perSite[i].msgsUp.Reset()
		n.perSite[i].wordsDown.Reset()
		n.perSite[i].msgsDown.Reset()
	}
}

// RowWords is the cost of shipping one d-dimensional row with its
// timestamp and priority/flag, matching the paper's "each real number
// takes 1 word" accounting.
func RowWords(d int) int64 { return int64(d) + 2 }

// ScalarWords is the cost of one scalar update (value + timestamp).
const ScalarWords = 2

// DirectionWords is the cost of shipping one eigen-direction (λ, v) or one
// signed sketch row (row + flag + timestamp).
func DirectionWords(d int) int64 { return int64(d) + 2 }
