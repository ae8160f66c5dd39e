package wire

import (
	"io"

	"distwindow/internal/obs"
	"distwindow/internal/obs/telemetry"
)

// This file glues the fleet telemetry plane (internal/obs/telemetry) to
// the wire: frames ride the existing site→coordinator connection as a
// dedicated message kind, best-effort and outside the seq/ack space, and
// the coordinator folds them into a Fleet whose degraded-site view is
// unified with the wire's own frame-level liveness.

// TeleFrame is the telemetry frame type carried by Telemetry messages.
type TeleFrame = telemetry.Frame

// EnableTelemetry attaches a fleet view to the coordinator: telemetry
// frames are recorded into it, its degraded-site detection folds in the
// coordinator's SiteStatuses liveness, and MetricsMux gains the
// Prometheus exposition and the /debug/fleet dashboard. Call before
// serving; returns the fleet for direct inspection (Snapshot, History).
// Calling again returns the existing fleet.
func (c *Coordinator) EnableTelemetry() *telemetry.Fleet {
	if c.fleet == nil {
		f := telemetry.NewFleet()
		f.SetDegradedSource(func() []int {
			var stale []int
			seen := make(map[int]bool)
			for _, st := range c.SiteStatuses() {
				if st.Stale && !seen[st.Site] {
					seen[st.Site] = true
					stale = append(stale, st.Site)
				}
			}
			return stale
		})
		c.fleet = f
	}
	return c.fleet
}

// Fleet returns the attached fleet view (nil until EnableTelemetry).
func (c *Coordinator) Fleet() *telemetry.Fleet { return c.fleet }

// WritePrometheusTo writes the coordinator's counters and, when telemetry
// is enabled, the fleet's per-(site, stream) series in the Prometheus
// text exposition format — the source MetricsMux serves for scrapers.
func (c *Coordinator) WritePrometheusTo(w io.Writer) error {
	pw := obs.NewPromWriter(w)
	m := c.Metrics()
	pw.Counter("distwindow_coord_msgs_total", "Estimate messages folded into the coordinator.", nil, float64(m.Msgs))
	pw.Counter("distwindow_coord_bytes_total", "Approximate payload bytes received.", nil, float64(m.Bytes))
	for _, kc := range []struct {
		kind string
		v    int64
	}{
		{"direction_add", m.DirectionAdds},
		{"direction_remove", m.DirectionRemoves},
		{"sum_delta", m.SumDeltas},
	} {
		pw.Counter("distwindow_coord_msgs_by_kind_total", "Estimate messages by kind.",
			[]obs.Label{{Name: "kind", Value: kc.kind}}, float64(kc.v))
	}
	pw.Counter("distwindow_coord_bad_msgs_total", "Messages rejected (dimension mismatch, unknown kind).", nil, float64(m.BadMsgs))
	pw.Counter("distwindow_coord_dup_msgs_total", "Sequenced frames dropped as already-consumed replays.", nil, float64(m.DupMsgs))
	pw.Counter("distwindow_coord_acks_total", "Acknowledgements written back to sites.", nil, float64(m.AckedMsgs))
	pw.Counter("distwindow_coord_telemetry_frames_total", "Telemetry frames received.", nil, float64(m.TelemetryFrames))
	pw.Gauge("distwindow_coord_sites", "Distinct site ids heard from.", nil, float64(m.SitesSeen))
	pw.Gauge("distwindow_coord_streams", "Distinct logical streams heard from.", nil, float64(m.Streams))
	pw.Gauge("distwindow_coord_stale_sites", "(site, stream) senders past the liveness bound.", nil, float64(m.StaleSites))
	pw.Gauge("distwindow_coord_conns", "Currently connected sites.", nil, float64(m.Conns))
	if c.fleet != nil {
		c.fleet.WritePrometheus(pw)
	}
	return pw.Err()
}

// BestEffortSender is implemented by transports that can ship a message
// outside the delivery guarantees — no sequence number, no backlog, no
// replay. ResilientSender implements it; telemetry uses it so a dead
// connection costs a dropped frame, never buffered telemetry competing
// with estimate traffic for the backlog.
type BestEffortSender interface {
	SendBestEffort(Msg) error
}

// TelemetrySender adapts a wire Sender into the telemetry publisher's
// send seam: each frame is wrapped in a Telemetry message stamped with
// the frame's site and stream. When out supports best-effort delivery
// the frame bypasses the seq/ack space entirely; otherwise it is sent as
// an unsequenced frame (Loopback, plain ConnSender).
func TelemetrySender(out Sender) func(telemetry.Frame) error {
	return func(fr telemetry.Frame) error {
		m := Msg{
			Site:     fr.Site,
			Kind:     Telemetry,
			StreamID: fr.Stream,
			Tele:     &fr,
		}
		if be, ok := out.(BestEffortSender); ok {
			return be.SendBestEffort(m)
		}
		return out.Send(m)
	}
}

// CollectSite builds a telemetry frame source for one protocol site
// behind a resilient sender: rows from the caller's counter (a closure
// over the ingest loop's row count) and delivery counters from the
// sender. Wire sites do not track word counts, so Words stays 0 here;
// facade deployments get it from Tracker.TelemetryFrame instead.
//
// It is a convenience for the common distrun/sketchd shape; deployments
// with richer sources (auditors, latency histograms) wrap it and fill
// the extra fields:
//
//	base := wire.CollectSite(id, stream, proto, rows.Load, rs)
//	collect := func() telemetry.Frame {
//		fr := base()
//		fr.Eps, fr.Headroom = eps, aud.Metrics().Headroom
//		return fr
//	}
func CollectSite(site int, stream, proto string, rows func() int64, rs *ResilientSender) func() telemetry.Frame {
	return func() telemetry.Frame {
		fr := telemetry.Frame{
			Site:   site,
			Stream: stream,
			Proto:  proto,
		}
		if rows != nil {
			fr.Rows = rows()
		}
		if rs != nil {
			m := rs.Metrics()
			fr.Msgs = m.Msgs
			fr.Replays = m.Replayed
			fr.Acked = m.Acked
			fr.Backlog = m.Pending
			fr.Dials = m.DialAttempts
			fr.DialFails = m.DialFailures
		}
		return fr
	}
}
