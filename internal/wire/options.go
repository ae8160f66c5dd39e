package wire

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"time"

	"distwindow/internal/obs"
	"distwindow/internal/trace"
	"distwindow/internal/wire/codec"
)

// This file is the transport construction API: NewSender/Dial/DialFunc
// for the site side and the CoordinatorOption set for NewCoordinator,
// mirroring the facade's New(cfg, opts...) idiom.

// ErrOptionUnsupported reports an option that does not apply to the
// transport being built — e.g. WithResilience on NewSender, whose fixed
// connection cannot redial. Callers can errors.Is against it.
var ErrOptionUnsupported = errors.New("wire: option not supported by this transport")

// SenderOption configures a sender built by NewSender, Dial or DialFunc.
type SenderOption func(*senderOptions) error

type senderOptions struct {
	res       *ResilienceConfig
	resilient bool // the transport being built can honor WithResilience
}

// WithCodec is a no-op: every sender speaks binary v2, the only wire
// framing.
//
// Deprecated: drop the option; binary v2 is the only framing.
func WithCodec(codec.Codec) SenderOption {
	return func(*senderOptions) error { return nil }
}

// ResilienceConfig tunes the resilient delivery machinery; the zero
// value of each field keeps the corresponding default documented on
// ResilientSender.
type ResilienceConfig struct {
	// DialTimeout bounds each reconnection attempt (default 5s for Dial,
	// 1s for DialFunc).
	DialTimeout time.Duration
	// MaxBacklog bounds buffered unacknowledged messages (0 = unlimited).
	MaxBacklog int
	// MaxInflight is the per-connection flow-control window (0 keeps the
	// default of 64; negative = unlimited).
	MaxInflight int
	// BackoffBase and BackoffMax bound the exponential dial backoff.
	// Dial defaults to 50ms/5s; DialFunc leaves backoff disabled unless
	// BackoffBase is set.
	BackoffBase, BackoffMax time.Duration
	// JitterSeed seeds the dial-jitter RNG for reproducible runs (0 =
	// time-seeded for Dial, fixed seed 1 for DialFunc, as before).
	JitterSeed int64
	// DiscardPending lets Close drop undelivered messages silently.
	DiscardPending bool
}

// WithResilience tunes the reconnect/replay machinery of a sender built
// by Dial or DialFunc. NewSender rejects it with ErrOptionUnsupported: a
// sender over one fixed connection has nothing to redial.
func WithResilience(rc ResilienceConfig) SenderOption {
	return func(o *senderOptions) error {
		if !o.resilient {
			return fmt.Errorf("%w: WithResilience requires Dial or DialFunc", ErrOptionUnsupported)
		}
		o.res = &rc
		return nil
	}
}

func applySenderOptions(resilient bool, opts []SenderOption) (senderOptions, error) {
	o := senderOptions{resilient: resilient}
	for _, opt := range opts {
		if err := opt(&o); err != nil {
			return o, err
		}
	}
	return o, nil
}

// NewSender wraps one established connection in a sender: every Send is
// encoded in the binary v2 framing, unsequenced, and flushed through
// immediately. Delivery is as reliable as the connection — for
// reconnect-and-replay semantics use Dial or DialFunc instead.
func NewSender(conn io.WriteCloser, opts ...SenderOption) (*ConnSender, error) {
	if _, err := applySenderOptions(false, opts); err != nil {
		return nil, err
	}
	return &ConnSender{enc: codec.BinaryV2.NewEncoder(conn), conn: conn}, nil
}

// Dial returns a resilient sender that (re)dials addr over TCP,
// delivering exactly-once via the seq/ack/replay machinery, with backoff
// defaults of 50ms base and 5s cap and a time-seeded dial jitter. Option:
// WithResilience.
func Dial(addr string, opts ...SenderOption) (*ResilientSender, error) {
	o, err := applySenderOptions(true, opts)
	if err != nil {
		return nil, err
	}
	s := &ResilientSender{
		addr:        addr,
		DialTimeout: 5 * time.Second,
		BackoffBase: 50 * time.Millisecond,
		BackoffMax:  5 * time.Second,
		MaxInflight: DefaultMaxInflight,
		rng:         rand.New(rand.NewSource(time.Now().UnixNano())),
		now:         time.Now,
	}
	s.dial = func() (io.ReadWriteCloser, error) {
		return net.DialTimeout("tcp", addr, s.DialTimeout)
	}
	configureResilient(s, o)
	return s, nil
}

// DialFunc is Dial over an arbitrary dial seam — fault-injection
// wrappers (package chaos), in-process pipes, tests. The dialed
// connection must carry the coordinator's acks back, so it is an
// io.ReadWriteCloser. Backoff starts disabled (set
// ResilienceConfig.BackoffBase to enable it) and the dial jitter is
// seeded with 1.
func DialFunc(dial func() (io.ReadWriteCloser, error), opts ...SenderOption) (*ResilientSender, error) {
	o, err := applySenderOptions(true, opts)
	if err != nil {
		return nil, err
	}
	s := &ResilientSender{
		dial:        dial,
		DialTimeout: time.Second,
		MaxInflight: DefaultMaxInflight,
		rng:         rand.New(rand.NewSource(1)),
		now:         time.Now,
	}
	configureResilient(s, o)
	return s, nil
}

func configureResilient(s *ResilientSender, o senderOptions) {
	s.seqs = make(map[string]uint64)
	s.maxSent = make(map[string]uint64)
	if rc := o.res; rc != nil {
		if rc.DialTimeout > 0 {
			s.DialTimeout = rc.DialTimeout
		}
		if rc.MaxBacklog != 0 {
			s.MaxBacklog = rc.MaxBacklog
		}
		if rc.MaxInflight > 0 {
			s.MaxInflight = rc.MaxInflight
		} else if rc.MaxInflight < 0 {
			s.MaxInflight = 0
		}
		if rc.BackoffBase != 0 {
			s.BackoffBase = rc.BackoffBase
		}
		if rc.BackoffMax != 0 {
			s.BackoffMax = rc.BackoffMax
		}
		if rc.JitterSeed != 0 {
			s.rng = rand.New(rand.NewSource(rc.JitterSeed))
		}
		s.DiscardPending = rc.DiscardPending
	}
}

// CoordinatorOption configures a coordinator at construction. None of
// the options can fail, so NewCoordinator keeps its error-free
// signature; misuse (a nil dimension) still panics as before.
type CoordinatorOption func(*Coordinator)

// WithSink installs an event sink receiving one EvMsgReceived per
// applied message and one EvMsgRejected per malformed or corrupt frame
// (nil disables).
func WithSink(s obs.Sink) CoordinatorOption {
	return func(c *Coordinator) { c.sink = s }
}

// WithTracer installs a causal tracer (nil disables). Traced messages
// (Msg.Trace != 0) get an "apply" span linked under the sender's "send"
// span; sketch queries get root "query" spans, head-sampled at the
// tracer's rate. Only linked and root spans are recorded, so one tracer
// is safe across connection goroutines.
func WithTracer(tr *trace.Tracer) CoordinatorOption {
	return func(c *Coordinator) { c.tracer = tr }
}

// WithStaleAfter configures the per-site liveness bound (0 disables
// staleness detection).
func WithStaleAfter(d time.Duration) CoordinatorOption {
	return func(c *Coordinator) { c.staleAfter = d }
}

// WithTelemetry attaches a fleet telemetry view at construction; read it
// back with Fleet(). Equivalent to calling EnableTelemetry before
// serving.
func WithTelemetry() CoordinatorOption {
	return func(c *Coordinator) { c.EnableTelemetry() }
}
