// Package chaos injects seeded transport faults into the networked
// deployment, so the resilient wire path's delivery guarantees can be
// exercised — and regression-tested — without real network failures. An
// Injector wraps connections and dial functions with a single seeded
// fault stream that can:
//
//   - drop a write: the bytes are accepted (the caller sees success) but
//     never delivered, and the connection dies — the exact
//     "accepted-but-undelivered frame" failure that loses a delta on an
//     unacknowledged sender;
//   - cut a write mid-frame: a prefix is delivered, then the connection
//     dies, leaving the peer's decoder on a corrupt stream;
//   - duplicate a write: the same bytes are delivered twice, exercising
//     receiver-side dedup;
//   - delay a write;
//   - cut a read: the connection dies while the caller waits for bytes
//     (for the wire protocol: an ack is lost after the frame was applied,
//     forcing a replay the coordinator must dedup);
//   - fail dials, either independently (PDialFail) or as deterministic
//     partitions (every PartitionEvery-th dial starts a window of
//     PartitionDials refused attempts).
//
// Faults that kill a connection also close the underlying transport, so
// goroutines blocked on the other direction unblock promptly — a dead
// connection must look dead from both ends, as it does on a real network.
//
// All randomness flows from Config.Seed through one guarded rng, matching
// the repository's reproducibility convention. Decisions are consumed in
// call order; runs whose goroutines interleave I/O identically draw
// identical fault sequences. Delivery guarantees under test must hold for
// every interleaving anyway, so the seed pins the fault mix rather than
// the exact schedule.
package chaos

import (
	"errors"
	"io"
	"math/rand"
	"sync"
	"time"
)

// ErrInjected is the error returned by operations on a connection a fault
// has killed, and by refused dials. Match with errors.Is.
var ErrInjected = errors.New("chaos: injected fault")

// Config parameterizes an Injector. All probabilities are per-operation
// in [0, 1]; the zero value injects nothing (a transparent wrapper).
type Config struct {
	// Seed seeds the fault stream.
	Seed int64
	// PDrop is the probability a write is silently discarded and the
	// connection killed (accepted-but-undelivered loss).
	PDrop float64
	// PCut is the probability a write delivers only a prefix before the
	// connection is killed (mid-frame cut).
	PCut float64
	// PDup is the probability a write is delivered twice.
	PDup float64
	// PDelay is the probability a write sleeps up to MaxDelay first.
	PDelay float64
	// MaxDelay bounds injected write delays (default 1ms when PDelay > 0).
	MaxDelay time.Duration
	// PReadCut is the probability a read kills the connection instead of
	// delivering bytes.
	PReadCut float64
	// PDialFail is the probability a dial attempt is refused.
	PDialFail float64
	// PartitionEvery > 0 starts a partition on every PartitionEvery-th
	// dial attempt: the next PartitionDials attempts are refused.
	PartitionEvery int
	// PartitionDials is the length of each partition in refused dial
	// attempts (default 3 when PartitionEvery > 0).
	PartitionDials int
}

// Stats counts operations and injected faults.
type Stats struct {
	// Writes and Reads count operations that reached the wrapper.
	Writes, Reads int64
	// Drops, Cuts, Dups and Delays count injected write faults; ReadCuts
	// injected read faults.
	Drops, Cuts, Dups, Delays, ReadCuts int64
	// Dials counts dial attempts through wrapped dialers, DialFails the
	// refused ones (independent failures and partition windows together).
	Dials, DialFails int64
}

// Injector owns the seeded fault stream. Safe for concurrent use; one
// injector is typically shared by every connection of a run.
type Injector struct {
	cfg Config

	mu            sync.Mutex
	rng           *rand.Rand
	stats         Stats
	partitionLeft int
}

// New returns an injector for cfg.
func New(cfg Config) *Injector {
	if cfg.PDelay > 0 && cfg.MaxDelay <= 0 {
		cfg.MaxDelay = time.Millisecond
	}
	if cfg.PartitionEvery > 0 && cfg.PartitionDials <= 0 {
		cfg.PartitionDials = 3
	}
	return &Injector{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Stats snapshots the fault counters.
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

// roll consumes one decision from the fault stream.
func (in *Injector) roll(p float64) bool {
	if p <= 0 {
		return false
	}
	return in.rng.Float64() < p
}

// writeFault is the per-write decision.
type writeFault uint8

const (
	writeOK writeFault = iota
	writeDrop
	writeCut
	writeDup
)

// decideWrite draws the delay and fault decisions for one write in a
// fixed order, so the consumed stream length per write is deterministic.
func (in *Injector) decideWrite() (delay time.Duration, f writeFault) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.stats.Writes++
	if in.roll(in.cfg.PDelay) {
		delay = time.Duration(in.rng.Int63n(int64(in.cfg.MaxDelay) + 1))
		in.stats.Delays++
	}
	switch {
	case in.roll(in.cfg.PDrop):
		in.stats.Drops++
		f = writeDrop
	case in.roll(in.cfg.PCut):
		in.stats.Cuts++
		f = writeCut
	case in.roll(in.cfg.PDup):
		in.stats.Dups++
		f = writeDup
	}
	return delay, f
}

func (in *Injector) decideRead() (cut bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.stats.Reads++
	if in.roll(in.cfg.PReadCut) {
		in.stats.ReadCuts++
		return true
	}
	return false
}

func (in *Injector) decideDial() (refuse bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.stats.Dials++
	if in.partitionLeft > 0 {
		in.partitionLeft--
		in.stats.DialFails++
		return true
	}
	if in.cfg.PartitionEvery > 0 && in.stats.Dials%int64(in.cfg.PartitionEvery) == 0 {
		in.partitionLeft = in.cfg.PartitionDials - 1
		in.stats.DialFails++
		return true
	}
	if in.roll(in.cfg.PDialFail) {
		in.stats.DialFails++
		return true
	}
	return false
}

// Conn is a fault-injected bidirectional connection.
type Conn struct {
	in  *Injector
	rwc io.ReadWriteCloser

	mu   sync.Mutex
	dead bool
}

// kill marks the connection dead and closes the underlying transport so
// both directions fail promptly.
func (c *Conn) kill() {
	c.mu.Lock()
	already := c.dead
	c.dead = true
	c.mu.Unlock()
	if !already {
		c.rwc.Close()
	}
}

func (c *Conn) isDead() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dead
}

// Write delivers to the underlying transport unless a write fault
// intervenes: a drop, a mid-frame cut, a duplicate or a delay.
func (c *Conn) Write(p []byte) (int, error) {
	if c.isDead() {
		return 0, ErrInjected
	}
	delay, f := c.in.decideWrite()
	if delay > 0 {
		time.Sleep(delay)
	}
	switch f {
	case writeDrop:
		// Report success, deliver nothing, die: the caller believes the
		// frame left, but no receiver will ever see it.
		c.kill()
		return len(p), nil
	case writeCut:
		if len(p) > 1 {
			c.rwc.Write(p[:len(p)/2])
		}
		c.kill()
		return 0, ErrInjected
	case writeDup:
		if n, err := c.rwc.Write(p); err != nil {
			return n, err
		}
		return c.rwc.Write(p)
	}
	return c.rwc.Write(p)
}

// Close closes the underlying transport once.
func (c *Conn) Close() error {
	c.mu.Lock()
	already := c.dead
	c.dead = true
	c.mu.Unlock()
	if already {
		return nil
	}
	return c.rwc.Close()
}

// Read delivers from the underlying transport unless a read-cut fault
// kills the connection first.
func (c *Conn) Read(p []byte) (int, error) {
	if c.isDead() {
		return 0, ErrInjected
	}
	if c.in.decideRead() {
		c.kill()
		return 0, ErrInjected
	}
	return c.rwc.Read(p)
}

// Wrap returns a fault-injected wrapper around rwc drawing from the
// injector's fault stream.
func (in *Injector) Wrap(rwc io.ReadWriteCloser) *Conn {
	return &Conn{in: in, rwc: rwc}
}

// Dial wraps a dial function: attempts may be refused (independent
// failures and partitions), and successful dials return fault-injected
// connections.
func (in *Injector) Dial(dial func() (io.ReadWriteCloser, error)) func() (io.ReadWriteCloser, error) {
	return func() (io.ReadWriteCloser, error) {
		if in.decideDial() {
			return nil, ErrInjected
		}
		raw, err := dial()
		if err != nil {
			return nil, err
		}
		return in.Wrap(raw), nil
	}
}
