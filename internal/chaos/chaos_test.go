package chaos

import (
	"bytes"
	"errors"
	"io"
	"sync"
	"testing"
)

// memConn is a bidirectional in-memory transport recording what was
// actually delivered.
type memConn struct {
	mu     sync.Mutex
	buf    bytes.Buffer
	closed bool
}

func (m *memConn) Write(p []byte) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return 0, io.ErrClosedPipe
	}
	return m.buf.Write(p)
}

func (m *memConn) Read(p []byte) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return 0, io.ErrClosedPipe
	}
	return m.buf.Read(p)
}

func (m *memConn) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	return nil
}

func (m *memConn) delivered() []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]byte(nil), m.buf.Bytes()...)
}

func TestZeroConfigIsPassthrough(t *testing.T) {
	in := New(Config{Seed: 1})
	raw := &memConn{}
	c := in.Wrap(raw)
	for i := 0; i < 100; i++ {
		if n, err := c.Write([]byte{byte(i)}); n != 1 || err != nil {
			t.Fatalf("write %d: n=%d err=%v", i, n, err)
		}
	}
	got := raw.delivered()
	if len(got) != 100 {
		t.Fatalf("delivered %d bytes, want 100", len(got))
	}
	p := make([]byte, 4)
	if n, err := c.Read(p); n != 4 || err != nil {
		t.Fatalf("read: n=%d err=%v", n, err)
	}
	st := in.Stats()
	if st.Drops+st.Cuts+st.Dups+st.Delays+st.ReadCuts+st.DialFails != 0 {
		t.Fatalf("zero config injected faults: %+v", st)
	}
}

func TestDropReportsSuccessDeliversNothingAndKills(t *testing.T) {
	in := New(Config{Seed: 1, PDrop: 1})
	raw := &memConn{}
	c := in.Wrap(raw)
	n, err := c.Write([]byte("hello"))
	if n != 5 || err != nil {
		t.Fatalf("dropped write must report success: n=%d err=%v", n, err)
	}
	if got := raw.delivered(); len(got) != 0 {
		t.Fatalf("dropped write delivered %d bytes", len(got))
	}
	if !raw.closed {
		t.Fatal("drop must close the underlying transport")
	}
	if _, err := c.Write([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("write after death: %v", err)
	}
	if _, err := c.Read(make([]byte, 1)); !errors.Is(err, ErrInjected) {
		t.Fatalf("read after death: %v", err)
	}
	if st := in.Stats(); st.Drops != 1 {
		t.Fatalf("drops = %d, want 1", st.Drops)
	}
}

func TestCutDeliversPrefixAndErrors(t *testing.T) {
	in := New(Config{Seed: 1, PCut: 1})
	raw := &memConn{}
	c := in.Wrap(raw)
	payload := []byte("0123456789")
	if _, err := c.Write(payload); !errors.Is(err, ErrInjected) {
		t.Fatalf("cut write error: %v", err)
	}
	got := raw.delivered()
	if len(got) == 0 || len(got) >= len(payload) {
		t.Fatalf("cut delivered %d of %d bytes, want a proper prefix", len(got), len(payload))
	}
	if !bytes.Equal(got, payload[:len(got)]) {
		t.Fatal("cut delivered non-prefix bytes")
	}
	if !raw.closed {
		t.Fatal("cut must close the underlying transport")
	}
}

func TestDupDeliversTwice(t *testing.T) {
	in := New(Config{Seed: 1, PDup: 1})
	raw := &memConn{}
	c := in.Wrap(raw)
	if n, err := c.Write([]byte("ab")); n != 2 || err != nil {
		t.Fatalf("dup write: n=%d err=%v", n, err)
	}
	if got := raw.delivered(); !bytes.Equal(got, []byte("abab")) {
		t.Fatalf("dup delivered %q, want %q", got, "abab")
	}
}

func TestReadCutKillsConn(t *testing.T) {
	in := New(Config{Seed: 1, PReadCut: 1})
	raw := &memConn{}
	raw.buf.WriteString("pending")
	c := in.Wrap(raw)
	if _, err := c.Read(make([]byte, 4)); !errors.Is(err, ErrInjected) {
		t.Fatalf("read cut: %v", err)
	}
	if !raw.closed {
		t.Fatal("read cut must close the underlying transport")
	}
	if _, err := c.Write([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("write after read cut: %v", err)
	}
}

func TestDialPartition(t *testing.T) {
	in := New(Config{Seed: 1, PartitionEvery: 4, PartitionDials: 2})
	dial := in.Dial(func() (io.ReadWriteCloser, error) { return &memConn{}, nil })
	var outcomes []bool
	for i := 0; i < 12; i++ {
		c, err := dial()
		ok := err == nil
		outcomes = append(outcomes, ok)
		if ok {
			c.Close()
		} else if !errors.Is(err, ErrInjected) {
			t.Fatalf("dial %d: %v", i, err)
		}
	}
	// Dials 4, 8, 12 (1-indexed) open partitions of 2 refused attempts.
	want := []bool{true, true, true, false, false, true, true, false, false, true, true, false}
	for i := range want {
		if outcomes[i] != want[i] {
			t.Fatalf("dial outcomes = %v, want %v", outcomes, want)
		}
	}
	if st := in.Stats(); st.Dials != 12 || st.DialFails != 5 {
		t.Fatalf("stats = %+v, want 12 dials / 5 fails", st)
	}
}

func TestSeedDeterminism(t *testing.T) {
	run := func() Stats {
		in := New(Config{Seed: 42, PDrop: 0.2, PCut: 0.2, PDup: 0.2, PReadCut: 0.3, PDialFail: 0.3})
		dial := in.Dial(func() (io.ReadWriteCloser, error) { return &memConn{}, nil })
		for i := 0; i < 50; i++ {
			c, err := dial()
			if err != nil {
				continue
			}
			c.Write([]byte("frame"))
			c.Read(make([]byte, 1))
			c.Close()
		}
		return in.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed, different fault sequence:\n%+v\n%+v", a, b)
	}
	if a.Drops == 0 || a.Cuts == 0 || a.DialFails == 0 {
		t.Fatalf("expected a mix of faults, got %+v", a)
	}
}
