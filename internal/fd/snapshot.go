package fd

import (
	"fmt"

	"distwindow/mat"
)

// Snapshot is a serializable copy of a Sketch, for checkpoint/restore of
// long-running trackers. All fields are exported for encoding/gob.
type Snapshot struct {
	Ell, D int
	N      int
	Buf    []float64 // first N rows of the working buffer, row-major
	FrobSq float64
	Shrunk float64
}

// Snapshot captures the sketch's state.
func (s *Sketch) Snapshot() Snapshot {
	buf := make([]float64, s.n*s.d)
	copy(buf, s.buf.Data()[:s.n*s.d])
	return Snapshot{Ell: s.ell, D: s.d, N: s.n, Buf: buf, FrobSq: s.frobSq, Shrunk: s.shrunk}
}

// Restore rebuilds a sketch from a snapshot. Rows and ledgers must be
// finite and the ledgers non-negative.
func Restore(sn Snapshot) (*Sketch, error) {
	if sn.Ell < 1 || sn.D < 1 || sn.N < 0 || sn.N > 2*sn.Ell || len(sn.Buf) != sn.N*sn.D {
		return nil, fmt.Errorf("fd: invalid snapshot ℓ=%d d=%d n=%d buf=%d", sn.Ell, sn.D, sn.N, len(sn.Buf))
	}
	if !mat.AllFinite(sn.Buf...) || !mat.AllFinite(sn.FrobSq, sn.Shrunk) || sn.FrobSq < 0 || sn.Shrunk < 0 {
		return nil, fmt.Errorf("fd: snapshot rows or ledgers not finite and non-negative")
	}
	s := New(sn.Ell, sn.D)
	copy(s.buf.Data(), sn.Buf)
	s.n = sn.N
	s.frobSq = sn.FrobSq
	s.shrunk = sn.Shrunk
	return s, nil
}
