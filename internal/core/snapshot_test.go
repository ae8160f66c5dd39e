package core

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"testing"

	"distwindow/internal/protocol"
	"distwindow/internal/sampling"
	"distwindow/internal/stream"
	"distwindow/mat"
)

// gramOf reads a Gram tracker's Ĉ through its snapshot seam.
func gramOf(tr protocol.Snapshotter) *mat.Dense {
	g, _ := tr.SnapshotCoord(0).Gram()
	return g
}

// TestDA1SnapshotRoundTrip restores a DA1 tracker mid-stream from a gob
// round-trip and feeds it and the live tracker the same next 5,000 rows:
// both must ship the same words and end with a bit-identical Ĉ, which
// needs each site's kept mEH Gram restored bit for bit.
func TestDA1SnapshotRoundTrip(t *testing.T) {
	cfg := Config{D: 4, W: 300, Eps: 0.2, Sites: 2, Seed: 1}
	net := protocol.NewNetwork(2)
	da, _ := NewDA1(cfg, net)
	evs := genEvents(5600, 4, 2, 1)
	for _, e := range evs[:600] {
		da.Observe(e.Site, e.Row)
	}
	wordsAtSnapshot := net.Stats().TotalWords()
	// Round-trip through gob to prove the snapshot is fully serializable.
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(da.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var sn DA1Snapshot
	if err := gob.NewDecoder(&buf).Decode(&sn); err != nil {
		t.Fatal(err)
	}
	rnet := protocol.NewNetwork(2)
	restored, err := RestoreDA1(sn, rnet)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range evs[600:] {
		da.Observe(e.Site, e.Row)
		restored.Observe(e.Site, e.Row)
	}
	live, again := net.Stats().TotalWords()-wordsAtSnapshot, rnet.Stats().TotalWords()
	if live != again || live == 0 {
		t.Fatalf("after restore: live tracker shipped %d words, restored %d", live, again)
	}
	if !gramOf(da).Equal(gramOf(restored)) {
		t.Fatal("restored DA1 diverged: Ĉ not bit-identical")
	}
}

func TestDA2SnapshotRoundTrip(t *testing.T) {
	cfg := Config{D: 4, W: 250, Eps: 0.2, Sites: 2, Seed: 1}
	net := protocol.NewNetwork(2)
	da, _ := NewDA2C(cfg, net) // compress mode exercises e/resid fields
	evs := genEvents(1200, 4, 2, 2)
	for _, e := range evs[:700] {
		da.Observe(e.Site, e.Row)
	}
	restored, err := RestoreDA2(da.Snapshot(), protocol.NewNetwork(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range evs[700:] {
		da.Observe(e.Site, e.Row)
		restored.Observe(e.Site, e.Row)
	}
	if !da.Sketch().Equal(restored.Sketch()) {
		t.Fatal("restored DA2-C diverged")
	}
}

func TestSumSnapshotRoundTrip(t *testing.T) {
	cfg := Config{D: 1, W: 200, Eps: 0.1, Sites: 3}
	net := protocol.NewNetwork(3)
	st, _ := NewSumTracker(cfg, net)
	rng := rand.New(rand.NewSource(3))
	for i := int64(1); i <= 800; i++ {
		st.ObserveWeight(rng.Intn(3), i, 1+rng.Float64())
	}
	restored, err := RestoreSum(st.Snapshot(), protocol.NewNetwork(3))
	if err != nil {
		t.Fatal(err)
	}
	if restored.Estimate() != st.Estimate() {
		t.Fatal("restored estimate differs")
	}
	for i := int64(801); i <= 1200; i++ {
		w := 1 + rng.Float64()
		site := rng.Intn(3)
		st.ObserveWeight(site, i, w)
		restored.ObserveWeight(site, i, w)
	}
	if restored.Estimate() != st.Estimate() {
		t.Fatal("restored sum tracker diverged")
	}
}

func TestSnapshotRestoreValidation(t *testing.T) {
	net := protocol.NewNetwork(2)
	if _, err := RestoreDA1(DA1Snapshot{Cfg: Config{D: 0}}, net); err == nil {
		t.Fatal("want error for invalid config")
	}
	cfg := Config{D: 2, W: 10, Eps: 0.1, Sites: 2}
	if _, err := RestoreDA1(DA1Snapshot{Cfg: cfg}, net); err == nil {
		t.Fatal("want error for site-count mismatch")
	}
	if _, err := RestoreDA2(DA2Snapshot{Cfg: cfg}, net); err == nil {
		t.Fatal("want error for DA2 site-count mismatch")
	}
	if _, err := RestoreSum(SumSnapshot{Cfg: cfg}, net); err == nil {
		t.Fatal("want error for SUM site-count mismatch")
	}
}

func TestAccessors(t *testing.T) {
	net := protocol.NewNetwork(2)
	cfg := Config{D: 2, W: 100, Eps: 0.2, Sites: 2, Ell: 8, Seed: 1}
	da1, _ := NewDA1(cfg, net)
	if da1.Name() != "DA1" {
		t.Fatal("DA1 name")
	}
	da2, _ := NewDA2(cfg, net)
	if da2.Name() != "DA2" || da2.Stats() != net.Stats() {
		t.Fatal("DA2 accessors")
	}
	dc, _ := NewDecay(cfg, 0.9, net)
	if dc.Name() != "DECAY" || dc.Stats() != net.Stats() {
		t.Fatal("decay accessors")
	}
	if gramOf(dc).Rows() != 2 {
		t.Fatal("decay Gram shape")
	}
	if gramOf(da1).Rows() != 2 || gramOf(da2).Rows() != 2 {
		t.Fatal("Gram shape")
	}
	s, _ := NewSampler(cfg, SamplerOpts{Scheme: sampling.Priority{}}, net)
	if s.Ell() != 8 || s.Tau() != 0 || s.Stats() != net.Stats() {
		t.Fatal("sampler accessors")
	}
}

func TestPWRAdvanceTime(t *testing.T) {
	cfg := Config{D: 2, W: 50, Eps: 0.3, Sites: 2, Ell: 4, Seed: 1}
	net := protocol.NewNetwork(2)
	pwr, _ := NewPWR(cfg, net)
	for i := int64(1); i <= 100; i++ {
		pwr.Observe(int(i)%2, stream.Row{T: i, V: []float64{1, float64(i % 5)}})
	}
	pwr.AdvanceTime(10_000)
	if b := pwr.Sketch(); b.Rows() != 0 {
		t.Fatalf("PWR sketch %d rows after full expiry", b.Rows())
	}
	if pwr.Stats() != net.Stats() {
		t.Fatal("PWR stats accessor")
	}
}
