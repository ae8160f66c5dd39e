package wire

import (
	"math"
	"testing"

	"distwindow/internal/chaos"
	"distwindow/internal/core"
	"distwindow/internal/protocol"
	"distwindow/internal/stream"
	"distwindow/mat"
)

// inProcessSoak runs the soak workload through the in-process core
// trackers — one m-site matrix tracker and one SUM tracker, every update
// folded inline in emission order — and returns Ĉ, the sketch read through
// the tracker's published snapshot, and the SUM estimate.
func inProcessSoak(t *testing.T, proto string) ([]float64, *mat.Dense, float64) {
	t.Helper()
	cfg := core.Config{D: soakD, W: soakW, Eps: soakEps, Sites: soakSites}
	var tr protocol.OneWay
	var err error
	switch proto {
	case "da1":
		tr, err = core.NewDA1(cfg, protocol.NewNetwork(soakSites))
	case "da2":
		tr, err = core.NewDA2(cfg, protocol.NewNetwork(soakSites))
	case "da2c":
		tr, err = core.NewDA2C(cfg, protocol.NewNetwork(soakSites))
	default:
		t.Fatalf("unknown protocol %q", proto)
	}
	if err != nil {
		t.Fatal(err)
	}
	sum, err := core.NewSumTracker(cfg, protocol.NewNetwork(soakSites))
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range soakWorkload() {
		tr.Observe(i%soakSites, stream.Row{T: e.t, V: e.v})
		sum.ObserveWeight(i%soakSites, e.t, mat.VecNormSq(e.v))
	}
	// The networked run advances every site to soakRows in site order;
	// AdvanceTime would skip it (the last row already set the tracker's
	// clock), so drive the same per-site advance through the seam.
	apply := func(scale float64, v []float64) { tr.Apply(protocol.Update{Scale: scale, V: v}) }
	for i := 0; i < soakSites; i++ {
		tr.AdvanceSite(i, soakRows, apply)
	}
	sum.AdvanceAll(soakRows)
	snap := tr.SnapshotCoord(soakRows)
	chat, _ := snap.Gram()
	return chat.Data(), snap.Sketch(), sum.Estimate()
}

// TestChaosNetworkedMatchesInProcess is the differential test tying the
// networked sites to package core: the same seeded workload, run over
// loopback TCP into a Coordinator (fault-free and under the seeded chaos
// injector with a mid-stream crash and restore of site 0)
// and run in process through the core trackers, must give a bit-identical
// Ĉ for DA1, DA2 and DA2-C and a bit-identical SUM estimate. The soak
// harness serializes delivery in row order, so the coordinator applies
// updates in the in-process emission order.
func TestChaosNetworkedMatchesInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run TCP differential test")
	}
	for _, proto := range []string{"da1", "da2", "da2c"} {
		want, wantSketch, wantSum := inProcessSoak(t, proto)
		for _, faults := range []bool{false, true} {
			var inj *chaos.Injector
			if faults {
				inj = soakInjector()
			}
			got := runSoak(t, proto, inj, faults, true)
			for i := range want {
				if math.Float64bits(got.chat[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s chaos=%v: Ĉ[%d] = %v over the wire, %v in process",
						proto, faults, i, got.chat[i], want[i])
				}
			}
			// The two read paths must give one answer, not just the two Ĉs.
			if !bitEqual(got.sketch, wantSketch) {
				t.Fatalf("%s chaos=%v: coordinator Sketch %v over the wire, snapshot Sketch %v in process",
					proto, faults, got.sketch.Data(), wantSketch.Data())
			}
			if math.Float64bits(got.sum) != math.Float64bits(wantSum) {
				t.Fatalf("%s chaos=%v: SUM estimate %v over the wire, %v in process",
					proto, faults, got.sum, wantSum)
			}
			if got.cm.BadMsgs != 0 {
				t.Fatalf("%s chaos=%v: %d frames rejected", proto, faults, got.cm.BadMsgs)
			}
			if faults {
				if st := inj.Stats(); st.Drops+st.Cuts+st.Dups+st.ReadCuts+st.DialFails == 0 {
					t.Fatalf("%s: the injector drew no faults (stats %+v)", proto, st)
				}
			}
		}
	}
}

// bitEqual reports whether two matrices have the same shape and the same
// bits in every entry.
func bitEqual(a, b *mat.Dense) bool {
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		return false
	}
	for i, v := range a.Data() {
		if math.Float64bits(v) != math.Float64bits(b.Data()[i]) {
			return false
		}
	}
	return true
}
