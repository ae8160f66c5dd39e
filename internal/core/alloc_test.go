package core

import (
	"math"
	"math/rand"
	"testing"

	"distwindow/internal/protocol"
	"distwindow/internal/stream"
)

// reportingCases are the trackers whose sites run the reporter: DA1, and
// Decay with a half-life of one window. block is the number of rows the
// report test measures. Decay sends no expiry traffic: a report ships
// about ε·F of new mass, and new mass arrives at (1−γ)·F a tick, so it
// reports at most (1−γ)/ε times a tick (about 0.028 in the report test)
// and needs twice DA1's rows to reach the same report floor.
var reportingCases = []struct {
	name  string
	build func(Config, *protocol.Network) (protocol.OneWay, error)
	block int
}{
	{"DA1", func(cfg Config, net *protocol.Network) (protocol.OneWay, error) { return NewDA1(cfg, net) }, 2000},
	{"Decay", func(cfg Config, net *protocol.Network) (protocol.OneWay, error) {
		return NewDecay(cfg, math.Pow(0.5, 1/float64(cfg.W)), net)
	}, 4000},
}

// TestDA1SiteStepSteadyStateAllocFree pins the per-row site step of every
// tracker that runs the reporter — the window update (for DA1 the
// histogram's, including bucket compaction and expiry; for Decay the
// decayed Gram's), churn bookkeeping, and the amortized spectral trigger
// test — at zero heap allocations per row once the structures have warmed
// up. Only an actual report (rare by construction: the trigger fires when
// Ĉ drifts by ε·F̂²) is allowed to allocate, and the steady stream below
// never trips it.
func TestDA1SiteStepSteadyStateAllocFree(t *testing.T) {
	for _, tc := range reportingCases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{D: 16, W: 2000, Eps: 0.2, Sites: 1}
			tr, err := tc.build(cfg, protocol.NewNetwork(cfg.Sites))
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(12))
			// A fixed pool of rows keeps the window distribution
			// stationary, so after warm-up Ĉ tracks C and the trigger
			// stays quiet while the spectral test still runs every churn
			// quantum.
			pool := make([][]float64, 8)
			for i := range pool {
				pool[i] = make([]float64, cfg.D)
				for j := range pool[i] {
					pool[i][j] = rng.NormFloat64()
				}
			}
			now := int64(0)
			feed := func() {
				now++
				tr.Observe(0, stream.Row{T: now, V: pool[now%int64(len(pool))]})
			}
			// Warm past several windows: histogram capacity, freelists,
			// workspace buffers, and the coordinator replica all reach
			// steady state.
			for i := 0; i < 3*int(cfg.W); i++ {
				feed()
			}
			// One measured run of 500 rows, so the count is exact: an
			// average over per-row runs rounds down to 0 whenever the
			// spectral test, which runs once per churn quantum, allocates.
			if n := testing.AllocsPerRun(1, func() {
				for i := 0; i < 500; i++ {
					feed()
				}
			}); n != 0 {
				t.Errorf("%s site step: %v allocs over 500 rows at steady state, want 0", tc.name, n)
			}
		})
	}
}

// TestDA1ReportStepAllocatesOnlyShippedDirections covers the report path
// the steady test above never reaches: at d=32, ε=0.05, a stream whose
// low-rank regime shifts every 100 rows keeps the trigger firing. Each
// shipped direction is copied by design (the parallel pipeline retains
// emitted slices); the window update, the trigger, the Gram difference
// and the eigendecomposition must allocate nothing, so over the measured
// block and at least 50 reports the allocations may not exceed the
// directions shipped.
func TestDA1ReportStepAllocatesOnlyShippedDirections(t *testing.T) {
	const (
		regime  = 100
		rank    = 2
		minRept = 50
	)
	for _, tc := range reportingCases {
		t.Run(tc.name, func(t *testing.T) {
			cfg, block := Config{D: 32, W: 500, Eps: 0.05, Sites: 1}, tc.block
			tr, err := tc.build(cfg, protocol.NewNetwork(cfg.Sites))
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(5))
			rows := make([][]float64, 3*int(cfg.W)+2*block)
			basis := make([][]float64, rank)
			for i := range rows {
				if i%regime == 0 {
					for k := range basis {
						basis[k] = make([]float64, cfg.D)
						for j := range basis[k] {
							basis[k][j] = rng.NormFloat64()
						}
					}
				}
				v := make([]float64, cfg.D)
				for _, b := range basis {
					c := rng.NormFloat64()
					for j := range v {
						v[j] += c * b[j]
					}
				}
				rows[i] = v
			}
			next, directions, reports := 0, 0, 0
			emit := func(float64, []float64) { directions++ }
			feed := func(n int) {
				for i := 0; i < n; i++ {
					before := directions
					tr.ObserveSite(0, stream.Row{T: int64(next + 1), V: rows[next]}, emit)
					next++
					if directions > before {
						reports++
					}
				}
			}
			feed(3 * int(cfg.W))
			// AllocsPerRun runs the block once to warm up and once
			// measured; the counters are reset per run, so they describe
			// the measured block.
			allocs := testing.AllocsPerRun(1, func() {
				directions, reports = 0, 0
				feed(block)
			})
			t.Logf("%d rows: %v allocs, %d directions in %d reports", block, allocs, directions, reports)
			if reports < minRept {
				t.Fatalf("%d reports in %d rows, want ≥ %d: the stream no longer exercises the report path", reports, block, minRept)
			}
			if allocs > float64(directions) {
				t.Errorf("%v allocs over %d rows, want ≤ %d (one per shipped direction)", allocs, block, directions)
			}
		})
	}
}
