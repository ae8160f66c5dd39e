package distwindow_test

// Runnable godoc examples for the public API.

import (
	"errors"
	"fmt"
	"math/rand"

	"distwindow"
	"distwindow/mat"
)

// ExampleNew tracks a two-site stream and audits the sketch.
func ExampleNew() {
	tr, err := distwindow.New(distwindow.Config{
		Protocol: distwindow.DA2,
		D:        4,
		W:        100,
		Eps:      0.1,
		Sites:    2,
	})
	if err != nil {
		panic(err)
	}
	// Two sites each observe one strong direction.
	for i := int64(1); i <= 200; i++ {
		if err := tr.TryObserve(0, distwindow.Row{T: i, V: []float64{3, 0, 0, 0}}); err != nil {
			panic(err)
		}
		if err := tr.TryObserve(1, distwindow.Row{T: i, V: []float64{0, 2, 0, 0}}); err != nil {
			panic(err)
		}
	}
	b := tr.Sketch()
	g := mat.Gram(b)
	fmt.Printf("energy along e1 > e2: %v\n", g.At(0, 0) > g.At(1, 1))
	fmt.Printf("one-way: %v\n", tr.Stats().WordsDown == 0)
	// Output:
	// energy along e1 > e2: true
	// one-way: true
}

// ExampleNewAggregate tracks the windowed sum of weights.
func ExampleNewAggregate() {
	at, err := distwindow.NewAggregate(distwindow.Config{W: 50, Eps: 0.1, Sites: 2})
	if err != nil {
		panic(err)
	}
	for i := int64(1); i <= 300; i++ {
		at.Observe(int(i)%2, i, 2.0)
	}
	// Window holds 50 items of weight 2 → sum ≈ 100.
	est := at.Estimate()
	fmt.Printf("within 20%% of 100: %v\n", est > 80 && est < 120)
	// Output:
	// within 20% of 100: true
}

// ExampleSketchPCA extracts an approximate PCA basis from a sketch.
func ExampleSketchPCA() {
	rng := rand.New(rand.NewSource(1))
	rows := make([][]float64, 200)
	for i := range rows {
		rows[i] = []float64{rng.NormFloat64() * 10, rng.NormFloat64()}
	}
	p := distwindow.SketchPCA(mat.FromRows(rows), 1)
	comp := p.Components.Row(0)
	fmt.Printf("dominant axis is e1: %v\n", comp[0]*comp[0] > 0.9)
	// Output:
	// dominant axis is e1: true
}

// ExampleNewFrequency finds windowed heavy hitters.
func ExampleNewFrequency() {
	ft, err := distwindow.NewFrequency(distwindow.Config{W: 1000, Eps: 0.05, Sites: 2})
	if err != nil {
		panic(err)
	}
	for i := int64(1); i <= 600; i++ {
		item := i % 10 // items 0..9 uniform
		if i%2 == 0 {
			item = 42 // item 42 takes half the stream
		}
		ft.Observe(int(i)%2, i, item)
	}
	top := ft.TopK(1)
	fmt.Printf("heavy hitter: %d\n", top[0].Item)
	// Output:
	// heavy hitter: 42
}

// ExampleNewAnomalyScorer scores points against a window sketch.
func ExampleNewAnomalyScorer() {
	// Window data lives on e1.
	rows := make([][]float64, 100)
	for i := range rows {
		rows[i] = []float64{float64(i%7 + 1), 0}
	}
	sc := distwindow.NewAnomalyScorer(mat.FromRows(rows), 1)
	fmt.Printf("normal score < 0.1: %v\n", sc.Score([]float64{5, 0}) < 0.1)
	fmt.Printf("anomaly score > 0.9: %v\n", sc.Score([]float64{0, 5}) > 0.9)
	// Output:
	// normal score < 0.1: true
	// anomaly score > 0.9: true
}

// ExampleTracker_ObserveBatch ingests with a reused batch buffer and
// distinguishes stale rows from caller bugs with errors.Is.
func ExampleTracker_ObserveBatch() {
	tr, err := distwindow.New(distwindow.Config{
		Protocol: distwindow.DA1, D: 2, W: 100, Eps: 0.1, Sites: 1,
	})
	if err != nil {
		panic(err)
	}
	// No layer retains row values, so one batch slice — including each
	// row's V backing array — can be refilled and resubmitted forever.
	batch := make([]distwindow.Row, 4)
	for i := range batch {
		batch[i].V = make([]float64, 2)
	}
	for chunk := 0; chunk < 3; chunk++ {
		for i := range batch {
			batch[i].T = int64(chunk*len(batch) + i)
			batch[i].V[0] = float64(i + 1) // refill in place
			batch[i].V[1] = 0
		}
		accepted, err := tr.ObserveBatch(0, batch)
		if err != nil {
			panic(err) // ErrSiteRange/ErrDimension: caller bug
		}
		fmt.Printf("chunk %d: accepted %d\n", chunk, accepted)
	}
	// A stale single row is an ErrStale, not a bug:
	err = tr.TryObserve(0, distwindow.Row{T: 3, V: []float64{1, 0}})
	fmt.Printf("stale: %v\n", errors.Is(err, distwindow.ErrStale))
	// Output:
	// chunk 0: accepted 4
	// chunk 1: accepted 4
	// chunk 2: accepted 4
	// stale: true
}
