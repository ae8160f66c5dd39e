package main

import (
	"sync"
	"time"
)

// The reference kernel is a fixed piece of dense floating-point work in the
// shape of the site step: the Gram of a 20×32 buffer and 32 power-iteration
// steps on it. It lives in the benchmark, so no change to the program can
// change it, and it allocates nothing.
//
// The shared 2-vCPU host this benchmark was tuned on changes the speed of
// each core by up to 2× for seconds to minutes at a time (another tenant's
// load on the same physical core), so a closed-loop rows/s moved by half
// between runs of one seed. Timing the kernel between measured chunks, on
// the cores the load ran on, gives the speed of the machine at that moment.
// A rate divided by it is in rows per kref: rows per the time one core
// takes to run the kernel 1,000 times. Over eight da1-seq runs whose raw
// rows/s spread 56% (middle half over median), rows per kref spread 5%.

const (
	refRows, refCols, refSteps = 20, 32, 32
	// refChunkIters is one probe's length per core, about 5 ms.
	refChunkIters = 60
)

// refKernel holds one core's kernel state.
type refKernel struct {
	a, g, x, y []float64
	sink       float64
}

func newRefKernel() *refKernel {
	k := &refKernel{
		a: make([]float64, refRows*refCols),
		g: make([]float64, refCols*refCols),
		x: make([]float64, refCols),
		y: make([]float64, refCols),
	}
	for i := range k.a {
		k.a[i] = float64((i*7919)%101)/101 - 0.5
	}
	return k
}

// once runs the kernel one time.
func (k *refKernel) once() {
	for i := 0; i < refCols; i++ {
		for j := 0; j < refCols; j++ {
			s := 0.0
			for r := 0; r < refRows; r++ {
				s += k.a[r*refCols+i] * k.a[r*refCols+j]
			}
			k.g[i*refCols+j] = s
		}
	}
	for i := range k.x {
		k.x[i] = 1
	}
	for step := 0; step < refSteps; step++ {
		norm := 0.0
		for i := 0; i < refCols; i++ {
			s := 0.0
			for j := 0; j < refCols; j++ {
				s += k.g[i*refCols+j] * k.x[j]
			}
			k.y[i] = s
			norm += s * s
		}
		for i := range k.x {
			k.x[i] = k.y[i] / (norm + 1)
		}
	}
	k.sink += k.x[0]
}

// refProbe times the kernel on a number of cores at once.
type refProbe struct {
	kernels []*refKernel
	speeds  []float64
}

// newRefProbe returns a probe over cores goroutines, one per core the
// measured load runs on.
func newRefProbe(cores int) *refProbe {
	p := &refProbe{speeds: make([]float64, cores)}
	for i := 0; i < cores; i++ {
		p.kernels = append(p.kernels, newRefKernel())
	}
	return p
}

// speed runs the kernel refChunkIters times on each core and returns the
// mean speed of one core in kernel runs per second. With one core it runs
// on the calling goroutine, so it times the core the caller's load just
// ran on.
func (p *refProbe) speed() float64 {
	if len(p.kernels) == 1 {
		p.speeds[0] = p.kernels[0].time(refChunkIters)
	} else {
		var wg sync.WaitGroup
		for i, k := range p.kernels {
			wg.Add(1)
			go func(i int, k *refKernel) {
				defer wg.Done()
				p.speeds[i] = k.time(refChunkIters)
			}(i, k)
		}
		wg.Wait()
	}
	sum := 0.0
	for _, s := range p.speeds {
		sum += s
	}
	return sum / float64(len(p.speeds))
}

// time runs the kernel n times and returns runs per second.
func (k *refKernel) time(n int) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		k.once()
	}
	return float64(n) / time.Since(t0).Seconds()
}

// perKref converts a rate per second into a rate per kref at a core speed
// of refSpeed kernel runs per second.
func perKref(perSecond, refSpeed float64) float64 { return perSecond / refSpeed * 1000 }
