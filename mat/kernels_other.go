//go:build !amd64

package mat

// Off amd64 there are no assembly kernels: useAVX2 stays false and the Go
// loops in kernels.go run. The stubs below only satisfy the dispatchers.

func haveAVX2() bool { return false }

const noAVX2 = "mat: AVX2 kernel called off amd64"

func dotRowsAVX2(dst, x, a []float64, stride int)         { panic(noAVX2) }
func axpyAVX2(alpha float64, x, y []float64)              { panic(noAVX2) }
func axpyRowsAVX2(y, a, u []float64, alpha float64)       { panic(noAVX2) }
func addOuterAVX2(dst, v []float64, s float64)            { panic(noAVX2) }
func subRowsAVX2(a []float64, stride int, g, x []float64) { panic(noAVX2) }
func rotateRowsAVX2(p, q []float64, c, s float64)         { panic(noAVX2) }
func rank2AVX2(a []float64, stride int, v, p []float64)   { panic(noAVX2) }
func subAVX2(dst, a, b []float64)                         { panic(noAVX2) }
