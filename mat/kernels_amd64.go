package mat

// haveAVX2 reports whether the AVX2 kernels can run: CPUID must report
// OSXSAVE, AVX and AVX2, and XGETBV must show that the operating system
// saves the XMM and YMM register state.
func haveAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	const xmmYmmState = 1<<1 | 1<<2
	if xcr0, _ := xgetbv(); xcr0&xmmYmmState != xmmYmmState {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

//go:noescape
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func xgetbv() (eax, edx uint32)

// The AVX2 kernels, in kernels_amd64.s. Each returns the bits of the Go
// loop named after it (kernels.go) and assumes the bounds its dispatcher
// checks.

//go:noescape
func dotRowsAVX2(dst, x, a []float64, stride int)

//go:noescape
func axpyAVX2(alpha float64, x, y []float64)

//go:noescape
func axpyRowsAVX2(y, a, u []float64, alpha float64)

//go:noescape
func addOuterAVX2(dst, v []float64, s float64)

//go:noescape
func subRowsAVX2(a []float64, stride int, g, x []float64)

//go:noescape
func rotateRowsAVX2(p, q []float64, c, s float64)

//go:noescape
func rank2AVX2(a []float64, stride int, v, p []float64)

//go:noescape
func subAVX2(dst, a, b []float64)
