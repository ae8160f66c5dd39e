package mat

// The inner loops of the solvers and of the Gram updates live here, each
// behind a dispatcher that runs one of two implementations:
//
//   - the portable Go loop (the ...Go functions), compiled on every
//     GOARCH;
//   - on amd64 CPUs with AVX2, an assembly kernel (the ...AVX2 functions
//     in kernels_amd64.s) that returns the bits of the Go loop.
//
// The kernels use separate VMULPD and VADDPD/VSUBPD, never FMA, and
// keep every output element's operations in the Go loop's order. Each
// lane therefore rounds exactly like the scalar statement it stands in
// for. Where the Go loop sums into four accumulators (Dot's s0…s3), those
// are the four lanes of one YMM register, reduced as (s0+s1)+(s2+s3)
// before the scalar tail. Only the payload and sign of a NaN may differ;
// a NaN appears where the Go loop has one.
//
// The dispatchers check the bounds the kernels rely on, so an assembly
// kernel never reads or writes outside its slices.

// useAVX2 selects the assembly kernels. It is set once, at package
// initialization, from the CPU's feature flags (haveAVX2); tests flip it
// to compare the two paths.
var useAVX2 = haveAVX2()

// dotGo is Dot's loop: four interleaved accumulators, reduced as
// (s0+s1)+(s2+s3), then the tail in order.
func dotGo(x, y []float64) float64 {
	y = y[:len(x)]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(x); i += 4 {
		x4 := x[i : i+4 : i+4]
		y4 := y[i : i+4 : i+4]
		s0 += x4[0] * y4[0]
		s1 += x4[1] * y4[1]
		s2 += x4[2] * y4[2]
		s3 += x4[3] * y4[3]
	}
	s := (s0 + s1) + (s2 + s3)
	for ; i < len(x); i++ {
		s += x[i] * y[i]
	}
	return s
}

// dotRows sets dst[r] = Dot(a[r·stride : r·stride+len(x)], x) for every
// r < len(dst). The kernel reads x once for four rows.
func dotRows(dst, x, a []float64, stride int) {
	if len(dst) == 0 {
		return
	}
	_ = a[:(len(dst)-1)*stride+len(x)]
	if useAVX2 {
		dotRowsAVX2(dst, x, a, stride)
		return
	}
	dotRowsGo(dst, x, a, stride)
}

func dotRowsGo(dst, x, a []float64, stride int) {
	for r := range dst {
		dst[r] = dotGo(a[r*stride:r*stride+len(x)], x)
	}
}

// axpyKernel sets y[:len(x)] += a*x; y may be longer than x.
func axpyKernel(a float64, x, y []float64) {
	y = y[:len(x)]
	if useAVX2 {
		axpyAVX2(a, x, y)
		return
	}
	axpyGo(a, x, y)
}

func axpyGo(a float64, x, y []float64) {
	i := 0
	for ; i+4 <= len(x); i += 4 {
		x4 := x[i : i+4 : i+4]
		y4 := y[i : i+4 : i+4]
		y4[0] += a * x4[0]
		y4[1] += a * x4[1]
		y4[2] += a * x4[2]
		y4[3] += a * x4[3]
	}
	for ; i < len(x); i++ {
		y[i] += a * x[i]
	}
}

// axpyRows adds (alpha·u[i])·a[i·n : (i+1)·n] to y, n = len(y), for each
// i < len(u) in order, skipping the rows whose u[i] is zero: one row of
// Vᵀ = Σ⁺·Uᵀ·A in thinSVDInto, with u a column of U.
func axpyRows(y, a, u []float64, alpha float64) {
	_ = a[:len(u)*len(y)]
	if useAVX2 {
		axpyRowsAVX2(y, a, u, alpha)
		return
	}
	axpyRowsGo(y, a, u, alpha)
}

func axpyRowsGo(y, a, u []float64, alpha float64) {
	n := len(y)
	for i, ui := range u {
		if ui == 0 {
			continue
		}
		axpyGo(alpha*ui, a[i*n:(i+1)*n], y)
	}
}

// addOuter adds s·vᵀv into the row-major d×d buffer dst, one row
// dst_i += (s·v_i)·v at a time.
//
// Dense data is the common case in the sketch hot path, so there is no
// zero-skip branch here. Sparse rows take the nnz²-cost path in
// sparse.go instead.
func addOuter(dst []float64, v []float64, s float64) {
	_ = dst[:len(v)*len(v)]
	if useAVX2 {
		addOuterAVX2(dst, v, s)
		return
	}
	addOuterGo(dst, v, s)
}

func addOuterGo(dst []float64, v []float64, s float64) {
	d := len(v)
	for i, vi := range v {
		axpyGo(s*vi, v, dst[i*d:i*d+d])
	}
}

// subRows sets a[r·stride+k] −= g[r]·x[k] for every r < len(g) and
// k < len(x).
func subRows(a []float64, stride int, g, x []float64) {
	if len(g) == 0 {
		return
	}
	_ = a[:(len(g)-1)*stride+len(x)]
	if useAVX2 {
		subRowsAVX2(a, stride, g, x)
		return
	}
	subRowsGo(a, stride, g, x)
}

func subRowsGo(a []float64, stride int, g, x []float64) {
	for r, gr := range g {
		row := a[r*stride : r*stride+len(x)]
		for k := range row {
			row[k] -= gr * x[k]
		}
	}
}

// rotateRows applies [c -s; s c] to the row pair (p, q).
func rotateRows(p, q []float64, c, s float64) {
	q = q[:len(p)]
	if useAVX2 {
		rotateRowsAVX2(p, q, c, s)
		return
	}
	rotateRowsGo(p, q, c, s)
}

func rotateRowsGo(p, q []float64, c, s float64) {
	q = q[:len(p)] // lets the compiler drop bounds checks
	for j := range p {
		pj, qj := p[j], q[j]
		p[j] = c*pj - s*qj
		q[j] = s*pj + c*qj
	}
}

// rank2Update is householderReduce's update S ← S − v·pᵀ − p·vᵀ of the
// upper triangle of the leading m×m block of the row-major a, m = len(v):
// row j, from its diagonal on, loses v[j]·p[j:m] + p[j]·v[j:m].
func rank2Update(a []float64, stride int, v, p []float64) {
	m := len(v)
	if m == 0 {
		return
	}
	p = p[:m]
	_ = a[:(m-1)*stride+m]
	if useAVX2 {
		rank2AVX2(a, stride, v, p)
		return
	}
	rank2Go(a, stride, v, p)
}

func rank2Go(a []float64, stride int, v, p []float64) {
	m := len(v)
	for j := 0; j < m; j++ {
		f, g := v[j], p[j]
		row := a[j*stride+j : j*stride+m]
		vj, pj := v[j:m], p[j:m]
		vj, pj = vj[:len(row)], pj[:len(row)]
		for k := range row {
			row[k] -= f*pj[k] + g*vj[k]
		}
	}
}

// subVec sets dst = a − b elementwise; dst may alias a or b.
func subVec(dst, a, b []float64) {
	dst, b = dst[:len(a)], b[:len(a)]
	if useAVX2 {
		subAVX2(dst, a, b)
		return
	}
	subGo(dst, a, b)
}

func subGo(dst, a, b []float64) {
	b = b[:len(a)]
	for i, v := range a {
		dst[i] = v - b[i]
	}
}
