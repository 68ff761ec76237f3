package ptshist

import "repro/internal/geom"

// kernel is the compacted form of a model that Estimate scans: only the
// points with nonzero weight, their coordinates row-major in one array,
// and their weights, both in ascending point index order. Trained models
// put most of their mass on few points (250 of 3200 on the 8-D Forest
// model), so dropping the zero rows and the per-point slice headers cuts
// both the work and the memory traffic of the scan.
//
// Balls, boxes and halfspaces of the model's dimension take a fast path
// that scans four rows at a time with independent accumulators, so the
// floating-point chains of neighbouring rows overlap instead of waiting
// on one another. Each row's own sum runs in the same order as the
// matching Contains method, so every membership decision — and with it
// every estimate — is bit-identical to Σ over w≠0 ∧ r.Contains(p). Every
// other query calls r.Contains on a view of each row.
type kernel struct {
	dim     int          // common row length; -1 if the rows differ
	coords  []float64    // the rows, concatenated
	weights []float64    // weights[i] belongs to rows[i]
	rows    []geom.Point // views into coords, one per nonzero point
}

// newKernel compacts the nonzero-weight points of a model.
func newKernel(pts []geom.Point, w []float64) *kernel {
	n, size := 0, 0
	for j, p := range pts {
		if w[j] != 0 {
			n++
			size += len(p)
		}
	}
	k := &kernel{
		dim:     -1,
		coords:  make([]float64, 0, size),
		weights: make([]float64, 0, n),
		rows:    make([]geom.Point, 0, n),
	}
	for j, p := range pts {
		if w[j] == 0 {
			continue
		}
		if len(k.rows) == 0 {
			k.dim = len(p)
		} else if len(p) != k.dim {
			k.dim = -1
		}
		off := len(k.coords)
		k.coords = append(k.coords, p...)
		k.rows = append(k.rows, geom.Point(k.coords[off:len(k.coords):len(k.coords)]))
		k.weights = append(k.weights, w[j])
	}
	return k
}

// estimate returns the unclamped weight sum of the rows inside r.
func (k *kernel) estimate(r geom.Range) float64 {
	switch q := r.(type) {
	case *geom.Ball:
		if len(q.Center) == k.dim {
			return k.ball(q.Center, q.Radius*q.Radius)
		}
	case geom.Ball:
		if len(q.Center) == k.dim {
			return k.ball(q.Center, q.Radius*q.Radius)
		}
	case *geom.Box:
		if len(q.Lo) == k.dim && len(q.Hi) == k.dim {
			return k.box(q.Lo, q.Hi)
		}
	case geom.Box:
		if len(q.Lo) == k.dim && len(q.Hi) == k.dim {
			return k.box(q.Lo, q.Hi)
		}
	case *geom.Halfspace:
		if len(q.A) == k.dim {
			return k.halfspace(q.A, q.B)
		}
	case geom.Halfspace:
		if len(q.A) == k.dim {
			return k.halfspace(q.A, q.B)
		}
	}
	s := 0.0
	for i, p := range k.rows {
		if r.Contains(p) {
			s += k.weights[i]
		}
	}
	return s
}

// ball sums the weights of the rows within squared distance r2 of c. It
// adds every coordinate's term, in Ball.Contains' order, and tests once
// at the end: the terms are nonnegative, so the partial sums only grow
// and the early exit of Contains cannot change its answer.
func (k *kernel) ball(c geom.Point, r2 float64) float64 {
	d, w := len(c), k.weights
	s, j := 0.0, 0
	for ; j+4 <= len(w); j += 4 {
		blk := k.coords[j*d : (j+4)*d]
		p0, p1, p2, p3 := blk[:d], blk[d:][:d], blk[2*d:][:d], blk[3*d:][:d]
		var a0, a1, a2, a3 float64
		for i, ci := range c {
			t0 := p0[i] - ci
			t1 := p1[i] - ci
			t2 := p2[i] - ci
			t3 := p3[i] - ci
			a0 += t0 * t0
			a1 += t1 * t1
			a2 += t2 * t2
			a3 += t3 * t3
		}
		if a0 <= r2 {
			s += w[j]
		}
		if a1 <= r2 {
			s += w[j+1]
		}
		if a2 <= r2 {
			s += w[j+2]
		}
		if a3 <= r2 {
			s += w[j+3]
		}
	}
	for ; j < len(w); j++ {
		p := k.coords[j*d : (j+1)*d]
		a := 0.0
		for i, ci := range c {
			t := p[i] - ci
			a += t * t
		}
		if a <= r2 {
			s += w[j]
		}
	}
	return s
}

// box sums the weights of the rows inside the closed box [lo, hi]. A row
// is outside when some coordinate x has x < lo or x > hi, the test of
// Box.Contains.
func (k *kernel) box(lo, hi geom.Point) float64 {
	d, w := len(lo), k.weights
	hi = hi[:d]
	s, j := 0.0, 0
	for ; j+4 <= len(w); j += 4 {
		blk := k.coords[j*d : (j+4)*d]
		p0, p1, p2, p3 := blk[:d], blk[d:][:d], blk[2*d:][:d], blk[3*d:][:d]
		out0, out1, out2, out3 := false, false, false, false
		for i, l := range lo {
			h := hi[i]
			out0 = out0 || p0[i] < l || p0[i] > h
			out1 = out1 || p1[i] < l || p1[i] > h
			out2 = out2 || p2[i] < l || p2[i] > h
			out3 = out3 || p3[i] < l || p3[i] > h
			if out0 && out1 && out2 && out3 {
				break
			}
		}
		if !out0 {
			s += w[j]
		}
		if !out1 {
			s += w[j+1]
		}
		if !out2 {
			s += w[j+2]
		}
		if !out3 {
			s += w[j+3]
		}
	}
	for ; j < len(w); j++ {
		p := k.coords[j*d : (j+1)*d]
		out := false
		for i, l := range lo {
			if p[i] < l || p[i] > hi[i] {
				out = true
				break
			}
		}
		if !out {
			s += w[j]
		}
	}
	return s
}

// halfspace sums the weights of the rows with a·p >= b, the dot product
// summed in Point.Dot's order.
func (k *kernel) halfspace(a geom.Point, b float64) float64 {
	d, w := len(a), k.weights
	s, j := 0.0, 0
	for ; j+4 <= len(w); j += 4 {
		blk := k.coords[j*d : (j+4)*d]
		p0, p1, p2, p3 := blk[:d], blk[d:][:d], blk[2*d:][:d], blk[3*d:][:d]
		var a0, a1, a2, a3 float64
		for i, ai := range a {
			a0 += ai * p0[i]
			a1 += ai * p1[i]
			a2 += ai * p2[i]
			a3 += ai * p3[i]
		}
		if a0 >= b {
			s += w[j]
		}
		if a1 >= b {
			s += w[j+1]
		}
		if a2 >= b {
			s += w[j+2]
		}
		if a3 >= b {
			s += w[j+3]
		}
	}
	for ; j < len(w); j++ {
		p := k.coords[j*d : (j+1)*d]
		acc := 0.0
		for i, ai := range a {
			acc += ai * p[i]
		}
		if acc >= b {
			s += w[j]
		}
	}
	return s
}
