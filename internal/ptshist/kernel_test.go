package ptshist

import (
	"math"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/rng"
	"repro/internal/workload"
)

// scanEstimate is the reference the compacted kernel must reproduce bit
// for bit: Equation 7 as a plain scan over every point.
func scanEstimate(m *Model, r geom.Range) float64 {
	s := 0.0
	for j, p := range m.Points {
		if m.Weights[j] != 0 && r.Contains(p) {
			s += m.Weights[j]
		}
	}
	return core.Clamp01(s)
}

// checkBits fails unless Estimate and the scan agree bit for bit on q.
func checkBits(t *testing.T, m *Model, q geom.Range) {
	t.Helper()
	got, want := m.Estimate(q), scanEstimate(m, q)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%v: kernel %v (%#x), scan %v (%#x)", q, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// pointerForm returns the pooled pointer form of a ball, box or
// halfspace, the form the wire decoders hand to the model.
func pointerForm(q geom.Range) geom.Range {
	switch v := q.(type) {
	case geom.Ball:
		return &v
	case geom.Box:
		return &v
	case geom.Halfspace:
		return &v
	}
	return q
}

// TestKernelMatchesScanForest8D trains PTSHIST on 8-D Forest balls, the
// model shape the serving benchmark uses, and compares every held-out
// ball, box and halfspace in value and pointer form.
func TestKernelMatchesScanForest8D(t *testing.T) {
	ds := dataset.Forest(6000, 1).NumericProjection(8)
	g := workload.NewGenerator(ds, 3)
	ballSpec := workload.Spec{Class: workload.Ball, Centers: workload.DataDriven}
	train, test := g.TrainTest(ballSpec, 200, 1000)
	m, err := New(8, 4*len(train), 5).TrainHist(train)
	if err != nil {
		t.Fatal(err)
	}
	nz := 0
	for _, w := range m.Weights {
		if w != 0 {
			nz++
		}
	}
	if nz == 0 || nz == len(m.Weights) {
		t.Fatalf("%d of %d weights nonzero: the test needs a sparse model", nz, len(m.Weights))
	}
	test = append(test, g.Generate(workload.Spec{Class: workload.OrthogonalRange, Centers: workload.DataDriven}, 300)...)
	test = append(test, g.Generate(workload.Spec{Class: workload.Halfspace, Centers: workload.Random}, 300)...)
	for _, z := range test {
		checkBits(t, m, z.R)
		checkBits(t, m, pointerForm(z.R))
	}
}

// TestKernelEdgeCases covers what the fast paths must leave to the
// generic path or handle exactly: zero and negative-zero weights, point
// counts that are not a multiple of four, boundary points, other range
// classes, queries of another dimension, and ragged or empty models.
func TestKernelEdgeCases(t *testing.T) {
	m := &Model{
		Points: []geom.Point{
			{0.5, 0.5}, {1, 0.5}, {0.5, 1}, {0, 0}, {0.25, 0.75}, {0.5, 0}, {1, 1},
		},
		Weights: []float64{0.25, 0, 0.125, math.Copysign(0, -1), 0.375, 0.125, 0.125},
	}
	queries := []geom.Range{
		geom.Ball{Center: geom.Point{0.5, 0.5}, Radius: 0.5},  // {1,0.5} and {0.5,1} on the sphere
		geom.Ball{Center: geom.Point{0.5, 0.5}, Radius: 0},    // the center only
		geom.Ball{Center: geom.Point{0.5, 0.5}, Radius: -0.5}, // r² = 0.25 as in Contains
		geom.NewBox(geom.Point{0.5, 0.5}, geom.Point{1, 1}),   // points on faces and corners
		geom.NewBox(geom.Point{0.6, 0}, geom.Point{0.4, 1}),   // empty box
		geom.Halfspace{A: geom.Point{1, 1}, B: 1.5},           // {1,0.5}, {0.5,1} on the plane
		geom.Halfspace{A: geom.Point{-1, 0}, B: -0.5},
		geom.NewLpBall(geom.Point{0.5, 0.5}, 0.5, 1),
		geom.Ball{Center: geom.Point{0.5, 0.5, 0}, Radius: 0.6}, // longer than the points
		geom.UnitCube(2),
	}
	for _, q := range queries {
		checkBits(t, m, q)
		checkBits(t, m, pointerForm(q))
	}

	// Every point exactly on the boundary, nine of them so each of the
	// four lanes and the tail sees a tie.
	circle := &Model{Points: []geom.Point{
		{3, 4}, {4, 3}, {5, 0}, {0, 5}, {-3, 4}, {-4, 3}, {-5, 0}, {0, -5}, {3, -4},
	}}
	line := &Model{}
	for k := 0; k <= 8; k++ {
		line.Points = append(line.Points, geom.Point{float64(k) / 8, 1 - float64(k)/8})
	}
	for _, bm := range []*Model{circle, line} {
		for range bm.Points {
			bm.Weights = append(bm.Weights, 1.0/9)
		}
		for _, q := range []geom.Range{
			geom.Ball{Center: geom.Point{0, 0}, Radius: 5},
			geom.Halfspace{A: geom.Point{1, 1}, B: 1},
			geom.Halfspace{A: geom.Point{-1, -1}, B: -1},
			geom.NewBox(geom.Point{0, 0}, geom.Point{1, 1}),
			geom.NewBox(geom.Point{-5, -5}, geom.Point{5, 5}),
		} {
			checkBits(t, bm, q)
			checkBits(t, bm, pointerForm(q))
		}
	}

	ragged := &Model{Points: []geom.Point{{0.5}, {0.5, 0.5}}, Weights: []float64{0.5, 0.5}}
	checkBits(t, ragged, geom.Ball{Center: geom.Point{0.5, 0.5}, Radius: 0.1})

	empty := &Model{}
	checkBits(t, empty, geom.Ball{Center: geom.Point{0.5}, Radius: 1})
	zeros := &Model{Points: []geom.Point{{0.5}}, Weights: []float64{0}}
	checkBits(t, zeros, geom.Ball{Center: geom.Point{0.5}, Radius: 1})
}

// TestAccelerateCompactsOnce checks that Accelerate builds the kernel,
// that it holds only the nonzero-weight rows, and that a later call keeps
// the same kernel.
func TestAccelerateCompactsOnce(t *testing.T) {
	m := &Model{
		Points:  []geom.Point{{0.1, 0.2}, {0.3, 0.4}, {0.5, 0.6}},
		Weights: []float64{0.5, 0, 0.5},
	}
	if !core.Accelerate(m) {
		t.Fatal("ptshist.Model is not core.Accelerable")
	}
	k := m.kern.Load()
	if k == nil {
		t.Fatal("Accelerate built no kernel")
	}
	if k.dim != 2 || len(k.weights) != 2 || len(k.coords) != 4 || k.coords[2] != 0.5 {
		t.Fatalf("kernel dim %d, %d weights, coords %v", k.dim, len(k.weights), k.coords)
	}
	m.Accelerate()
	if m.kern.Load() != k {
		t.Fatal("second Accelerate replaced the kernel")
	}
}

// TestConcurrentFirstEstimate races many first estimates on a fresh model
// against Accelerate: whichever build wins, every result must equal the
// scan bit for bit.
func TestConcurrentFirstEstimate(t *testing.T) {
	proto := randomModel(rng.New(9), 8, 403, 3)
	queries := make([]geom.Range, 64)
	r := rng.New(10)
	for i := range queries {
		c := make(geom.Point, 8)
		for d := range c {
			c[d] = r.Float64()
		}
		queries[i] = &geom.Ball{Center: c, Radius: r.Float64()}
	}
	want := make([]uint64, len(queries))
	for i, q := range queries {
		want[i] = math.Float64bits(scanEstimate(proto, q))
	}
	const workers = 16
	for round := 0; round < 20; round++ {
		m := &Model{Points: proto.Points, Weights: proto.Weights}
		var wg sync.WaitGroup
		start := make(chan struct{})
		bad := make(chan int, workers) // each worker reports at most once
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				if g == 0 {
					m.Accelerate()
				}
				for i := range queries {
					qi := (i + g) % len(queries)
					if math.Float64bits(m.Estimate(queries[qi])) != want[qi] {
						bad <- qi
						return
					}
				}
			}(g)
		}
		close(start)
		wg.Wait()
		close(bad)
		for qi := range bad {
			t.Fatalf("round %d: query %d differs from the scan", round, qi)
		}
	}
}

// randomModel draws n points in [0,1]^dim. With grid > 0 the coordinates
// snap to multiples of 1/grid, so queries built on the same grid put
// points exactly on spheres, faces and hyperplanes. Every third weight is
// zero.
func randomModel(r *rng.RNG, dim, n, grid int) *Model {
	m := &Model{Points: make([]geom.Point, n), Weights: make([]float64, n)}
	for j := range m.Points {
		m.Points[j] = randomPoint(r, dim, grid)
		if j%3 != 1 {
			m.Weights[j] = r.Float64() / float64(n)
		}
	}
	return m
}

func randomPoint(r *rng.RNG, dim, grid int) geom.Point {
	p := make(geom.Point, dim)
	for i := range p {
		p[i] = snap(r.Float64(), grid)
	}
	return p
}

func snap(v float64, grid int) float64 {
	if grid <= 0 {
		return v
	}
	return math.Floor(v*float64(grid)) / float64(grid)
}

// FuzzPtsHistEstimate compares the kernel with the scan on random models
// and queries: balls, boxes and halfspaces in value and pointer form, in
// 1–10 dimensions, with zero weights, point counts off a multiple of
// four, and, on a coordinate grid, points exactly on the boundary.
func FuzzPtsHistEstimate(f *testing.F) {
	f.Add(uint64(1), uint8(8), uint16(250), uint8(0), uint8(0))
	f.Add(uint64(2), uint8(2), uint16(7), uint8(2), uint8(4))
	f.Add(uint64(3), uint8(3), uint16(13), uint8(4), uint8(2))
	f.Add(uint64(4), uint8(10), uint16(41), uint8(3), uint8(8))
	f.Add(uint64(5), uint8(1), uint16(3), uint8(5), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, dim uint8, n uint16, kind uint8, grid uint8) {
		d := 1 + int(dim)%10
		g := int(grid) % 9
		r := rng.New(seed)
		m := randomModel(r, d, int(n)%600, g)
		var q geom.Range
		switch kind % 3 {
		case 0:
			q = geom.Ball{Center: randomPoint(r, d, g), Radius: snap(r.Float64(), g)}
		case 1:
			lo, hi := randomPoint(r, d, g), randomPoint(r, d, g)
			for i := range lo {
				if lo[i] > hi[i] && kind%7 != 0 {
					lo[i], hi[i] = hi[i], lo[i]
				}
			}
			q = geom.Box{Lo: lo, Hi: hi}
		default:
			a := make(geom.Point, d)
			for i := range a {
				a[i] = math.Floor(r.Float64()*7) - 3
			}
			b := r.Float64()
			if len(m.Points) > 0 {
				b = a.Dot(m.Points[r.IntN(len(m.Points))]) // one point on the plane
			}
			q = geom.Halfspace{A: a, B: b}
		}
		if kind&8 != 0 {
			q = pointerForm(q)
		}
		checkBits(t, m, q)
	})
}
