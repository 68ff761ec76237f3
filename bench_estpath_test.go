package selest

// Estimate hot-path benchmarks (DESIGN.md §10): the three serving kernels
// — flat O(m) scan, BVH index, BVH behind the serving cache — at growing
// bucket counts, the PTSHIST point scan against its compacted kernel,
// plus end-to-end batched /v1/estimate throughput by worker count.
// scripts/bench.sh folds these into BENCH_<n>.json with intra-run
// speedups (flat kernel, PTSHIST scan and single-worker serving as
// baselines).

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/bvh"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/hist"
	"repro/internal/ptshist"
	"repro/internal/rng"
	"repro/internal/serve"
)

// estPathModel builds a k×k grid histogram (m = k² buckets) with
// deterministic simplex weights. Training a 16k-bucket model would
// dominate the benchmark run without changing what Estimate measures, so
// the serving model is constructed directly.
func estPathModel(m int) *hist.Model {
	k := int(math.Round(math.Sqrt(float64(m))))
	if k*k != m {
		panic("estPathModel: m must be a perfect square")
	}
	buckets := make([]geom.Box, 0, m)
	weights := make([]float64, 0, m)
	total := 0.0
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			buckets = append(buckets, geom.NewBox(
				geom.Point{float64(i) / float64(k), float64(j) / float64(k)},
				geom.Point{float64(i+1) / float64(k), float64(j+1) / float64(k)},
			))
			w := float64((i*31+j*17)%97 + 1)
			weights = append(weights, w)
			total += w
		}
	}
	for i := range weights {
		weights[i] /= total
	}
	return &hist.Model{Buckets: buckets, Weights: weights}
}

// estPathQueries returns n deterministic random boxes over [0,1]².
func estPathQueries(n int) []geom.Box {
	r := rng.New(7)
	qs := make([]geom.Box, n)
	for i := range qs {
		c := geom.Point{r.Float64(), r.Float64()}
		qs[i] = geom.BoxFromCenter(c, []float64{0.02 + 0.3*r.Float64(), 0.02 + 0.3*r.Float64()})
	}
	return qs
}

// estPathPtsModel builds an 8-D PTSHIST model of 3200 points with about
// 8% nonzero weights — the shape of the model trained on 8-D Forest balls
// (250 of 3200 nonzero) — constructed directly so the benchmark does not
// pay for training.
func estPathPtsModel() *ptshist.Model {
	const n, dim = 3200, 8
	r := rng.New(11)
	m := &ptshist.Model{Points: make([]geom.Point, n), Weights: make([]float64, n)}
	total := 0.0
	for j := range m.Points {
		p := make(geom.Point, dim)
		for i := range p {
			p[i] = r.Float64()
		}
		m.Points[j] = p
		if r.Float64() < 0.08 {
			m.Weights[j] = r.Float64()
			total += m.Weights[j]
		}
	}
	for j := range m.Weights {
		m.Weights[j] /= total
	}
	return m
}

// estPathBalls returns n deterministic 8-D balls with centers in [0,1]^8
// and radii in [0,1], the query shape of the paper's ball workloads.
func estPathBalls(n int) []geom.Range {
	r := rng.New(13)
	qs := make([]geom.Range, n)
	for i := range qs {
		c := make(geom.Point, 8)
		for d := range c {
			c[d] = r.Float64()
		}
		qs[i] = &geom.Ball{Center: c, Radius: r.Float64()}
	}
	return qs
}

// ptsSink keeps the PTSHIST arms' results live so the compiler cannot
// drop the measured calls.
var ptsSink float64

// ptsScan is Equation 7 as a plain scan over every point, the estimate
// PTSHIST's compacted kernel must reproduce bit for bit.
func ptsScan(m *ptshist.Model, r geom.Range) float64 {
	s := 0.0
	for j, p := range m.Points {
		if m.Weights[j] != 0 && r.Contains(p) {
			s += m.Weights[j]
		}
	}
	return core.Clamp01(s)
}

// TestEstimatePathPtsHistArmsAgree checks that the two PTSHIST arms of
// BenchmarkEstimatePath compute the same estimates bit for bit, so their
// ratio compares two ways of doing the same work.
func TestEstimatePathPtsHistArmsAgree(t *testing.T) {
	pm := estPathPtsModel()
	core.Accelerate(pm)
	nz := 0
	for _, w := range pm.Weights {
		if w != 0 {
			nz++
		}
	}
	if nz < 200 || nz > 320 {
		t.Fatalf("%d of %d weights nonzero, want about 8%%", nz, len(pm.Weights))
	}
	for i, q := range estPathBalls(256) {
		if a, b := ptsScan(pm, q), pm.Estimate(q); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("ball %d: scan %v, kernel %v", i, a, b)
		}
	}
}

// BenchmarkEstimatePath is the per-query latency of the three estimate
// kernels at each bucket count the acceptance criteria name, and of the
// PTSHIST point scan against its compacted kernel on 8-D balls.
func BenchmarkEstimatePath(b *testing.B) {
	pm, balls := estPathPtsModel(), estPathBalls(256)
	b.Run("ptshist/scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ptsSink = ptsScan(pm, balls[i%len(balls)])
		}
	})
	b.Run("ptshist/kernel", func(b *testing.B) {
		core.Accelerate(pm) // build outside the timed region
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ptsSink = pm.Estimate(balls[i%len(balls)])
		}
	})

	queries := estPathQueries(256)
	for _, m := range []int{256, 1024, 4096, 16384} {
		model := estPathModel(m)
		b.Run(fmt.Sprintf("flat/m=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bvh.EstimateFlat(model.Buckets, model.Weights, queries[i%len(queries)])
			}
		})
		b.Run(fmt.Sprintf("bvh/m=%d", m), func(b *testing.B) {
			core.Accelerate(model) // build outside the timed region
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				model.Estimate(queries[i%len(queries)])
			}
		})
		b.Run(fmt.Sprintf("cached/m=%d", m), func(b *testing.B) {
			core.Accelerate(model)
			cache := serve.NewEstimateCache(4 * len(queries))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := queries[i%len(queries)]
				key, ok := serve.QueryKey(q)
				if !ok {
					b.Fatal("unkeyable query")
				}
				if _, hit := cache.Get("bench", 1, key); hit {
					continue
				}
				cache.Put("bench", 1, key, model.Estimate(q))
			}
		})
	}
}

// BenchmarkServeEstimateBatch is end-to-end batched /v1/estimate
// throughput by worker count, cache disabled so every iteration measures
// real evaluation (repeated identical batches would otherwise be pure
// cache hits). Reports queries/s alongside ns/op.
func BenchmarkServeEstimateBatch(b *testing.B) {
	model := estPathModel(4096)
	core.Accelerate(model)
	queries := estPathQueries(256)
	var sb strings.Builder
	sb.WriteString(`{"queries":[`)
	for i, q := range queries {
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, `{"lo":[%g,%g],"hi":[%g,%g]}`, q.Lo[0], q.Lo[1], q.Hi[0], q.Hi[1])
	}
	sb.WriteString(`]}`)
	body := sb.String()

	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			s := serve.NewServer(serve.Options{EstimateWorkers: workers, EstimateCacheSize: -1})
			s.Registry().Set(serve.DefaultModelName, "bench", model)
			h := s.Handler()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				req := httptest.NewRequest("POST", "/v1/estimate", strings.NewReader(body))
				w := httptest.NewRecorder()
				h.ServeHTTP(w, req)
				if w.Code != http.StatusOK {
					b.Fatalf("HTTP %d: %s", w.Code, w.Body.String())
				}
			}
			b.ReportMetric(float64(b.N)*float64(len(queries))/b.Elapsed().Seconds(), "queries/s")
		})
	}
}

// BenchmarkServeEstimateStream is end-to-end /v1/estimate/stream
// throughput by worker count: each iteration pushes 256 NDJSON query
// lines through the handler and drains the result lines. Reports
// queries/s alongside ns/op.
func BenchmarkServeEstimateStream(b *testing.B) {
	model := estPathModel(4096)
	core.Accelerate(model)
	queries := estPathQueries(256)
	var sb strings.Builder
	for _, q := range queries {
		fmt.Fprintf(&sb, `{"lo":[%g,%g],"hi":[%g,%g]}`+"\n", q.Lo[0], q.Lo[1], q.Hi[0], q.Hi[1])
	}
	body := sb.String()

	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			s := serve.NewServer(serve.Options{EstimateWorkers: workers, EstimateCacheSize: -1})
			s.Registry().Set(serve.DefaultModelName, "bench", model)
			h := s.Handler()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				req := httptest.NewRequest("POST", "/v1/estimate/stream", strings.NewReader(body))
				w := httptest.NewRecorder()
				h.ServeHTTP(w, req)
				if w.Code != http.StatusOK {
					b.Fatalf("HTTP %d: %s", w.Code, w.Body.String())
				}
				if n := strings.Count(w.Body.String(), "\n"); n != len(queries) {
					b.Fatalf("%d result lines, want %d", n, len(queries))
				}
			}
			b.ReportMetric(float64(b.N)*float64(len(queries))/b.Elapsed().Seconds(), "queries/s")
		})
	}
}

// BenchmarkServeEstimateAlloc is the steady-state single-estimate path
// the zero-allocation gate (TestEstimateHandlerZeroAlloc) protects:
// one box query per request through the full mux. The allocs/op column
// is the headline number — it must stay at 0.
func BenchmarkServeEstimateAlloc(b *testing.B) {
	model := estPathModel(4096)
	core.Accelerate(model)
	s := serve.NewServer(serve.Options{EstimateCacheSize: -1})
	s.Registry().Set(serve.DefaultModelName, "bench", model)
	h := s.Handler()
	body := `{"query":{"lo":[0.2,0.3],"hi":[0.6,0.7]}}`

	b.Run("single", func(b *testing.B) {
		// Warm the pools outside the measured region, then reuse one
		// request object: httptest.NewRequest per iteration would charge
		// the benchmark for harness allocations the real server never
		// makes per-request.
		req := httptest.NewRequest("POST", "/v1/estimate", nil)
		rd := strings.NewReader(body)
		req.Body = http.NoBody
		w := httptest.NewRecorder()
		run := func() {
			rd.Reset(body)
			req.Body = readCloser{rd}
			req.ContentLength = int64(len(body))
			w.Body.Reset()
			w.Code = http.StatusOK
			h.ServeHTTP(w, req)
		}
		for i := 0; i < 8; i++ {
			run()
			if w.Code != http.StatusOK {
				b.Fatalf("HTTP %d: %s", w.Code, w.Body.String())
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run()
		}
	})
}

// readCloser adapts a strings.Reader into a no-op-close request body.
type readCloser struct{ *strings.Reader }

func (readCloser) Close() error { return nil }
