package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/hist"
)

// unitModel builds a one-bucket histogram over the unit square whose
// total weight is w, so Estimate(box) = w · vol(box ∩ [0,1]²) exactly —
// a model with analytically known outputs for cache/swap tests.
func unitModel(w float64) *hist.Model {
	return &hist.Model{
		Buckets: []geom.Box{geom.UnitCube(2)},
		Weights: []float64{w},
	}
}

func postEstimate(t *testing.T, h http.Handler, body string) (*httptest.ResponseRecorder, estimateResponse) {
	t.Helper()
	req := httptest.NewRequest("POST", "/v1/estimate", strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	var resp estimateResponse
	if w.Code == 200 {
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatalf("bad response JSON: %v: %s", err, w.Body.String())
		}
	}
	return w, resp
}

func TestQueryKeyCanonicalization(t *testing.T) {
	box := geom.NewBox(geom.Point{0, 0}, geom.Point{0.5, 0.25})
	sameBox := geom.NewBox(geom.Point{0, 0}, geom.Point{0.5, 0.25})
	k1, ok1 := QueryKey(box)
	k2, ok2 := QueryKey(sameBox)
	if !ok1 || !ok2 || k1 != k2 {
		t.Fatalf("identical boxes keyed differently: %q vs %q", k1, k2)
	}
	// Distinct geometries — and distinct classes over the same floats —
	// must map to distinct keys.
	keys := map[string]string{}
	for name, q := range map[string]geom.Range{
		"box":       box,
		"other box": geom.NewBox(geom.Point{0, 0}, geom.Point{0.5, 0.26}),
		"ball":      geom.NewBall(geom.Point{0, 0}, 0.5),
		"halfspace": geom.NewHalfspace(geom.Point{0, 0}, 0.5),
		"unit ball": geom.NewBall(geom.Point{0.5, 0.25}, 0),
		"1d box":    geom.NewBox(geom.Point{0}, geom.Point{0.5}),
		"flat slab": geom.NewBox(geom.Point{0, 0}, geom.Point{0.5, 0}),
	} {
		k, ok := QueryKey(q)
		if !ok {
			t.Fatalf("%s: no key", name)
		}
		if prev, dup := keys[k]; dup {
			t.Fatalf("key collision between %s and %s", prev, name)
		}
		keys[k] = name
	}
	// Unknown range classes bypass the cache rather than mis-keying.
	if _, ok := QueryKey(geom.NewDiscIntersection(0.5, 0.5, 0.25)); ok {
		t.Fatal("unexpected key for a non-wire range class")
	}
}

func TestEstimateCacheLRUEviction(t *testing.T) {
	c := NewEstimateCache(2)
	c.Put("m", 1, "a", 0.1)
	c.Put("m", 1, "b", 0.2)
	if _, ok := c.Get("m", 1, "a"); !ok {
		t.Fatal("a evicted while cache not full")
	}
	c.Put("m", 1, "c", 0.3) // evicts b (a was just touched)
	if _, ok := c.Get("m", 1, "b"); ok {
		t.Fatal("LRU did not evict the least recently used entry")
	}
	if v, ok := c.Get("m", 1, "a"); !ok || v != 0.1 {
		t.Fatalf("a lost: %v %v", v, ok)
	}
	if c.Len() != 2 {
		t.Fatalf("cache size %d, want 2", c.Len())
	}
	// Same query under a new generation is a distinct entry.
	if _, ok := c.Get("m", 2, "a"); ok {
		t.Fatal("generation ignored in cache key")
	}
}

// A batch with several malformed queries must come back as ONE 400 that
// names every bad index, so the client can fix the whole batch in one
// round trip.
func TestEstimateMalformedBatchReportsAllIndices(t *testing.T) {
	s := NewServer(Options{})
	s.Registry().Set(DefaultModelName, "test", unitModel(1))
	h := s.Handler()

	// Index 1: no class fields. Index 3: dimension mismatch (model is 2-D).
	// Index 4: negative radius. Indices 0 and 2 are fine.
	body := `{"queries":[
		{"lo":[0,0],"hi":[1,1]},
		{},
		{"center":[0.5,0.5],"radius":0.1},
		{"lo":[0],"hi":[1]},
		{"center":[0.5,0.5],"radius":-1}
	]}`
	w, _ := postEstimate(t, h, body)
	if w.Code != 400 {
		t.Fatalf("HTTP %d, want 400", w.Code)
	}
	var apiErr apiError
	if err := json.Unmarshal(w.Body.Bytes(), &apiErr); err != nil {
		t.Fatalf("bad error JSON: %v", err)
	}
	for _, want := range []string{"3 of 5", "query 1:", "query 3:", "query 4:"} {
		if !strings.Contains(apiErr.Error, want) {
			t.Fatalf("error %q does not mention %q", apiErr.Error, want)
		}
	}
	for _, good := range []string{"query 0:", "query 2:"} {
		if strings.Contains(apiErr.Error, good) {
			t.Fatalf("error %q blames valid %s", apiErr.Error, good)
		}
	}
}

// A hot-swap bumps the generation, which must atomically invalidate every
// cached estimate: the same query re-asked after the swap returns the new
// model's value, never the old one's.
func TestEstimateCacheInvalidationOnSwap(t *testing.T) {
	m1, m2 := unitModel(1), unitModel(0.5)
	s := NewServer(Options{})
	s.Registry().Set(DefaultModelName, "test", m1)
	h := s.Handler()

	q := geom.NewBox(geom.Point{0, 0}, geom.Point{0.5, 0.5})
	body := `{"query":{"lo":[0,0],"hi":[0.5,0.5]}}`

	_, resp := postEstimate(t, h, body)
	if resp.Generation != 1 || resp.Estimate == nil || *resp.Estimate != m1.Estimate(q) {
		t.Fatalf("first estimate: %+v", resp)
	}
	_, resp = postEstimate(t, h, body) // should be served from cache
	if *resp.Estimate != m1.Estimate(q) {
		t.Fatalf("cached estimate drifted: %v", *resp.Estimate)
	}
	var st statzResponse
	if code := doJSON(t, h, "GET", "/statz", nil, &st); code != 200 {
		t.Fatalf("statz: HTTP %d", code)
	}
	if st.EstimateCache == nil || st.EstimateCache.Hits != 1 || st.EstimateCache.Misses != 1 {
		t.Fatalf("cache counters after repeat: %+v", st.EstimateCache)
	}

	s.Registry().Set(DefaultModelName, "test", m2) // generation 2
	_, resp = postEstimate(t, h, body)
	if resp.Generation != 2 {
		t.Fatalf("post-swap generation %d, want 2", resp.Generation)
	}
	if *resp.Estimate != m2.Estimate(q) {
		t.Fatalf("post-swap estimate %v is stale (m1 would be %v, m2 is %v)",
			*resp.Estimate, m1.Estimate(q), m2.Estimate(q))
	}
	if code := doJSON(t, h, "GET", "/statz", nil, &st); code != 200 {
		t.Fatalf("statz: HTTP %d", code)
	}
	if st.EstimateCache.Misses != 2 || st.EstimateCache.Hits != 1 {
		t.Fatalf("cache counters after swap: %+v (swap must force a miss)", st.EstimateCache)
	}
}

// Batched estimates must be byte-identical for any worker count: the
// parallel fan-out writes each result to its own index slot, so the JSON
// body cannot depend on scheduling.
func TestEstimateResponsesByteIdenticalAcrossWorkers(t *testing.T) {
	const n = 100 // above the parallel threshold
	var sb strings.Builder
	sb.WriteString(`{"queries":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		f := float64(i+1) / float64(n+1)
		fmt.Fprintf(&sb, `{"lo":[0,0],"hi":[%g,%g]}`, f, 1-f/2)
	}
	sb.WriteString(`]}`)
	body := sb.String()

	var want []byte
	for _, workers := range []int{1, 2, 4, 8} {
		s := NewServer(Options{EstimateWorkers: workers})
		s.Registry().Set(DefaultModelName, "test", unitModel(1))
		w, _ := postEstimate(t, s.Handler(), body)
		if w.Code != 200 {
			t.Fatalf("workers=%d: HTTP %d", workers, w.Code)
		}
		if want == nil {
			want = w.Body.Bytes()
			continue
		}
		if !bytes.Equal(w.Body.Bytes(), want) {
			t.Fatalf("workers=%d: response bytes differ from workers=1", workers)
		}
	}
}

// Concurrent estimates racing with hot-swaps must never mix generations:
// every value in a response must come from the model whose generation the
// response reports. Batches go straight to the kernel; one-query requests
// go through the cache, so under -race this exercises the cache's Get and
// Put against hot swaps, as well as the registry and scratch pool.
func TestEstimateGenerationConsistencyUnderSwap(t *testing.T) {
	m1, m2 := unitModel(1), unitModel(0.5)
	s := NewServer(Options{})
	s.Registry().Set(DefaultModelName, "test", m1) // generation 1 = m1
	h := s.Handler()

	const n = 70 // above the parallel threshold
	queries := make([]geom.Range, n)
	singles := make([]string, n)
	var sb strings.Builder
	sb.WriteString(`{"queries":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		f := float64(i+1) / float64(n+1)
		queries[i] = geom.NewBox(geom.Point{0, 0}, geom.Point{f, 0.5})
		fmt.Fprintf(&sb, `{"lo":[0,0],"hi":[%g,0.5]}`, f)
		singles[i] = fmt.Sprintf(`{"query":{"lo":[0,0],"hi":[%g,0.5]}}`, f)
	}
	sb.WriteString(`]}`)
	body := sb.String()

	// Precompute per-model expectations; the swapper alternates, so odd
	// generations serve m1 and even generations m2.
	want1 := make([]float64, n)
	want2 := make([]float64, n)
	for i, q := range queries {
		want1[i] = m1.Estimate(q)
		want2[i] = m2.Estimate(q)
	}

	const swaps = 40
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < swaps; i++ {
			if i%2 == 0 {
				s.Registry().Set(DefaultModelName, "swap", m2)
			} else {
				s.Registry().Set(DefaultModelName, "swap", m1)
			}
			runtime.Gosched()
		}
	}()
	// Goroutines 0–3 send the batch; 4–5 cycle through the queries one
	// request at a time.
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; ; k++ {
				if k > 0 { // every goroutine sends at least once
					select {
					case <-stop:
						return
					default:
					}
				}
				req, first := body, 0
				if g >= 4 {
					first = k % n
					req = singles[first]
				}
				w, resp := postEstimate(t, h, req)
				if w.Code != 200 {
					t.Errorf("HTTP %d: %s", w.Code, w.Body.String())
					return
				}
				want := want1
				if resp.Generation%2 == 0 {
					want = want2
				}
				got := resp.Estimates
				if resp.Estimate != nil {
					got = []float64{*resp.Estimate}
				}
				for j, v := range got {
					if i := first + j; v != want[i] {
						t.Errorf("generation %d response mixed models at index %d: got %v, want %v",
							resp.Generation, i, v, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	var st statzResponse
	if code := doJSON(t, h, "GET", "/statz", nil, &st); code != 200 {
		t.Fatalf("statz: HTTP %d", code)
	}
	if st.EstimateCache == nil || st.EstimateCache.Hits+st.EstimateCache.Misses == 0 {
		t.Fatalf("one-query requests never reached the cache: %+v", st.EstimateCache)
	}
}
