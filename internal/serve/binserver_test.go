package serve

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/wirebin"
)

// startBinServer serves the binary protocol on an ephemeral port and
// returns its address plus a shutdown func.
func startBinServer(t *testing.T, s *Server) (addr string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := s.ServeBin(ctx, ln); err != nil {
			t.Errorf("ServeBin: %v", err)
		}
	}()
	return ln.Addr().String(), func() {
		cancel()
		<-done
	}
}

func TestBinServerEndToEnd(t *testing.T) {
	train, test := fixture(t, 60, 8)
	m := trainModel(t, train)
	s := NewServer(Options{EstimateCacheSize: -1})
	s.Registry().Set(DefaultModelName, "test", m)
	addr, stop := startBinServer(t, s)
	defer stop()

	c, err := wirebin.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	t.Run("estimate matches model", func(t *testing.T) {
		for _, lq := range test {
			est, gen, err := c.Estimate("", lq.R)
			if err != nil {
				t.Fatal(err)
			}
			if want := m.Estimate(lq.R); math.Float64bits(est) != math.Float64bits(want) {
				t.Fatalf("estimate %v, model says %v", est, want)
			}
			if gen <= 0 {
				t.Fatalf("generation %d", gen)
			}
		}
	})

	t.Run("batch matches singles", func(t *testing.T) {
		ranges := make([]geom.Range, len(test))
		for i, lq := range test {
			ranges[i] = lq.R
		}
		ests, _, err := c.EstimateBatch(DefaultModelName, ranges, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(ests) != len(ranges) {
			t.Fatalf("%d estimates for %d queries", len(ests), len(ranges))
		}
		for i, r := range ranges {
			if want := m.Estimate(r); math.Float64bits(ests[i]) != math.Float64bits(want) {
				t.Fatalf("batch[%d] = %v, want %v", i, ests[i], want)
			}
		}
	})

	t.Run("feedback accepted", func(t *testing.T) {
		ranges := []geom.Range{test[0].R, test[1].R}
		acc, dropped, gen, err := c.Feedback("", ranges, []float64{0.1, 0.9})
		if err != nil {
			t.Fatal(err)
		}
		if acc != 2 || dropped != 0 || gen <= 0 {
			t.Fatalf("accepted=%d dropped=%d gen=%d", acc, dropped, gen)
		}
		if total, _, _ := s.feedback.Totals(); total < 2 {
			t.Fatalf("feedback store saw %d observations", total)
		}
	})

	t.Run("error frames keep connection", func(t *testing.T) {
		if _, _, err := c.Estimate("no-such-model", test[0].R); err == nil ||
			!strings.Contains(err.Error(), "model not registered") {
			t.Fatalf("unknown model error: %v", err)
		}
		// The same connection must still serve.
		if _, _, err := c.Estimate("", test[0].R); err != nil {
			t.Fatalf("connection unusable after error frame: %v", err)
		}
		// Dimension mismatch is a per-frame error, not a hangup.
		bad := geom.Box{Lo: geom.Point{0.1, 0.1, 0.1}, Hi: geom.Point{0.2, 0.2, 0.2}}
		if _, _, err := c.Estimate("", bad); err == nil ||
			!strings.Contains(err.Error(), "dimension") {
			t.Fatalf("dim mismatch error: %v", err)
		}
		if _, _, err := c.Estimate("", test[0].R); err != nil {
			t.Fatalf("connection unusable after dim error: %v", err)
		}
	})

	t.Run("generation observes hot swap", func(t *testing.T) {
		_, gen0, err := c.Estimate("", test[0].R)
		if err != nil {
			t.Fatal(err)
		}
		s.Registry().Set(DefaultModelName, "swap", trainModel(t, train))
		_, gen1, err := c.Estimate("", test[0].R)
		if err != nil {
			t.Fatal(err)
		}
		if gen1 <= gen0 {
			t.Fatalf("generation did not advance across swap: %d -> %d", gen0, gen1)
		}
	})

	t.Run("pipelined responses in order", func(t *testing.T) {
		// Distinct queries → distinct estimates; responses must come back
		// in request order.
		var frames [][]byte
		var want []float64
		for _, lq := range test {
			f, err := wirebin.AppendEstimateReq(nil, nil, lq.R)
			if err != nil {
				t.Fatal(err)
			}
			frames = append(frames, f)
			want = append(want, m.Estimate(lq.R))
		}
		err := c.Pipeline(frames, func(i int, r *wirebin.Response) error {
			if r.Type != wirebin.FrameEstimateResp {
				t.Fatalf("response %d: frame type %#x", i, r.Type)
			}
			if math.Float64bits(r.Est) != math.Float64bits(want[i]) {
				t.Fatalf("response %d out of order: got %v, want %v", i, r.Est, want[i])
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestBinJSONEquivalence is the cross-protocol property test: random
// workloads through the binary listener and the HTTP JSON handler must
// produce bit-identical estimates.
func TestBinJSONEquivalence(t *testing.T) {
	train, _ := fixture(t, 80, 1)
	m := trainModel(t, train)
	s := NewServer(Options{EstimateCacheSize: -1})
	s.Registry().Set(DefaultModelName, "test", m)
	h := s.Handler()
	addr, stop := startBinServer(t, s)
	defer stop()

	c, err := wirebin.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	rng := rand.New(rand.NewSource(42))
	jsonEstimate := func(t *testing.T, q geom.Range) float64 {
		t.Helper()
		b := q.(geom.Box)
		body, err := json.Marshal(estimateRequest{Query: &wireQuery{Lo: b.Lo, Hi: b.Hi}})
		if err != nil {
			t.Fatal(err)
		}
		var resp estimateResponse
		if code := doJSON(t, h, "POST", "/v1/estimate", body, &resp); code != http.StatusOK {
			t.Fatalf("HTTP %d", code)
		}
		return *resp.Estimate
	}

	for i := 0; i < 200; i++ {
		lo := geom.Point{rng.Float64()*2 - 0.5, rng.Float64()*2 - 0.5}
		hi := geom.Point{lo[0] + rng.Float64(), lo[1] + rng.Float64()}
		q := geom.Box{Lo: lo, Hi: hi}
		want := jsonEstimate(t, q)
		got, _, err := c.Estimate("", q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("query %d: binary %v != json %v", i, got, want)
		}
	}
}

// TestBinFrameZeroAlloc is the binary counterpart of
// TestEstimateHandlerZeroAlloc: decode, estimate, and response encode run
// at 0 allocs/op at steady state — for a single-estimate frame with the
// cache off (with it on, a one-query frame's cache keying allocates by
// design), and for a batch frame in the shipped configuration
// (Options{}, cache on), since batches never touch the cache. It drives
// processBinFrame inline — AllocsPerRun counts process-global
// allocations, so a live client goroutine would pollute the measurement;
// the thin connection loop around it is covered by the selvet zeroalloc
// annotation sweep.
func TestBinFrameZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the gate runs without -race")
	}
	train, test := fixture(t, 60, 16)
	m := trainModel(t, train)
	s := NewServer(Options{EstimateCacheSize: -1})
	s.Registry().Set(DefaultModelName, "test", m)

	frame, err := wirebin.AppendEstimateReq(nil, nil, test[0].R)
	if err != nil {
		t.Fatal(err)
	}
	typ, payload := frame[4], frame[5:]

	st := binStatePool.Get().(*binState)
	st.sc = scratchPool.Get().(*estimateScratch)
	defer func() {
		scratchPool.Put(st.sc)
		st.sc = nil
		binStatePool.Put(st)
	}()

	for i := 0; i < 8; i++ {
		st.out = st.out[:0]
		s.processBinFrame(st, typ, payload)
		if len(st.out) == 0 || st.out[4] != wirebin.FrameEstimateResp {
			t.Fatalf("warmup frame answered with %#x", st.out[4])
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		st.out = st.out[:0]
		s.processBinFrame(st, typ, payload)
	})
	if allocs != 0 {
		t.Fatalf("binary estimate frame path allocates %.1f objects/op, want 0", allocs)
	}

	t.Run("batch", func(t *testing.T) {
		ranges := make([]geom.Range, 16)
		for i := range ranges {
			ranges[i] = test[0].R
		}
		bframe, err := wirebin.AppendEstimateBatchReq(nil, nil, ranges)
		if err != nil {
			t.Fatal(err)
		}
		btyp, bpayload := bframe[4], bframe[5:]
		for i := 0; i < 8; i++ {
			st.out = st.out[:0]
			s.processBinFrame(st, btyp, bpayload)
		}
		allocs := testing.AllocsPerRun(200, func() {
			st.out = st.out[:0]
			s.processBinFrame(st, btyp, bpayload)
		})
		if allocs != 0 {
			t.Fatalf("binary batch frame path allocates %.1f objects/op, want 0", allocs)
		}
	})

	t.Run("default config batch", func(t *testing.T) {
		sd := NewServer(Options{})
		sd.Registry().Set(DefaultModelName, "test", m)
		ranges := make([]geom.Range, len(test))
		for i := range ranges {
			ranges[i] = test[i].R
		}
		bframe, err := wirebin.AppendEstimateBatchReq(nil, nil, ranges)
		if err != nil {
			t.Fatal(err)
		}
		btyp, bpayload := bframe[4], bframe[5:]
		for i := 0; i < 8; i++ {
			st.out = st.out[:0]
			sd.processBinFrame(st, btyp, bpayload)
			if st.out[4] != wirebin.FrameEstimateBatchResp {
				t.Fatalf("warmup frame answered with %#x", st.out[4])
			}
		}
		allocs := testing.AllocsPerRun(200, func() {
			st.out = st.out[:0]
			sd.processBinFrame(st, btyp, bpayload)
		})
		if allocs != 0 {
			t.Fatalf("default-config batch frame path allocates %.1f objects/op, want 0", allocs)
		}
	})

	t.Run("error frame", func(t *testing.T) {
		bad, err := wirebin.AppendEstimateReq(nil, []byte("no-such-model"), test[0].R)
		if err != nil {
			t.Fatal(err)
		}
		etyp, epayload := bad[4], bad[5:]
		for i := 0; i < 8; i++ {
			st.out = st.out[:0]
			s.processBinFrame(st, etyp, epayload)
		}
		allocs := testing.AllocsPerRun(200, func() {
			st.out = st.out[:0]
			s.processBinFrame(st, etyp, epayload)
		})
		if allocs != 0 {
			t.Fatalf("binary error frame path allocates %.1f objects/op, want 0", allocs)
		}
	})
}

// TestBinConcurrentSwaps hammers the binary listener from several
// connections while the registry hot-swaps models, so `go test -race`
// checks the frame loop against publication races. Every response must
// be a valid estimate from some published generation.
func TestBinConcurrentSwaps(t *testing.T) {
	train, test := fixture(t, 60, 4)
	s := NewServer(Options{EstimateCacheSize: -1})
	s.Registry().Set(DefaultModelName, "test", trainModel(t, train))
	addr, stop := startBinServer(t, s)
	defer stop()

	stopSwaps := make(chan struct{})
	var swapper sync.WaitGroup
	swapper.Add(1)
	go func() {
		defer swapper.Done()
		for {
			select {
			case <-stopSwaps:
				return
			default:
				s.Registry().Set(DefaultModelName, "swap", trainModel(t, train))
				time.Sleep(time.Millisecond)
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := wirebin.Dial(addr)
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer func() { _ = c.Close() }()
			lastGen := int64(0)
			for i := 0; i < 200; i++ {
				est, gen, err := c.Estimate("", test[i%len(test)].R)
				if err != nil {
					t.Errorf("estimate: %v", err)
					return
				}
				if est < 0 || est > 1 || gen < lastGen {
					t.Errorf("est=%v gen=%d (last %d)", est, gen, lastGen)
					return
				}
				lastGen = gen
			}
		}()
	}
	wg.Wait()
	close(stopSwaps)
	swapper.Wait()
}

// TestBinMetrics checks the frame and connection counters move.
func TestBinMetrics(t *testing.T) {
	train, test := fixture(t, 60, 1)
	s := NewServer(Options{EstimateCacheSize: -1})
	s.Registry().Set(DefaultModelName, "test", trainModel(t, train))
	addr, stop := startBinServer(t, s)
	defer stop()

	c, err := wirebin.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Estimate("", test[0].R); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Estimate("missing", test[0].R); err == nil {
		t.Fatal("unknown model served")
	}
	_ = c.Close()

	if got := s.bin.connsTotal.Value(); got != 1 {
		t.Fatalf("connections_total = %d", got)
	}
	if got := s.bin.frameEst.Value(); got != 2 {
		t.Fatalf("frames_total{type=estimate} = %d", got)
	}
	if got := s.bin.errFrames.Value(); got != 1 {
		t.Fatalf("error_frames_total = %d", got)
	}
	if s.bin.frameSecs.Count() < 2 {
		t.Fatalf("frame_seconds count = %d", s.bin.frameSecs.Count())
	}
}

// TestBinServerDrain checks ServeBin returns promptly on cancel with an
// idle connection open (force-closed after the drain window).
func TestBinServerDrain(t *testing.T) {
	train, _ := fixture(t, 60, 1)
	s := NewServer(Options{EstimateCacheSize: -1, DrainTimeout: 50 * time.Millisecond})
	s.Registry().Set(DefaultModelName, "test", trainModel(t, train))
	addr, stop := startBinServer(t, s)

	c, err := wirebin.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	done := make(chan struct{})
	go func() {
		stop() // cancels ctx; idle conn must be reaped by the drain timer
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("ServeBin did not drain")
	}
}
