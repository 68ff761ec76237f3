package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/serve"
	"repro/internal/wirebin"
)

// benchReps is how many times each in-process layer benchmark repeats its
// input set; each metric is the median over repetitions.
const benchReps = 5

// timeReps runs fn benchReps times and returns the median duration
// divided by per.
func timeReps(per int, fn func()) float64 {
	fn() // warm caches and pools
	ds := make([]float64, benchReps)
	for i := range ds {
		t0 := time.Now()
		fn()
		ds[i] = float64(time.Since(t0)) / float64(per)
	}
	return median(ds)
}

// layerBenches times single layers in process through their public
// functions, on the workload's own models and requests.
func layerBenches(rep *report, models []*servedModel, ops []*op) error {
	copies, err := freshCopies(models)
	if err != nil {
		return err
	}
	// newServer builds a server with shipped defaults (estimate cache on)
	// and an empty cache, serving the local copies.
	newServer := func() *serve.Server {
		srv := serve.NewServer(serve.Options{})
		for i, m := range models {
			srv.Registry().Set(m.name, "file", copies[i])
		}
		return srv
	}
	if err := handlerBench(rep, newServer, ops); err != nil {
		return err
	}
	srv := newServer()

	name := models[0].name
	rep.set("serve.registry_get_ns", "ns", timeReps(10000, func() {
		for i := 0; i < 10000; i++ {
			srv.Registry().Get(name)
		}
	}))

	var qs []geom.Range
	for _, o := range ops {
		if o.kind != opFeedback {
			qs = append(qs, o.qs...)
		}
	}
	qs = qs[:min(len(qs), 20000)]
	rep.set("serve.cache_key_ns", "ns", timeReps(len(qs), func() {
		c := serve.NewEstimateCache(4096)
		for _, q := range qs {
			k, _ := serve.QueryKey(q)
			if _, hit := c.Get(name, 1, k); !hit {
				c.Put(name, 1, k, 0.5)
			}
		}
	}))

	if err := wirebinBench(rep, ops); err != nil {
		return err
	}
	kernelBench(rep, models, copies, ops)
	return nil
}

// handlerBench calls Handler().ServeHTTP directly on the workload's HTTP
// requests and reports time per request and heap allocations per query.
// Every pass starts from a fresh server, so its cache sees the same hits
// and misses as the server on the wire did.
func handlerBench(rep *report, newServer func() *serve.Server, ops []*op) error {
	type call struct {
		req  *http.Request
		body []byte
		rd   *bytes.Reader
		n    int
	}
	var calls []call
	for _, o := range ops {
		if o.bin || o.kind == opFeedback || len(calls) == 2000 {
			continue
		}
		req, err := http.ReadRequest(bufio.NewReader(bytes.NewReader(o.wire)))
		if err != nil {
			return err
		}
		body := o.wire[len(o.wire)-int(req.ContentLength):]
		rd := bytes.NewReader(body)
		req.Body = reusableBody{rd}
		calls = append(calls, call{req: req, body: body, rd: rd, n: len(o.qs)})
	}
	if len(calls) == 0 {
		return nil
	}
	w := &discardWriter{h: http.Header{}}
	queries := 0
	for _, c := range calls {
		queries += c.n
	}
	serveAll := func(h http.Handler) {
		for _, c := range calls {
			c.rd.Reset(c.body)
			w.status = 0
			h.ServeHTTP(w, c.req)
		}
	}
	serveAll(newServer().Handler()) // warm pools and code paths
	if w.status != http.StatusOK {
		return fmt.Errorf("in-process handler: HTTP %d", w.status)
	}
	ds := make([]float64, benchReps)
	for i := range ds {
		h := newServer().Handler()
		t0 := time.Now()
		serveAll(h)
		ds[i] = float64(time.Since(t0)) / float64(len(calls))
	}
	rep.set("serve.handler_ns", "ns", median(ds))
	h := newServer().Handler()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	serveAll(h)
	runtime.ReadMemStats(&m1)
	rep.set("serve.allocs_per_query", "count", float64(m1.Mallocs-m0.Mallocs)/float64(queries))
	rep.set("serve.bytes_per_query", "B", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(queries))
	return nil
}

// reusableBody lets one *http.Request be served repeatedly.
type reusableBody struct{ *bytes.Reader }

func (reusableBody) Close() error { return nil }

// discardWriter is a ResponseWriter that keeps only the status.
type discardWriter struct {
	h      http.Header
	status int
}

func (w *discardWriter) Header() http.Header { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return len(b), nil
}
func (w *discardWriter) WriteHeader(code int) { w.status = code }
func (w *discardWriter) Flush()               {}

// wirebinBench times DecodeRequest per frame and the response encoders
// per query on the workload's binary frames.
func wirebinBench(rep *report, ops []*op) error {
	type frame struct {
		typ     byte
		payload []byte
		n       int
	}
	var frames []frame
	queries := 0
	var buf []byte
	for _, o := range ops {
		if !o.bin || len(frames) == 2000 {
			continue
		}
		typ, payload, err := wirebin.ReadFrame(bufio.NewReader(bytes.NewReader(o.wire)), &buf)
		if err != nil {
			return err
		}
		frames = append(frames, frame{typ: typ, payload: append([]byte(nil), payload...), n: len(o.qs)})
		queries += len(o.qs)
	}
	if len(frames) == 0 {
		return nil
	}
	var arena wirebin.Arena
	var req wirebin.Request
	var derr error
	rep.set("wirebin.decode_ns", "ns", timeReps(len(frames), func() {
		for _, f := range frames {
			if err := wirebin.DecodeRequest(f.typ, f.payload, &arena, &req); err != nil {
				derr = err
			}
		}
	}))
	if derr != nil {
		return fmt.Errorf("decode replay: %w", derr)
	}
	ests := make([]float64, bulkBatch)
	var out []byte
	rep.set("wirebin.encode_ns", "ns", timeReps(queries, func() {
		for _, f := range frames {
			if f.n == 1 {
				out = wirebin.AppendEstimateResp(out[:0], 1, 0.25)
			} else {
				out = wirebin.AppendEstimateBatchResp(out[:0], 1, ests[:f.n])
			}
		}
	}))
	return nil
}

// kernelBench times core.EstimateRangesInto per query at one worker for
// each model family, and the parallel efficiency of a batch at NumCPU
// workers against one.
func kernelBench(rep *report, models []*servedModel, copies []core.Model, ops []*op) {
	slowest, slowestNs := -1, 0.0
	var slowestQs []geom.Range
	for i, m := range models {
		qs := rangesOf(ops, i, opEstimate)
		qs = append(qs, rangesOf(ops, i, opBatch)...)
		if len(qs) == 0 {
			qs = testRanges(m)
		}
		qs = qs[:min(len(qs), 4096)]
		out := make([]float64, len(qs))
		ns := timeReps(len(qs), func() { core.EstimateRangesInto(copies[i], qs, 1, out) })
		metric := "bvh.estimate_ns_per_query"
		if m.fam == ptsForest {
			metric = "ptshist.estimate_ns_per_query"
		}
		rep.set(metric, "ns", ns)
		if ns > slowestNs {
			slowest, slowestNs, slowestQs = i, ns, qs
		}
	}
	if slowest < 0 {
		return
	}
	batch := slowestQs[:min(len(slowestQs), 4*bulkBatch)]
	out := make([]float64, len(batch))
	one := timeReps(1, func() { core.EstimateRangesInto(copies[slowest], batch, 1, out) })
	n := runtime.NumCPU()
	many := timeReps(1, func() { core.EstimateRangesInto(copies[slowest], batch, n, out) })
	rep.set("core.batch_parallel_eff", "ratio", one/many/float64(n))
}

// testRanges returns a model's held-out queries.
func testRanges(m *servedModel) []geom.Range {
	out := make([]geom.Range, len(m.test))
	for i, z := range m.test {
		out[i] = z.R
	}
	return out
}
