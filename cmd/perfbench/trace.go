package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/modelio"
	"repro/internal/online"
	"repro/internal/serve"
	"repro/internal/wirebin"
)

// span is one timed interval. Spans of one request share req; parent is
// the id of the span that caused this one (0 for a root).
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int    `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out when the run ends.
// A nil *tracer records nothing.
type tracer struct {
	base     time.Time
	mu       sync.Mutex
	spans    []span
	handlers []int64       // serve.handler span ids in completion order
	rtt      map[int]int64 // request index -> client.roundtrip span id
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), spans: make([]span, 0, 1<<16), rtt: map[int]int64{}}
}

func (t *tracer) add(name string, parent int64, req int, start, end time.Time) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Req: req,
		Start: int64(start.Sub(t.base)), End: int64(end.Sub(t.base))})
	return id
}

// request records a finished open-loop request: the root span from due to
// completion, the generator's wait, and the client round trip.
func (t *tracer) request(epoch time.Time, i int, oc *outcome) {
	if t == nil {
		return
	}
	due, start, end := epoch.Add(oc.o.due), epoch.Add(oc.start), epoch.Add(oc.end)
	root := t.add("request", 0, i, due, end)
	t.add("harness", root, i, due, start)
	id := t.add("client.roundtrip", root, i, start, end)
	t.mu.Lock()
	t.rtt[i] = id
	t.mu.Unlock()
}

// wrap puts a serve.handler span around every request the handler serves.
func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		id := t.add("serve.handler", 0, -1, start, time.Now())
		t.mu.Lock()
		t.handlers = append(t.handlers, id)
		t.mu.Unlock()
	})
}

// inProcess is a serve.Server run inside the benchmark process, its HTTP
// handler wrapped by the tracer when there is one.
type inProcess struct {
	hs      *http.Server
	binDone chan error
	cancel  context.CancelFunc
	httpAdr string
	binAdr  string
}

// freshCopies reloads each model from its snapshot, independent of the
// oracle copy.
func freshCopies(models []*servedModel) ([]core.Model, error) {
	out := make([]core.Model, len(models))
	for i, m := range models {
		data, err := os.ReadFile(m.path)
		if err != nil {
			return nil, err
		}
		if out[i], err = modelio.LoadAnyBytes(data); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func startInProcess(t *tracer, models []*servedModel, onlineOn bool) (*inProcess, error) {
	copies, err := freshCopies(models)
	if err != nil {
		return nil, err
	}
	srv := serve.NewServer(serve.Options{OnlineUpdates: onlineOn})
	for i, m := range models {
		srv.Registry().Set(m.name, "file", copies[i])
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addrs, err := freeAddrs(1) // ln stays open, so the port differs from its
	if err != nil {
		_ = ln.Close() // the address error is the one to report
		return nil, err
	}
	binAdr := addrs[0]
	ctx, cancel := context.WithCancel(context.Background())
	var h http.Handler = srv.Handler()
	if t != nil {
		h = t.wrap(h)
	}
	p := &inProcess{hs: &http.Server{Handler: h}, binDone: make(chan error, 1),
		cancel: cancel, httpAdr: ln.Addr().String(), binAdr: binAdr}
	go func() { _ = p.hs.Serve(ln) }() // returns ErrServerClosed on Shutdown
	go func() { p.binDone <- srv.RunBin(ctx, binAdr) }()
	for i := 0; ; i++ {
		c, err := net.DialTimeout("tcp", binAdr, time.Second)
		if err == nil {
			_ = c.Close() // a probe connection; only the dial mattered
			break
		}
		if i == 2000 {
			p.stop()
			return nil, fmt.Errorf("in-process binary listener: %w", err)
		}
		time.Sleep(time.Millisecond)
	}
	return p, nil
}

func (p *inProcess) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = p.hs.Shutdown(ctx) // a drain timeout only leaves idle sockets behind
	p.cancel()
	<-p.binDone
}

// inProcessPhase sends the open-loop ops to a fresh in-process server,
// recording spans when t is not nil.
func inProcessPhase(t *tracer, models []*servedModel, onlineOn bool, ops []*op) ([]outcome, error) {
	p, err := startInProcess(t, models, onlineOn)
	if err != nil {
		return nil, err
	}
	defer p.stop()
	cs, err := dialConns(p.httpAdr, p.binAdr)
	if err != nil {
		return nil, err
	}
	defer closeConns(cs)
	ocs := openLoop(cs, ops, t)
	if e := firstErr(ocs); e != nil {
		return nil, fmt.Errorf("in-process phase: %w", e)
	}
	return ocs, nil
}

// traceServing is the traced half of a serving run: it sends the
// open-loop ops to an in-process server whose handler is wrapped in
// spans, replays each request's decode, registry, cache, kernel, encode
// (and online fold) steps in process, and reports the ladder. The same
// ops against an identical server without spans give the overhead.
func traceServing(cfg config, rep *report, plan servingPlan, models []*servedModel, open []*op) error {
	plain, err := inProcessPhase(nil, models, plan.online, open)
	if err != nil {
		return err
	}
	t := newTracer()
	ocs, err := inProcessPhase(t, models, plan.online, open)
	if err != nil {
		return err
	}
	if err := replayStages(t, ocs, models); err != nil {
		return err
	}
	ladder(rep, t, ocs, collect(plain, notFeedback, (*outcome).fromDue))
	if err := layerBenches(rep, models, open); err != nil {
		return err
	}
	return t.write(filepath.Join(cfg.out, fmt.Sprintf("trace-%s-%d.json", cfg.workload, cfg.seed)))
}

// replayStages links handler spans to their requests and replays each
// request's in-process stages as child spans, in request order so the
// replay cache sees the hits the server saw.
func replayStages(t *tracer, ocs []outcome, models []*servedModel) error {
	copies, err := freshCopies(models)
	if err != nil {
		return err
	}
	reg := serve.NewRegistry()
	for i, m := range models {
		reg.Set(m.name, "file", copies[i])
	}
	cache := serve.NewEstimateCache(4096)
	var updaters []online.Updater
	for _, m := range copies {
		u, _ := online.ForModel(m, online.Options{})
		updaters = append(updaters, u)
	}
	var arena wirebin.Arena
	var req wirebin.Request
	var out []byte
	var frame []byte
	k := 0 // next handler span
	for i := range ocs {
		oc := &ocs[i]
		o := oc.o
		parent := t.rtt[i]
		if !o.bin {
			if k >= len(t.handlers) {
				return fmt.Errorf("trace: %d HTTP requests but %d handler spans", k+1, len(t.handlers))
			}
			parent = t.handlers[k]
			t.spans[parent-1].Parent = t.rtt[i]
			t.spans[parent-1].Req = i
			k++
		}
		name := models[o.model].name
		if o.bin {
			typ, payload, err := wirebin.ReadFrame(bufio.NewReader(bytes.NewReader(o.wire)), &frame)
			if err != nil {
				return err
			}
			s := time.Now()
			err = wirebin.DecodeRequest(typ, payload, &arena, &req)
			t.add("decode", parent, i, s, time.Now())
			if err != nil {
				return err
			}
		}
		s := time.Now()
		entry, ok := reg.Get(name)
		t.add("registry", parent, i, s, time.Now())
		if !ok {
			return fmt.Errorf("trace: model %q missing", name)
		}
		if o.kind == opFeedback {
			if u := updaters[o.model]; u != nil {
				batch := make([]core.LabeledQuery, len(o.qs))
				for j := range o.qs {
					batch[j] = core.LabeledQuery{R: o.qs[j], Sel: o.sels[j]}
				}
				s = time.Now()
				u.Apply(batch)
				t.add("fold", parent, i, s, time.Now())
			}
			continue
		}
		miss := o.qs
		var keys []string
		if o.bin || o.kind == opEstimate { // the NDJSON stream bypasses the cache
			s = time.Now()
			miss = nil
			for _, q := range o.qs {
				key, _ := serve.QueryKey(q)
				if _, hit := cache.Get(name, entry.Generation, key); hit {
					continue
				}
				miss = append(miss, q)
				keys = append(keys, key)
			}
			t.add("cache", parent, i, s, time.Now())
		}
		vals := make([]float64, len(miss))
		s = time.Now()
		core.EstimateRangesInto(entry.Model, miss, 0, vals)
		t.add("kernel", parent, i, s, time.Now())
		for j, key := range keys {
			cache.Put(name, entry.Generation, key, vals[j])
		}
		if o.bin {
			s = time.Now()
			if o.kind == opEstimate {
				out = wirebin.AppendEstimateResp(out[:0], entry.Generation, oc.ests[0])
			} else {
				out = wirebin.AppendEstimateBatchResp(out[:0], entry.Generation, oc.ests)
			}
			t.add("encode", parent, i, s, time.Now())
		}
	}
	return nil
}

// ladder reports each layer's mean self time per request, the residual
// no measured layer explains, and the tracing overhead.
func ladder(rep *report, t *tracer, ocs []outcome, untraced quantiles) {
	child := map[int64]time.Duration{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.dur()
		}
	}
	self := map[string]time.Duration{}
	var total time.Duration
	for _, s := range t.spans {
		d := s.dur() - child[s.ID]
		switch s.Name {
		case "request":
			total += s.dur()
		case "client.roundtrip":
			if ocs[s.Req].o.bin {
				self["residual"] += d // loopback and binary framing
			} else {
				self["net"] += d // loopback and net/http, outside the handler
			}
		case "serve.handler":
			self["residual"] += d // routing, JSON codec, response writing
		default:
			self[s.Name] += d
		}
	}
	n := float64(len(ocs))
	us := func(d time.Duration) float64 { return float64(d) / 1e3 / n }
	for _, layer := range []string{"harness", "net", "decode", "registry", "cache", "kernel", "encode", "fold"} {
		rep.set("trace.self_us."+layer, "us", us(self[layer]))
	}
	rep.set("trace.residual_us", "us", us(self["residual"]))
	rep.set("trace.total_us", "us", us(total))
	rep.set("trace.spans", "count", float64(len(t.spans)))
	traced := collect(ocs, notFeedback, (*outcome).fromDue)
	rep.set("trace.overhead_us", "us", traced.at(0.5)-untraced.at(0.5))
	rep.diag["traced_latency"] = traced.tail()
	rep.diag["in_process_latency"] = untraced.tail()
}

// write dumps the spans as JSON.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
