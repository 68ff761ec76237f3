package main

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/rng"
	"repro/internal/wirebin"
)

// opKind is what one request asks.
type opKind uint8

const (
	opEstimate opKind = iota // one query
	opBatch                  // many queries: a binary batch frame or an NDJSON stream
	opFeedback               // labeled observations
)

// op is one generated request. Its wire bytes are encoded before the run
// so the generator spends no time encoding while it measures.
type op struct {
	kind  opKind
	bin   bool // sent on the binary connection; otherwise on the HTTP one
	model int  // index of the served model
	qs    []geom.Range
	sels  []float64     // feedback labels, one per query
	due   time.Duration // open-loop due time after the phase epoch
	wire  []byte        // complete HTTP request or binary frame
	nq    int           // len(qs), kept when a closed-loop op drops qs and wire
}

// Traffic shapes. The point-replay session follows the decisions
// internal/optsim makes for one filtered two-table join, as
// examples/optimizer runs them: ReplayScans asks once per predicate to
// choose its access path, then PlanJoin asks again for both predicates to
// order the join. That is two asks of each of two predicates, so half the
// asks repeat one already sent. It assumes the optimizer keeps no estimate
// cache of its own, which is what a server-side cache is for.
const (
	replayPredicates    = 2   // predicates, one per joined table
	replayAsks          = 2   // ChoosePath, then PlanJoin
	bulkBatch           = 256 // queries per bulk request
	feedbackObs         = 4   // observations per feedback upload
	onlineFeedbackEvery = 4   // every fourth feedback-online request uploads feedback
	// binEvery: one single-estimate client in binEvery speaks wirebin,
	// the others JSON HTTP. The split is the repository's own traffic
	// model, internal/load.DefaultMix, which weighs JSON single estimates
	// 6 and binary single frames 1.5.
	binEvery = 5
)

// replayRepeatShare is the stated share of point-replay requests that
// repeat a query asked earlier in the same plan search.
const replayRepeatShare = 1 - 1.0/replayAsks

// sampler draws fresh queries of a model's class around data points.
type sampler struct {
	r *rng.RNG
	m *servedModel
}

func newSampler(m *servedModel, seed uint64) *sampler {
	return &sampler{r: rng.New(seed), m: m}
}

func (s *sampler) draw() geom.Range {
	p := s.m.data.Points[s.r.IntN(s.m.data.Len())]
	switch s.m.fam {
	case ptsForest:
		return geom.NewBall(p, forestRadius*s.r.Float64())
	default:
		sides := make([]float64, len(p))
		for i := range sides {
			sides[i] = powerMaxSide * s.r.Float64()
		}
		return geom.BoxFromCenter(p.Clone(), sides)
	}
}

// label draws n fresh queries and labels them with kd-tree truths.
func (s *sampler) label(n int) []core.LabeledQuery {
	out := make([]core.LabeledQuery, n)
	for i := range out {
		q := s.draw()
		out[i] = core.LabeledQuery{R: q, Sel: s.m.gen.Tree().Selectivity(q)}
	}
	return out
}

// gen yields a deterministic, endless sequence of requests.
type gen func() *op

// take draws the next n ops.
func (g gen) take(n int) []*op {
	ops := make([]*op, n)
	for i := range ops {
		ops[i] = g()
	}
	return ops
}

// replayGen yields point-replay requests: plan searches that draw
// replayPredicates fresh predicates and ask for each once per decision.
// Each plan search is one optimizer client's and keeps to one protocol;
// one search in binEvery goes over wirebin.
func replayGen(models []*servedModel, seed uint64) gen {
	s := newSampler(models[0], seed)
	var pending []geom.Range
	session := 0
	return func() *op {
		if len(pending) == 0 {
			preds := make([]geom.Range, replayPredicates)
			for i := range preds {
				preds[i] = s.draw()
			}
			for range replayAsks {
				pending = append(pending, preds...)
			}
			session++
		}
		o := &op{kind: opEstimate, bin: session%binEvery == 0, qs: pending[:1:1]}
		pending = pending[1:]
		return o
	}
}

// bulkGen yields bulk-fresh batches of fresh queries. Models alternate per
// batch and protocols per pair of batches, so each (model, protocol) gets
// a quarter of the traffic.
func bulkGen(models []*servedModel, seed uint64) gen {
	samplers := make([]*sampler, len(models))
	for i, m := range models {
		samplers[i] = newSampler(m, seedFor(seed, uint64(i)))
	}
	n := 0
	return func() *op {
		mi := n % len(models)
		qs := make([]geom.Range, bulkBatch)
		for k := range qs {
			qs[k] = samplers[mi].draw()
		}
		o := &op{kind: opBatch, bin: (n/2)%2 == 1, model: mi, qs: qs}
		n++
		return o
	}
}

// onlineGen yields feedback-online requests: estimates of queries from the
// shifted distribution and, when feedback is set, every
// onlineFeedbackEvery-th request an upload of exact truths of further
// shifted queries.
func onlineGen(models []*servedModel, seed uint64, feedback bool) gen {
	m := models[0]
	r := rng.New(seed)
	// The feedback is fixed with the model (modelSeed): the uploads, their
	// order on the one HTTP connection and so the online model after the
	// run are the same for every -seed, which varies the estimates.
	fb := seedFor(modelSeed, purposeFeedback)
	n, estimates := 0, 0
	return func() *op {
		defer func() { n++ }()
		if feedback && n%onlineFeedbackEvery == onlineFeedbackEvery-1 {
			o := &op{kind: opFeedback}
			for _, z := range shiftedQueries(m, seedFor(fb, uint64(n)), feedbackObs) {
				o.qs = append(o.qs, z.R)
				o.sels = append(o.sels, z.Sel)
			}
			return o
		}
		// Estimates need no labels: the server answers them, and the
		// oracle checks generations and range.
		q := shiftedBox(r, m.data.Dim())
		estimates++
		return &op{kind: opEstimate, bin: estimates%binEvery == 0, qs: []geom.Range{q}}
	}
}

// feedbackOps generates n feedback uploads of labeled observations drawn
// by next.
func feedbackOps(n int, next func(int) []core.LabeledQuery) []*op {
	ops := make([]*op, n)
	for i := range ops {
		o := &op{kind: opFeedback}
		for _, z := range next(feedbackObs) {
			o.qs = append(o.qs, z.R)
			o.sels = append(o.sels, z.Sel)
		}
		ops[i] = o
	}
	return ops
}

// poissonDues assigns exponential inter-arrival gaps at rate per second.
func poissonDues(ops []*op, rate float64, seed uint64) {
	r := rng.New(seed)
	t := 0.0
	for _, o := range ops {
		t += r.ExpFloat64() / rate
		o.due = time.Duration(t * float64(time.Second))
	}
}

// encodeOps renders every op's wire bytes.
func encodeOps(ops []*op, models []*servedModel) error {
	for _, o := range ops {
		if err := encodeOp(o, models); err != nil {
			return err
		}
	}
	return nil
}

// encodeOp renders one op's wire bytes.
func encodeOp(o *op, models []*servedModel) error {
	name := []byte(models[o.model].name)
	var err error
	switch {
	case o.bin && o.kind == opEstimate:
		o.wire, err = wirebin.AppendEstimateReq(nil, name, o.qs[0])
	case o.bin && o.kind == opBatch:
		o.wire, err = wirebin.AppendEstimateBatchReq(nil, name, o.qs)
	case o.bin:
		o.wire, err = wirebin.AppendFeedbackReq(nil, name, o.qs, o.sels)
	case o.kind == opEstimate:
		body := append([]byte(`{"model":`), strconv.Quote(string(name))...)
		body = append(body, `,"query":`...)
		body = appendQueryJSON(body, o.qs[0])
		o.wire = httpRequest("/v1/estimate", append(body, '}'))
	case o.kind == opBatch:
		var body []byte
		for _, q := range o.qs {
			body = append(appendQueryJSON(body, q), '\n')
		}
		o.wire = httpRequest("/v1/estimate/stream?model="+string(name), body)
	default:
		body := append([]byte(`{"model":`), strconv.Quote(string(name))...)
		body = append(body, `,"observations":[`...)
		for i, q := range o.qs {
			if i > 0 {
				body = append(body, ',')
			}
			body = appendQueryJSON(body, q)
			body = append(body[:len(body)-1], `,"sel":`...)
			body = strconv.AppendFloat(body, o.sels[i], 'g', -1, 64)
			body = append(body, '}')
		}
		o.wire = httpRequest("/v1/feedback", append(body, ']', '}'))
	}
	if err != nil {
		return fmt.Errorf("encode request: %w", err)
	}
	return nil
}

// appendQueryJSON renders a box or ball as the server's wire-query object,
// with floats in shortest round-trip form.
func appendQueryJSON(dst []byte, q geom.Range) []byte {
	floats := func(dst []byte, p []float64) []byte {
		dst = append(dst, '[')
		for i, v := range p {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendFloat(dst, v, 'g', -1, 64)
		}
		return append(dst, ']')
	}
	switch q := q.(type) {
	case geom.Box:
		dst = append(dst, `{"lo":`...)
		dst = floats(dst, q.Lo)
		dst = append(dst, `,"hi":`...)
		dst = floats(dst, q.Hi)
	case geom.Ball:
		dst = append(dst, `{"center":`...)
		dst = floats(dst, q.Center)
		dst = append(dst, `,"radius":`...)
		dst = strconv.AppendFloat(dst, q.Radius, 'g', -1, 64)
	}
	return append(dst, '}')
}

// httpRequest renders a complete HTTP/1.1 POST.
func httpRequest(path string, body []byte) []byte {
	b := make([]byte, 0, len(body)+160)
	b = append(b, "POST "...)
	b = append(b, path...)
	b = append(b, " HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\nContent-Length: "...)
	b = strconv.AppendInt(b, int64(len(body)), 10)
	b = append(b, "\r\n\r\n"...)
	return append(b, body...)
}
