package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// outcome is what happened to one op.
type outcome struct {
	o          *op
	free       time.Duration // when its connection could take it: max(due, previous completion)
	start, end time.Duration // dispatch and completion, after the phase epoch
	gen        int64
	ests       []float64
	err        error
}

// lateness is the generator's own scheduling error: how long after the op
// was due, or after its connection came free if that was later, it was
// dispatched. Waiting for a busy connection is not lateness; it still
// counts in the latency from due.
func (oc *outcome) lateness() time.Duration { return oc.start - oc.free }

// fromDue is the op's latency measured from when it was due.
func (oc *outcome) fromDue() time.Duration { return oc.end - oc.o.due }

// openLoop sends every op at its due time on its connection. Each of the
// two connections has its own sender goroutine; an op whose connection is
// still busy when it falls due leaves late, and its latency still counts
// from the due time.
func openLoop(cs [2]conn, ops []*op, spans *tracer) []outcome {
	out := make([]outcome, len(ops))
	epoch := time.Now()
	var wg sync.WaitGroup
	for ci := range cs {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			var prev time.Duration
			for i, o := range ops {
				if o.bin != (ci == 1) {
					continue
				}
				waitUntil(epoch, o.due)
				oc := &out[i]
				oc.o = o
				oc.free = max(o.due, prev)
				oc.start = time.Since(epoch)
				oc.err = do(cs[ci], o, oc)
				oc.end = time.Since(epoch)
				prev = oc.end
				spans.request(epoch, i, oc)
			}
		}(ci)
	}
	wg.Wait()
	return out
}

// closedLoop keeps each connection that is not nil busy for d with
// requests drawn from its own generator, depth at a time: it writes depth
// requests in one go, reads their responses, and repeats. It returns what completed plus
// the elapsed time. Requests are generated and encoded as they are sent,
// and their queries and bytes dropped once answered, so a run's size does
// not depend on how many requests it can pre-generate; regenerate the
// same generators to check the answers (checkRegenerated).
func closedLoop(cs [2]conn, gens [2]gen, models []*servedModel, d time.Duration, depth int) ([]outcome, time.Duration, error) {
	res := [2][]outcome{}
	errs := [2]error{}
	epoch := time.Now()
	var wg sync.WaitGroup
	for ci := range cs {
		if cs[ci] == nil {
			continue
		}
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			batch := make([]*op, depth)
			var buf []byte
			for time.Since(epoch) < d {
				buf = buf[:0]
				for j := range batch {
					o := gens[ci]()
					o.bin = ci == 1
					if errs[ci] = encodeOp(o, models); errs[ci] != nil {
						return
					}
					batch[j] = o
					buf = append(buf, o.wire...)
				}
				start := time.Since(epoch)
				if _, errs[ci] = cs[ci].Write(buf); errs[ci] != nil {
					return
				}
				for _, o := range batch {
					o.due = start
					oc := outcome{o: o, free: start, start: start}
					oc.err = cs[ci].read(o, &oc)
					oc.end = time.Since(epoch)
					o.nq, o.qs, o.wire = len(o.qs), nil, nil
					res[ci] = append(res[ci], oc)
					if oc.err != nil {
						return // the rest of the pipeline is out of step
					}
				}
			}
		}(ci)
	}
	wg.Wait()
	elapsed := time.Since(epoch)
	if errs[0] != nil {
		return nil, 0, errs[0]
	}
	return append(res[0], res[1]...), elapsed, errs[1]
}

// tally counts attempted and failed outcomes, optionally only of one kind.
func tally(ocs []outcome, keep func(*op) bool) (attempted, failed int64) {
	for i := range ocs {
		if keep != nil && !keep(ocs[i].o) {
			continue
		}
		attempted++
		if ocs[i].err != nil {
			failed++
		}
	}
	return attempted, failed
}

// quantiles is a sorted sample of durations in microseconds.
type quantiles []float64

// collect gathers val of the successful outcomes that keep accepts, in
// microseconds, sorted.
func collect(ocs []outcome, keep func(*op) bool, val func(*outcome) time.Duration) quantiles {
	q := inOrder(ocs, keep, val)
	sort.Float64s(q)
	return q
}

// inOrder is collect without the sort: values stay in send order.
func inOrder(ocs []outcome, keep func(*op) bool, val func(*outcome) time.Duration) quantiles {
	q := make(quantiles, 0, len(ocs))
	for i := range ocs {
		oc := &ocs[i]
		if oc.err != nil || (keep != nil && !keep(oc.o)) {
			continue
		}
		q = append(q, float64(val(oc))/1e3)
	}
	return q
}

// windowed splits send-ordered values into consecutive windows of k,
// takes the p-quantile of each, and returns the median over windows (the
// quantile of all values when there is not one whole window).
func windowed(vals quantiles, k int, p float64) float64 {
	var per []float64
	for lo := 0; lo+k <= len(vals); lo += k {
		per = append(per, sorted(vals[lo:lo+k]).at(p))
	}
	if len(per) == 0 {
		return sorted(vals).at(p)
	}
	return median(per)
}

// at returns the p-quantile by linear interpolation (NaN when empty).
func (q quantiles) at(p float64) float64 {
	if len(q) == 0 {
		return math.NaN()
	}
	pos := p * float64(len(q)-1)
	lo := int(pos)
	if lo+1 >= len(q) {
		return q[len(q)-1]
	}
	f := pos - float64(lo)
	return q[lo]*(1-f) + q[lo+1]*f
}

// tail describes a latency sample for the diagnostics line: the median,
// p90, and p99/p999 only when at least ten samples lie beyond them.
func (q quantiles) tail() map[string]any {
	m := map[string]any{"count": len(q)}
	if len(q) == 0 {
		return m
	}
	m["p50_us"] = q.at(0.5)
	m["p90_us"] = q.at(0.9)
	if len(q) >= 1000 {
		m["p99_us"] = q.at(0.99)
	}
	if len(q) >= 10000 {
		m["p999_us"] = q.at(0.999)
	}
	m["max_us"] = q[len(q)-1]
	return m
}

func isKind(k opKind) func(*op) bool { return func(o *op) bool { return o.kind == k } }

func notFeedback(o *op) bool { return o.kind != opFeedback }

// queriesAnswered counts estimates returned by successful outcomes.
func queriesAnswered(ocs []outcome) int {
	n := 0
	for i := range ocs {
		if ocs[i].err == nil {
			n += len(ocs[i].ests)
		}
	}
	return n
}

// reportOpenLoop records the open-loop latency tails and the generator's
// lateness.
func reportOpenLoop(rep *report, ocs []outcome) {
	lat := collect(ocs, notFeedback, (*outcome).fromDue)
	late := collect(ocs, nil, (*outcome).lateness)
	rep.diag["open_loop_latency"] = lat.tail()
	rep.diag["open_loop_latency_http"] = collect(ocs, func(o *op) bool { return !o.bin && o.kind != opFeedback }, (*outcome).fromDue).tail()
	rep.diag["open_loop_latency_bin"] = collect(ocs, func(o *op) bool { return o.bin }, (*outcome).fromDue).tail()
	rep.diag["lateness"] = late.tail()
	rep.set("load.lateness_p50_us", "us", late.at(0.5))
	rep.set("load.lateness_p99_us", "us", late.at(0.99))
}
