package main

import (
	"fmt"
	"net/http"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/wirebin"
)

// closedDepth is how many single estimates a connection writes at once in
// the closed loop before it reads their answers. With one at a time, the
// loop measures round trips (host wake-ups) more than the server; a deep
// pipeline keeps the server busy, so capacity measures serving work. On a
// two-CPU host, capacity rose from about 70k/s at 8 to about 110k/s at 32
// and 120-135k/s at 128. Bulk batches are large enough to go one at a
// time.
const closedDepth = 128

// servingPlan describes one serving workload.
type servingPlan struct {
	fams        []family
	names       []string
	online      bool    // selserve -online; feedback-online's shifted held-out set
	openRate    float64 // open-loop requests per second
	openShare   float64 // shares of -seconds per phase
	closedShare float64
	probeShare  float64 // trailing feedback phase (0: feedback rides in the open loop)
	probeRate   float64
	depth       int                                          // closed-loop requests a connection writes at once
	turns       bool                                         // closed-loop connections take turns instead of running at once
	openBoundUS float64                                      // lateBoundUS for the open loop, when not the default
	open        func(models []*servedModel, seed uint64) gen // open-loop traffic
	closed      func(models []*servedModel, seed uint64) gen // one closed-loop connection's traffic
}

func runPointReplay(cfg config, rep *report) error {
	rep.diag["repeat_share"] = replayRepeatShare
	return runServing(cfg, rep, servingPlan{
		fams:        []family{quadPower},
		names:       []string{"power"},
		openRate:    2500,
		openShare:   0.5,
		closedShare: 0.3,
		probeShare:  0.2,
		probeRate:   500,
		depth:       closedDepth,
		turns:       true,
		open:        replayGen,
		closed:      replayGen,
	})
}

func runBulkFresh(cfg config, rep *report) error {
	return runServing(cfg, rep, servingPlan{
		fams:        []family{quadPower, ptsForest},
		names:       []string{"power", "forest"},
		openRate:    200,
		openShare:   0.5,
		closedShare: 0.35,
		probeShare:  0.15,
		probeRate:   500,
		depth:       1,
		openBoundUS: 3000, // batches keep both CPUs busy for ms, which delays the generator too
		open:        bulkGen,
		closed:      bulkGen,
	})
}

func runFeedbackOnline(cfg config, rep *report) error {
	return runServing(cfg, rep, servingPlan{
		fams:        []family{quadPower},
		names:       []string{"power"},
		online:      true,
		openRate:    2000,
		openShare:   0.6,
		closedShare: 0.4,
		depth:       closedDepth,
		turns:       true,
		open: func(models []*servedModel, seed uint64) gen {
			return onlineGen(models, seed, true)
		},
		closed: func(models []*servedModel, seed uint64) gen {
			return onlineGen(models, seed, false)
		},
	})
}

// runServing sets up, drives the open-loop, closed-loop and feedback
// phases against selserve, measures accuracy over the wire, checks every
// answer, and then trains the models again for train_s.
func runServing(cfg config, rep *report, plan servingPlan) error {
	models, srv, err := setupServing(cfg, rep, plan.fams, plan.names, plan.online)
	if err != nil {
		return err
	}
	if err := withServer(srv, func() error { return driveServing(cfg, rep, plan, models, srv) }); err != nil {
		return err
	}
	if !cfg.trace {
		if err := trainAgain(models, trainsAfter); err != nil {
			return err
		}
	}
	reportTrain(rep, models)
	return nil
}

// cycles is how many times a serving run alternates its open-loop,
// closed-loop and feedback phases. Each cycle yields one value of each
// latency and capacity metric and the run reports the median over all
// cycles: on a shared host whose speed, and the placement of client and
// server threads, shift from second to second, this estimates a typical
// cycle, where a pooled figure would move with how much of the run a slow
// spell covered.
const cycles = 12

// lateBoundUS is the generator lateness p99 above which a phase counts as
// stalled; a plan may raise it for its open loop.
const lateBoundUS = 500

// stealBound is the host steal share of an open-loop phase above which
// the host, not the program, set the phase's latencies: in runs whose
// cycles had 5-28 % steal, p50_us doubled and capacity_qps fell by a
// fifth against steal-free runs of the same code.
const stealBound = 0.03

// perCycle collects one value of each metric per cycle, and the
// generator's lateness in the phase that produced it.
type perCycle struct {
	p50, p90, capacity       []float64
	feedbackP50, feedbackP90 []float64
	openLate, feedbackLate   []float64 // generator lateness p99 per phase, µs
	steal                    []float64 // host steal share of the open-loop phase
}

// lateP99 is an open-loop phase's generator lateness p99 in µs. Above its
// bound the generator did not keep its schedule, and the phase's
// latencies include its stalls.
func lateP99(ocs []outcome) float64 {
	return collect(ocs, nil, (*outcome).lateness).at(0.99)
}

func (p *perCycle) add(open, closed []outcome, elapsed time.Duration, feedback []outcome) {
	lat := collect(open, notFeedback, (*outcome).fromDue)
	p.p50 = append(p.p50, lat.at(0.5))
	p.p90 = append(p.p90, lat.at(0.9))
	p.openLate = append(p.openLate, lateP99(open))
	p.capacity = append(p.capacity, float64(queriesAnswered(closed))/elapsed.Seconds())
	fb := collect(feedback, isKind(opFeedback), (*outcome).fromDue)
	p.feedbackP50 = append(p.feedbackP50, fb.at(0.5))
	p.feedbackP90 = append(p.feedbackP90, fb.at(0.9))
	p.feedbackLate = append(p.feedbackLate, lateP99(feedback))
}

// report sets each metric to its median over all cycles. Which of them
// are bounded is BENCHMARK.json's choice; the README says why the
// latencies are not. Lateness and steal only mark validity: a run is
// valid when, in most cycles, the generator kept its schedule (the median
// over cycles of the lateness p99 stayed within openBoundUS for the open
// loop and lateBoundUS for feedback) and the host stole at most
// stealBound of the CPU time. An invalid run still reports its figures.
// The server's own load also delays the generator on a small host, so
// neither signal selects which cycles count.
func (p *perCycle) report(rep *report, openBoundUS float64) {
	rep.set("p50_us", "us", median(p.p50))
	rep.set("p90_us", "us", median(p.p90))
	rep.set("capacity_qps", "1/s", median(p.capacity))
	rep.set("feedback_p50_us", "us", median(p.feedbackP50))
	rep.set("feedback_p90_us", "us", median(p.feedbackP90))
	rep.diag["p50_us_per_cycle"] = p.p50
	rep.diag["p90_us_per_cycle"] = p.p90
	rep.diag["capacity_qps_per_cycle"] = p.capacity
	rep.diag["feedback_p50_us_per_cycle"] = p.feedbackP50
	rep.diag["feedback_p90_us_per_cycle"] = p.feedbackP90
	rep.diag["lateness_p99_us_per_cycle"] = p.openLate
	rep.diag["feedback_lateness_p99_us_per_cycle"] = p.feedbackLate
	rep.diag["open_loop_steal_share_per_cycle"] = p.steal
	openLate, fbLate, steal := median(p.openLate), median(p.feedbackLate), median(p.steal)
	var reasons []string
	if openLate > openBoundUS || fbLate > lateBoundUS {
		reasons = append(reasons, fmt.Sprintf("median generator lateness p99 over cycles %.0f us (open loop, bound %.0f) and %.0f us (feedback, bound %d): the generator missed its schedule in most cycles", openLate, openBoundUS, fbLate, lateBoundUS))
	}
	if steal > stealBound {
		reasons = append(reasons, fmt.Sprintf("median open-loop host steal share over cycles %.3f (bound %.2f): the host ran something else on this machine's CPUs in most cycles", steal, stealBound))
	}
	rep.diag["valid"] = len(reasons) == 0
	if len(reasons) > 0 {
		rep.diag["invalid_reason"] = strings.Join(reasons, "; ")
	}
}

func driveServing(cfg config, rep *report, plan servingPlan, models []*servedModel, srv *serverProc) error {
	// The generator's own garbage collections show up as lateness, and
	// the pre-generated requests are long-lived, so collect rarely while
	// driving traffic. Set-up, like the train workload, keeps the default.
	defer debug.SetGCPercent(debug.SetGCPercent(400))
	slice := func(share float64) time.Duration {
		return time.Duration(share * float64(cfg.seconds) * float64(time.Second) / cycles)
	}
	openD, closedD, probeD := slice(plan.openShare), slice(plan.closedShare), slice(plan.probeShare)

	traffic := seedFor(cfg.seed, purposeTraffic)
	openGen := plan.open(models, traffic)
	fs := newSampler(models[0], seedFor(cfg.seed, purposeFeedback))
	opens := make([][]*op, cycles)
	probes := make([][]*op, cycles)
	for c := 0; c < cycles; c++ {
		opens[c] = openGen.take(int(plan.openRate * openD.Seconds()))
		poissonDues(opens[c], plan.openRate, seedFor(seedFor(cfg.seed, purposeArrivals), uint64(c)))
		if plan.probeShare > 0 {
			probes[c] = feedbackOps(int(plan.probeRate*probeD.Seconds()), fs.label)
			poissonDues(probes[c], plan.probeRate, seedFor(seedFor(cfg.seed, purposeFeedback), uint64(c)))
		}
	}
	closedGens := func() [2]gen {
		return [2]gen{plan.closed(models, seedFor(traffic, 10)), plan.closed(models, seedFor(traffic, 11))}
	}
	warm := filterOps(plan.open(models, seedFor(traffic, 1)).take(64), notFeedback)
	for _, set := range append(append([][]*op{warm}, opens...), probes...) {
		if err := encodeOps(set, models); err != nil {
			return err
		}
	}

	cs, err := dialConns(srv.base[len("http://"):], srv.binAddr)
	if err != nil {
		return err
	}
	defer closeConns(cs)

	// Warm both connections and learn the serving generation.
	wocs := openLoop(cs, warm, nil)
	a, f := tally(wocs, nil)
	if f > 0 {
		return fmt.Errorf("warm-up failed: %v", firstErr(wocs))
	}
	gen0 := wocs[0].gen
	rep.count(a, f)

	// A static model answers the held-out set the same at any time; an
	// online one is scored after the run.
	var acc *accuracy
	if !plan.online {
		if acc, err = wireAccuracy(cs[1].(*binConn), models); err != nil {
			return err
		}
	}
	before, err := scrape(srv.base)
	if err != nil {
		return err
	}
	var ocsOpen, ocsClosed, ocsProbe []outcome
	var per perCycle
	var closedSecs float64
	gens := closedGens()
	for c := 0; c < cycles; c++ {
		steal0 := hostSteal()
		open := openLoop(cs, opens[c], nil)
		per.steal = append(per.steal, hostSteal().share(steal0))
		closed, elapsed, err := closedPhase(cs, gens, models, closedD, plan)
		if err != nil {
			return err
		}
		probe := openLoop(cs, probes[c], nil)
		fb := probe
		if plan.probeShare == 0 {
			fb = open // feedback rides in the open loop
		}
		per.add(open, closed, elapsed, fb)
		closedSecs += elapsed.Seconds()
		ocsOpen = append(ocsOpen, open...)
		ocsClosed = append(ocsClosed, closed...)
		ocsProbe = append(ocsProbe, probe...)
	}
	if plan.online {
		if acc, err = wireAccuracy(cs[1].(*binConn), models); err != nil {
			return err
		}
	}
	after, err := scrape(srv.base)
	if err != nil {
		return err
	}
	rss, err := peakRSSMB(srv.pid())
	if err != nil {
		return fmt.Errorf("server peak RSS: %w", err)
	}
	rep.set("rss_mb", "MB", rss)
	// selserve retrains from buffered feedback every 15s by default. A
	// retrain inside the measured phases would compete for the CPU and
	// could swap the model under the oracle, so such a run is refused.
	if n := after.SumCounter("selserve_retrain_runs_total"); n > 0 {
		return fmt.Errorf("selserve ran %v background retrains during the run; keep -seconds at 12 or less (selserve retrains every 15s)", n)
	}

	openBound := plan.openBoundUS
	if openBound == 0 {
		openBound = lateBoundUS
	}
	per.report(rep, openBound)
	reportOpenLoop(rep, ocsOpen)
	rep.diag["closed_loop"] = map[string]any{"requests": len(ocsClosed), "seconds": closedSecs,
		"pooled_qps": float64(queriesAnswered(ocsClosed)) / closedSecs}
	fbOcs := ocsProbe
	if plan.probeShare == 0 {
		fbOcs = ocsOpen
	}
	rep.diag["feedback_latency"] = collect(fbOcs, isKind(opFeedback), (*outcome).fromDue).tail()

	if plan.online {
		verdict(rep, "open", ocsOpen, checkOnline(ocsOpen))
		verdict(rep, "closed", ocsClosed, checkOnline(ocsClosed))
	} else {
		verdict(rep, "open", ocsOpen, checkStatic(models, ocsOpen, gen0))
		verdict(rep, "closed", ocsClosed, checkRegenerated(models, ocsClosed, closedGens(), gen0))
	}
	accMismatch := acc.check(models, gen0, plan.online)
	rep.count(int64(len(acc.ocs)), accMismatch)
	rep.mismatches += accMismatch
	verdict(rep, "feedback", ocsProbe, 0)
	rep.set("qerror_p95", "ratio", acc.qerrP95)

	if cfg.trace {
		serverLayers(rep, before, after, ocsOpen)
		// The in-process phases run without selserve beside them.
		closeConns(cs)
		if err := srv.stop(); err != nil {
			return err
		}
		return traceServing(cfg, rep, plan, models, sequence(opens))
	}
	return nil
}

// closedPhase runs one cycle's closed loop for d: both connections at
// once, or with plan.turns each for half of d in turn. Pipelined single
// estimates take turns: run at once, the two connections' client and
// server threads on a two-CPU host fell into slow spells lasting whole
// runs, and capacity moved by a third between runs; one connection at a
// time reached the same throughput and moved by a tenth.
func closedPhase(cs [2]conn, gens [2]gen, models []*servedModel, d time.Duration, plan servingPlan) ([]outcome, time.Duration, error) {
	if !plan.turns {
		return closedLoop(cs, gens, models, d, plan.depth)
	}
	var out []outcome
	var elapsed time.Duration
	for ci := range cs {
		var one [2]conn
		one[ci] = cs[ci]
		part, el, err := closedLoop(one, gens, models, d/2, plan.depth)
		if err != nil {
			return nil, 0, err
		}
		out = append(out, part...)
		elapsed += el
	}
	return out, elapsed, nil
}

// sequence joins per-cycle open-loop schedules into one, each starting
// where the previous one ended.
func sequence(chunks [][]*op) []*op {
	var out []*op
	var offset time.Duration
	for _, chunk := range chunks {
		for _, o := range chunk {
			cp := *o
			cp.due += offset
			out = append(out, &cp)
		}
		if len(chunk) > 0 {
			offset += chunk[len(chunk)-1].due
		}
	}
	return out
}

func filterOps(ops []*op, keep func(*op) bool) []*op {
	out := ops[:0:0]
	for _, o := range ops {
		if keep(o) {
			out = append(out, o)
		}
	}
	return out
}

func firstErr(ocs []outcome) error {
	for i := range ocs {
		if ocs[i].err != nil {
			return ocs[i].err
		}
	}
	return nil
}

// accuracy is the held-out evaluation over the wire.
type accuracy struct {
	ocs     []outcome
	qerrP95 float64
}

// wireAccuracy sends every model's held-out queries as binary batch
// frames and scores the returned estimates against kd-tree truths.
func wireAccuracy(bc *binConn, models []*servedModel) (*accuracy, error) {
	acc := &accuracy{}
	var est, truth []float64
	for mi, m := range models {
		for lo := 0; lo < len(m.test); lo += bulkBatch {
			hi := min(lo+bulkBatch, len(m.test))
			o := &op{kind: opBatch, bin: true, model: mi}
			for _, z := range m.test[lo:hi] {
				o.qs = append(o.qs, z.R)
				truth = append(truth, z.Sel)
			}
			var err error
			if o.wire, err = wirebin.AppendEstimateBatchReq(nil, []byte(m.name), o.qs); err != nil {
				return nil, err
			}
			oc := outcome{o: o}
			if oc.err = do(bc, o, &oc); oc.err != nil {
				return nil, fmt.Errorf("held-out batch: %w", oc.err)
			}
			est = append(est, oc.ests...)
			acc.ocs = append(acc.ocs, oc)
		}
	}
	acc.qerrP95 = metrics.Quantile(metrics.QErrors(est, truth, qerrFloor), 0.95)
	return acc, nil
}

// check runs the oracle over the held-out answers.
func (acc *accuracy) check(models []*servedModel, gen0 int64, online bool) int64 {
	if online {
		return checkOnline(acc.ocs)
	}
	return checkStatic(models, acc.ocs, gen0)
}

// scrape reads and parses the server's /metrics.
func scrape(base string) (*obs.Scrape, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return obs.ParseScrape(resp.Body)
}

// serverLayers derives the per-layer metrics that come from /metrics
// deltas over the measured phases.
func serverLayers(rep *report, before, after *obs.Scrape, ocsOpen []outcome) {
	histP := func(name, labels string, q float64) float64 {
		a, ok1 := after.HistogramSnapshot(name, labels)
		b, ok2 := before.HistogramSnapshot(name, labels)
		if !ok1 {
			return 0
		}
		if ok2 {
			a = a.Delta(b)
		}
		if a.Count == 0 {
			return 0
		}
		return a.Quantile(q) * 1e6
	}
	delta := func(name string) float64 { return after.SumCounter(name) - before.SumCounter(name) }
	route := func(r string) string { return `{route="POST ` + r + `"}` }
	est := histP("selserve_http_request_seconds", route("/v1/estimate"), 0.5)
	rep.set("serve.route_p50_us.estimate", "us", est)
	rep.set("serve.route_p50_us.stream", "us", histP("selserve_http_request_seconds", route("/v1/estimate/stream"), 0.5))
	rep.set("serve.route_p50_us.feedback", "us", histP("selserve_http_request_seconds", route("/v1/feedback"), 0.5))
	rep.set("wirebin.frame_p50_us", "us", histP("selserve_bin_frame_seconds", "", 0.5))
	httpEst := func(o *op) bool { return !o.bin && o.kind == opEstimate }
	if rt := collect(ocsOpen, httpEst, func(oc *outcome) time.Duration { return oc.end - oc.start }); len(rt) > 0 && est > 0 {
		rep.set("net.residual_p50_us", "us", rt.at(0.5)-est)
	}
	hits, misses := delta("selserve_estimate_cache_hits_total"), delta("selserve_estimate_cache_misses_total")
	if hits+misses > 0 {
		rep.set("serve.cache_hit_ratio", "ratio", hits/(hits+misses))
	}
	rep.set("online.update_p50_us", "us", histP("selserve_online_update_seconds", "", 0.5))
	rep.set("online.update_p99_us", "us", histP("selserve_online_update_seconds", "", 0.99))
	applied, published := delta("selserve_online_applied_total"), delta("selserve_online_published_total")
	if applied > 0 {
		rep.set("online.publish_ratio", "ratio", published/applied)
	}
	if published > 0 {
		rep.set("online.conflict_ratio", "ratio", delta("selserve_online_conflicts_total")/published)
	}
	rep.set("online.fallbacks", "count", delta("selserve_online_fallbacks_total"))
	rep.set("serve.feedback_lost", "count", delta("selserve_feedback_lost_total"))
}

// rangesOf flattens the queries of ops for one model.
func rangesOf(ops []*op, model int, kind opKind) []geom.Range {
	var out []geom.Range
	for _, o := range ops {
		if o.model == model && o.kind == kind {
			out = append(out, o.qs...)
		}
	}
	return out
}
