package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/online"
)

// runTrain is the offline workload: from labeled queries to evaluated
// models. Set-up generates the data and labels; the measured part trains
// QUADHIST (Power, 2-D boxes) and PTSHIST (Forest, 8-D balls) round after
// round, then evaluates the models and folds shifted feedback into the
// QUADHIST model online, all in process.
func runTrain(cfg config, rep *report) error {
	var models []*servedModel
	var totals []float64
	repeats := setupRepeats
	if cfg.trace {
		repeats = 1
	}
	for i := 0; i < repeats; i++ {
		runtime.GC() // each set-up starts from the same heap
		t0 := time.Now()
		models = []*servedModel{prepare(quadPower, "power"), prepare(ptsForest, "forest")}
		totals = append(totals, time.Since(t0).Seconds())
	}
	for _, sm := range models {
		sm.holdOut(false)
	}
	rep.set("setup_s", "s", median(totals))
	rep.set("workload.label_s", "s", totals[len(totals)-1])
	rep.diag["setup_s_all"] = totals

	// Train rounds until the time is up; every round must reproduce the
	// first round's models bit for bit. After each training the
	// in-process serving measurements take one burst each, so they sample
	// the whole run rather than one stretch of a host whose speed drifts.
	deadline := time.Now().Add(time.Duration(cfg.seconds) * time.Second)
	var caps []float64
	var lat, fb quantiles
	var first []core.Model
	var lastStats []*obs.TrainStats
	var pr *probe
	bursts := func() {
		// Training leaves garbage; collect it first so the collector
		// does not run beside the timed bursts.
		runtime.GC()
		lat = append(lat, pr.latency(latencyBurst, nil)...)
		caps = append(caps, pr.capacity())
		fb = append(fb, pr.fold(foldBurst)...)
	}
	for first == nil || time.Now().Before(deadline) {
		var ms []core.Model
		var stats []*obs.TrainStats
		for _, sm := range models {
			runtime.GC() // each training starts from the same heap
			t0 := time.Now()
			m, st, err := fit(sm)
			if err != nil {
				return err
			}
			sm.trainS = append(sm.trainS, time.Since(t0).Seconds())
			ms = append(ms, m)
			stats = append(stats, st)
			if pr != nil {
				bursts()
			}
		}
		lastStats = stats
		if first != nil {
			for k, m := range ms {
				rep.count(1, 0)
				if err := sameModel(first[k], m, models[k]); err != nil {
					rep.failed++
					rep.mismatches++
					rep.diag["first_failure_train"] = err.Error()
				}
			}
			continue
		}
		first = ms
		var err error
		if pr, err = newProbe(models, first, cfg.seed); err != nil {
			return err
		}
		bursts()
	}
	reportTrain(rep, models)
	rep.count(int64(len(models)), 0)

	// Accuracy, pooled over both models' held-out queries.
	t0 := time.Now()
	var est, truth []float64
	for _, sm := range models {
		est = append(est, core.EstimatesWith(sm.oracle, sm.test, 0)...)
		truth = append(truth, workloadTruths(sm.test)...)
	}
	rep.set("core.evaluate_s", "s", time.Since(t0).Seconds())
	for _, v := range est {
		rep.count(1, 0)
		if !(v >= 0 && v <= 1) {
			rep.failed++
			rep.mismatches++
			rep.diag["first_failure_evaluate"] = "estimate " + strconv.FormatFloat(v, 'g', -1, 64) + " outside [0,1]"
		}
	}
	rep.set("qerror_p95", "ratio", metrics.Quantile(metrics.QErrors(est, truth, qerrFloor), 0.95))

	rep.set("p50_us", "us", windowed(lat, latencyBurst, 0.5))
	rep.set("p90_us", "us", windowed(lat, latencyBurst, 0.9))
	rep.set("capacity_qps", "1/s", median(caps))
	rep.diag["capacity_qps_per_burst"] = caps
	rep.set("feedback_p50_us", "us", windowed(fb, foldBurst, 0.5))
	rep.set("feedback_p90_us", "us", windowed(fb, foldBurst, 0.9))
	rep.diag["estimate_latency"] = sorted(lat).tail()
	rep.diag["fold_latency"] = sorted(fb).tail()
	rss, err := peakRSSMB(strconv.Itoa(os.Getpid()))
	if err != nil {
		return fmt.Errorf("peak RSS: %w", err)
	}
	rep.set("rss_mb", "MB", rss)

	setLayerSetup(rep, setupTimes{label: totals[len(totals)-1], stats: lastStats})
	if cfg.trace {
		return traceTrain(cfg, rep, models, pr, lat)
	}
	return nil
}

func workloadTruths(qs []core.LabeledQuery) []float64 {
	out := make([]float64, len(qs))
	for i, z := range qs {
		out[i] = z.Sel
	}
	return out
}

// sameModel checks that a retrained model answers the held-out queries
// bit for bit like the first one (training is deterministic).
func sameModel(a, b core.Model, sm *servedModel) error {
	ra := core.EstimatesWith(a, sm.test, 0)
	rb := core.EstimatesWith(b, sm.test, 0)
	for i := range ra {
		if math.Float64bits(ra[i]) != math.Float64bits(rb[i]) {
			return fmt.Errorf("retraining %s changed held-out estimate %d: %v vs %v", sm.name, i, ra[i], rb[i])
		}
	}
	return nil
}

// Burst sizes of the per-round in-process measurements.
const (
	latencyBurst = 400 // lookups timed one by one
	foldBurst    = 100 // feedback uploads folded online
)

// probe takes the train workload's in-process serving measurements on the
// first round's models.
type probe struct {
	pool []evalQuery
	next int
	u    online.Updater
	obs  []core.LabeledQuery
	nfb  int
	all  []*servedModel
}

type evalQuery struct {
	m core.Model
	r geom.Range
}

func newProbe(models []*servedModel, trained []core.Model, seed uint64) (*probe, error) {
	p := &probe{all: models}
	for i, sm := range models {
		sm.oracle = trained[i]
		core.Accelerate(sm.oracle)
	}
	for i := 0; i < heldOut; i++ { // interleave the models' held-out queries
		for _, sm := range models {
			p.pool = append(p.pool, evalQuery{sm.oracle, sm.test[i].R})
		}
	}
	u, ok := online.ForModel(models[0].oracle, online.Options{})
	if !ok {
		return nil, fmt.Errorf("model %s is not reweightable", models[0].name)
	}
	p.u = u
	p.obs = shiftedQueries(models[0], seedFor(seed, purposeFeedback), 2000)
	return p, nil
}

// latency times n lookups one by one at one worker, in microseconds and
// call order; a lookup is the next held-out query of each model, back to
// back, so the sample is not split between two learners' cost modes. With
// a tracer, each lookup is also recorded as a span.
func (p *probe) latency(n int, t *tracer) quantiles {
	q := make(quantiles, 0, n)
	one := make([]geom.Range, 1)
	out := make([]float64, 1)
	for k := 0; k < n; k++ {
		t0 := time.Now()
		for range p.all {
			e := p.pool[p.next]
			p.next = (p.next + 1) % len(p.pool)
			one[0] = e.r
			core.EstimateRangesInto(e.m, one, 1, out)
		}
		t1 := time.Now()
		if t != nil {
			t.add("estimate", 0, k, t0, t1)
		}
		q = append(q, float64(t1.Sub(t0))/1e3)
	}
	return q
}

// capacity is one pass over all held-out queries at one worker, as
// estimates per second. At NumCPU workers on a two-vCPU host the pass
// measured how busy the other vCPU was more than the kernels: two busy
// threads each ran at about half the speed of one alone, and from run to
// run the figure moved by 40 %. core.batch_parallel_eff reports the
// parallel speed-up.
func (p *probe) capacity() float64 {
	t0 := time.Now()
	for _, sm := range p.all {
		core.EstimatesWith(sm.oracle, sm.test, 1)
	}
	return float64(len(p.pool)) / time.Since(t0).Seconds()
}

// fold folds the next n uploads of shifted feedback into the QUADHIST
// model with internal/online, timing each Apply in microseconds.
func (p *probe) fold(n int) quantiles {
	q := make(quantiles, 0, n)
	for k := 0; k < n; k++ {
		lo := p.nfb * feedbackObs % (len(p.obs) - feedbackObs)
		p.nfb++
		t0 := time.Now()
		p.u.Apply(p.obs[lo : lo+feedbackObs])
		q = append(q, float64(time.Since(t0))/1e3)
	}
	return q
}

func sorted(q quantiles) quantiles {
	s := append(quantiles(nil), q...)
	sort.Float64s(s)
	return s
}

// traceTrain reports the training ladder: one span per round, per model
// and per TrainLog stage, with stage self times and the residual.
func traceTrain(cfg config, rep *report, models []*servedModel, pr *probe, untraced quantiles) error {
	t := newTracer()
	rounds := 0
	var total time.Duration
	for r := 0; r < 2; r++ {
		t0 := time.Now()
		root := t.add("round", 0, r, t0, t0)
		for _, sm := range models {
			s0 := time.Now()
			_, st, err := fit(sm)
			if err != nil {
				return err
			}
			s1 := time.Now()
			id := t.add("train."+sm.name, root, r, s0, s1)
			at := s0
			for _, stage := range st.Stages {
				d := time.Duration(stage.Seconds * float64(time.Second))
				t.add(stage.Name, id, r, at, at.Add(d))
				at = at.Add(d)
			}
		}
		e0 := time.Now()
		for _, sm := range models {
			core.EstimatesWith(sm.oracle, sm.test, 0)
		}
		t.add("evaluate", root, r, e0, time.Now())
		t.spans[root-1].End = int64(time.Since(t.base))
		total += time.Since(t0)
		rounds++
	}
	child := map[int64]time.Duration{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.dur()
		}
	}
	self := map[string]time.Duration{}
	for _, s := range t.spans {
		d := s.dur() - child[s.ID]
		switch s.Name {
		case "tau_search", "quadtree_build":
			self["quadtree"] += d
		case "design_matrix", "solve", "evaluate":
			self[s.Name] += d
		default:
			self["residual"] += d // trainer glue, point sampling, round bookkeeping
		}
	}
	n := float64(rounds)
	for _, layer := range []string{"quadtree", "design_matrix", "solve", "evaluate"} {
		rep.set("trace.self_us."+layer, "us", float64(self[layer])/1e3/n)
	}
	rep.set("trace.residual_us", "us", float64(self["residual"])/1e3/n)
	rep.set("trace.total_us", "us", float64(total)/1e3/n)

	traced := pr.latency(len(untraced), t)
	rep.set("trace.overhead_us", "us", windowed(traced, latencyBurst, 0.5)-windowed(untraced, latencyBurst, 0.5))
	rep.set("trace.spans", "count", float64(len(t.spans)))
	kernelBench(rep, models, []core.Model{models[0].oracle, models[1].oracle}, nil)
	return t.write(filepath.Join(cfg.out, fmt.Sprintf("trace-%s-%d.json", cfg.workload, cfg.seed)))
}
