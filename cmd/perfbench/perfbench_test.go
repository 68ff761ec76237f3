package main

import (
	"bytes"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/load"
	"repro/internal/serve"
)

var (
	fixtureOnce sync.Once
	fixture     map[uint64][]*servedModel
)

// prepared returns both families' data and labels for a seed, built once
// per test binary.
func prepared(t *testing.T, seed uint64) []*servedModel {
	t.Helper()
	fixtureOnce.Do(func() { fixture = map[uint64][]*servedModel{} })
	if ms, ok := fixture[seed]; ok {
		return ms
	}
	ms := []*servedModel{prepare(quadPower, "power"), prepare(ptsForest, "forest")}
	for _, m := range ms {
		m.holdOut(false)
	}
	fixture[seed] = ms
	return ms
}

// streamBytes renders the first n requests of every generator and every
// label a workload sends or scores against (the training and held-out
// sets are fixed; feedback labels follow the seed).
func streamBytes(t *testing.T, seed uint64, n int) []byte {
	t.Helper()
	models := prepared(t, seed)
	var ops []*op
	ops = append(ops, replayGen(models, seed).take(n)...)
	ops = append(ops, bulkGen(models, seed).take(n/16)...)
	ops = append(ops, onlineGen(models, seed, true).take(n)...)
	ops = append(ops, feedbackOps(n/4, newSampler(models[0], seed).label)...)
	poissonDues(ops, 1000, seed)
	if err := encodeOps(ops, models); err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	for _, o := range ops {
		b.Write(o.wire)
		b.WriteString(strconv.FormatInt(int64(o.due), 10))
	}
	for _, m := range models {
		for _, set := range [][]core.LabeledQuery{m.train, m.test} {
			for _, z := range set {
				b.WriteString(strconv.FormatFloat(z.Sel, 'g', -1, 64))
			}
		}
	}
	return b.Bytes()
}

func TestSameSeedSameStream(t *testing.T) {
	a := streamBytes(t, 7, 600)
	fixture = map[uint64][]*servedModel{} // rebuild data and labels from scratch
	b := streamBytes(t, 7, 600)
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed produced different request streams or labels")
	}
	if c := streamBytes(t, 8, 600); bytes.Equal(a, c) {
		t.Fatal("different seeds produced the same request stream")
	}
}

// TestReplayRepeatShare checks the stated repeat share: within each plan
// search every predicate is asked once per decision (replayAsks), so all
// but the first ask repeat a query already sent.
func TestReplayRepeatShare(t *testing.T) {
	models := prepared(t, 3)
	const n = 12000
	seen := map[string]bool{}
	repeats := 0
	for _, o := range replayGen(models, 3).take(n) {
		k := string(appendQueryJSON(nil, o.qs[0]))
		if seen[k] {
			repeats++
		}
		seen[k] = true
	}
	if got := float64(repeats) / n; got != replayRepeatShare || replayRepeatShare != 0.5 {
		t.Fatalf("repeat share %v, stated %v (two asks per predicate: 0.5)", got, replayRepeatShare)
	}
	// The live working set of one plan search is a few predicates, far
	// below the server's 4096-entry cache.
	if replayPredicates >= 4096 {
		t.Fatal("plan-search working set exceeds the estimate cache")
	}
}

// TestProtocolSplit checks that single estimates go over wirebin in the
// share internal/load.DefaultMix gives binary single frames among single
// estimates, on both single-estimate workloads, and that a plan search
// keeps to one connection.
func TestProtocolSplit(t *testing.T) {
	mix := load.DefaultMix()
	want := mix[load.ClassBin] / (mix[load.ClassSingle] + mix[load.ClassBin])
	if want != 1.0/binEvery {
		t.Fatalf("binEvery %d, internal/load.DefaultMix gives a binary share of %v", binEvery, want)
	}
	models := prepared(t, 3)
	for name, g := range map[string]gen{"point-replay": replayGen(models, 3), "feedback-online": onlineGen(models, 3, true)} {
		var bin, all int
		for _, o := range g.take(4000) {
			if o.kind != opEstimate {
				continue
			}
			all++
			if o.bin {
				bin++
			}
		}
		if got := float64(bin) / float64(all); math.Abs(got-want) > 0.01 {
			t.Errorf("%s: %d of %d estimates over wirebin, want a share of %v", name, bin, all, want)
		}
	}
	ops := replayGen(models, 3).take(4000)
	for i := 0; i < len(ops); i += replayPredicates * replayAsks {
		for _, o := range ops[i : i+replayPredicates*replayAsks] {
			if o.bin != ops[i].bin {
				t.Fatalf("plan search at request %d switched protocols", i)
			}
		}
	}
}

func TestBulkNeverRepeats(t *testing.T) {
	models := prepared(t, 3)
	seen := map[string]bool{}
	for _, o := range bulkGen(models, 3).take(40) {
		for _, q := range o.qs {
			k := string(appendQueryJSON(nil, q))
			if seen[k] {
				t.Fatalf("bulk query repeated: %s", k)
			}
			seen[k] = true
		}
	}
}

// TestMetricNames checks that BENCHMARK.json at the repository root, from
// which every run takes its metric names and units, loads and that every
// name has the contract's shape.
func TestMetricNames(t *testing.T) {
	sp, err := loadSpec("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, def := range append(sp.EndToEnd, sp.PerLayer...) {
		if !metricName.MatchString(def.Name) {
			t.Errorf("metric %q does not match %s", def.Name, metricName)
		}
	}
}

// corrupting wraps a handler and nudges the estimate of the k-th response
// by one unit in the last place.
func corrupting(h http.Handler, k int) http.Handler {
	var mu sync.Mutex
	n := 0
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		mu.Lock()
		n++
		hit := n == k
		mu.Unlock()
		if hit {
			v, err := jsonFloat(body, `"estimate":`)
			if err != nil {
				panic(err)
			}
			old := strconv.FormatFloat(v, 'g', -1, 64)
			bad := strconv.FormatFloat(math.Nextafter(v, 2), 'g', -1, 64)
			body = bytes.Replace(body, []byte(`"estimate":`+old), []byte(`"estimate":`+bad), 1)
		}
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.WriteHeader(rec.Code)
		w.Write(body)
	})
}

// TestOracleCatchesCorruptedResponse plants one corrupted estimate in an
// otherwise correct served stream and checks the oracle fails exactly it.
func TestOracleCatchesCorruptedResponse(t *testing.T) {
	sm := prepared(t, 5)[0]
	m, _, err := fit(sm)
	if err != nil {
		t.Fatal(err)
	}
	core.Accelerate(m)
	models := []*servedModel{{name: "power", fam: quadPower, data: sm.data, gen: sm.gen, oracle: m}}
	ops := replayGen(models, 5).take(200)
	if err := encodeOps(ops, models); err != nil {
		t.Fatal(err)
	}
	for _, plant := range []int{0, 37} { // 0: no corruption
		t.Run(strconv.Itoa(plant), func(t *testing.T) {
			inner := serve.NewServer(serve.Options{})
			inner.Registry().Set("power", "test", m)
			srv := httptest.NewServer(corrupting(inner.Handler(), plant))
			defer srv.Close()
			cs, err := dialConns(srv.Listener.Addr().String(), "")
			if err != nil {
				t.Fatal(err)
			}
			defer closeConns(cs)
			httpOnly := filterOps(ops, func(o *op) bool { return !o.bin })
			ocs := openLoop(cs, httpOnly, nil)
			if e := firstErr(ocs); e != nil {
				t.Fatal(e)
			}
			got := checkStatic(models, ocs, ocs[0].gen)
			want := int64(0)
			if plant > 0 {
				want = 1
			}
			if got != want {
				t.Fatalf("oracle counted %d mismatches, want %d", got, want)
			}
			if plant > 0 && ocs[plant-1].err == nil {
				t.Fatalf("the corrupted response %d was not the one failed", plant-1)
			}
		})
	}
}

func TestOnlineOracle(t *testing.T) {
	mk := func(bin bool, gen int64, v float64) outcome {
		return outcome{o: &op{kind: opEstimate, bin: bin, qs: []geom.Range{geom.Box{}}}, gen: gen, ests: []float64{v}}
	}
	good := []outcome{mk(false, 1, 0.1), mk(true, 1, 0.2), mk(false, 2, 0.3), mk(true, 3, 1)}
	if n := checkOnline(good); n != 0 {
		t.Fatalf("clean stream: %d mismatches", n)
	}
	for _, bad := range [][]outcome{
		{mk(false, 2, 0.1), mk(false, 1, 0.1)}, // generation went back
		{mk(true, 1, 1.5)},                     // out of [0,1]
		{mk(true, 1, math.NaN())},
	} {
		if n := checkOnline(bad); n != 1 {
			t.Fatalf("planted fault: %d mismatches, want 1", n)
		}
	}
}
