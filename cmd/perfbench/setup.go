package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/hist"
	"repro/internal/modelio"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/ptshist"
	"repro/internal/rng"
	"repro/internal/workload"
)

// Sizes shared by every workload. The two learners follow the paper's
// convention of four buckets per training query.
const (
	dataRows      = 20000
	powerTrain    = 500
	powerBuckets  = 4 * powerTrain
	powerMaxSide  = 0.5 // optimizer predicates: boxes up to half the domain per side
	forestTrain   = 800
	forestPoints  = 4 * forestTrain
	forestRadius  = 1.0 // the paper's ball radius range [0,1]
	heldOut       = 4000
	qerrFloor     = 1e-3 // selectivities below 0.1% count as equal in q-error
	setupRepeats  = 7    // setup_s is the median of this many complete set-ups
	trainsAfter   = 7    // serving workloads train each model this many more times after the traffic
	shiftedCenter = 0.7  // Gaussian centre of the shifted feedback distribution
)

// family names a learner and the data/query class it is served on.
type family int

const (
	quadPower family = iota // QUADHIST on Power, 2-D boxes
	ptsForest               // PTSHIST on Forest, 8-D balls
)

// servedModel is one trained model with everything the benchmark needs
// to generate its traffic and check its answers.
type servedModel struct {
	name   string
	fam    family
	data   *dataset.Dataset
	gen    *workload.Generator // owns the kd-tree used for exact labels
	oracle core.Model          // local copy loaded from the served snapshot
	train  []core.LabeledQuery // training queries with kd-tree truths
	test   []core.LabeledQuery // held-out queries with kd-tree truths
	path   string              // snapshot file the server loads
	trainS []float64           // seconds of each training of this model in the run
}

// setupTimes are the stage timings of one set-up.
type setupTimes struct {
	total, label, save, load, accelerate float64
	trains                               []float64 // per model, in the workload's order
	stats                                []*obs.TrainStats
}

// seedFor derives an independent stream seed for one purpose.
func seedFor(seed uint64, purpose uint64) uint64 { return parallel.DeriveSeed(seed, purpose) }

// Stream purposes for seedFor.
const (
	purposeData uint64 = iota + 1
	purposeTrain
	purposeHeld
	purposeModel
	purposeTraffic
	purposeFeedback
	purposeArrivals
)

// modelSeed fixes the data, the training queries and the held-out
// queries, so every run serves and scores the same models: accuracy and
// training work do not vary with -seed, which drives the traffic, the
// arrival times and the feedback.
const modelSeed = 1

// prepare generates a family's data and labels its training queries with
// kd-tree truths.
func prepare(fam family, name string) *servedModel {
	sm := &servedModel{name: name, fam: fam}
	n := powerTrain
	var spec workload.Spec
	switch fam {
	case quadPower:
		sm.data = dataset.Power(dataRows, seedFor(modelSeed, purposeData)).Project([]int{0, 1})
		spec = workload.Spec{Class: workload.OrthogonalRange, Centers: workload.DataDriven, MaxSide: powerMaxSide}
	case ptsForest:
		sm.data = dataset.Forest(dataRows, seedFor(modelSeed, purposeData)).NumericProjection(8)
		spec = workload.Spec{Class: workload.Ball, Centers: workload.DataDriven, MaxRadius: forestRadius}
		n = forestTrain
	}
	sm.gen = workload.NewGenerator(sm.data, seedFor(modelSeed, purposeTrain))
	sm.train = sm.gen.Generate(spec, n)
	return sm
}

// holdOut labels the held-out queries: from the training distribution, or
// from the shifted one when shifted is set.
func (sm *servedModel) holdOut(shifted bool) {
	if shifted {
		sm.test = shiftedQueries(sm, seedFor(modelSeed, purposeHeld), heldOut)
		return
	}
	sm.test = newSampler(sm, seedFor(modelSeed, purposeHeld)).label(heldOut)
}

// fit trains the family's learner on the prepared training set.
func fit(sm *servedModel) (core.Model, *obs.TrainStats, error) {
	log := obs.NewTrainLog(obs.Span{})
	var m core.Model
	var err error
	switch sm.fam {
	case quadPower:
		tr := hist.New(2, powerBuckets)
		tr.Log = log
		m, err = tr.Train(sm.train)
	case ptsForest:
		tr := ptshist.New(8, forestPoints, seedFor(modelSeed, purposeModel))
		tr.Log = log
		m, err = tr.Train(sm.train)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("train %s: %w", sm.name, err)
	}
	return m, log.Stats(), nil
}

// buildModel prepares and trains a model, snapshots it to dir and
// reloads the snapshot as the oracle copy.
func buildModel(fam family, name string, dir string, st *setupTimes) (*servedModel, error) {
	t0 := time.Now()
	sm := prepare(fam, name)
	st.label += time.Since(t0).Seconds()

	t0 = time.Now()
	m, stats, err := fit(sm)
	if err != nil {
		return nil, err
	}
	st.trains = append(st.trains, time.Since(t0).Seconds())
	st.stats = append(st.stats, stats)

	t0 = time.Now()
	core.Accelerate(m)
	var buf bytes.Buffer
	if err := modelio.SaveBinary(&buf, m); err != nil {
		return nil, fmt.Errorf("snapshot %s: %w", name, err)
	}
	sm.path = filepath.Join(dir, name+".snap")
	if err := os.WriteFile(sm.path, buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	st.save += time.Since(t0).Seconds()

	t0 = time.Now()
	data, err := os.ReadFile(sm.path)
	if err != nil {
		return nil, err
	}
	if sm.oracle, err = modelio.LoadAnyBytes(data); err != nil {
		return nil, fmt.Errorf("reload %s: %w", name, err)
	}
	st.load += time.Since(t0).Seconds()
	t0 = time.Now()
	core.Accelerate(sm.oracle)
	st.accelerate += time.Since(t0).Seconds()
	return sm, nil
}

// shiftedQueries draws labeled boxes from shiftedBox: the
// feedback-online workload's feedback and held-out set.
func shiftedQueries(sm *servedModel, seed uint64, n int) []core.LabeledQuery {
	r := rng.New(seed)
	out := make([]core.LabeledQuery, n)
	for i := range out {
		q := shiftedBox(r, sm.data.Dim())
		out[i] = core.LabeledQuery{R: q, Sel: sm.gen.Tree().Selectivity(q)}
	}
	return out
}

// shiftedBox draws a d-dimensional box whose centre follows a Gaussian
// moved away from the data-driven training distribution (the train/test
// shift setting).
func shiftedBox(r *rng.RNG, d int) geom.Box {
	c := make(geom.Point, d)
	side := make([]float64, d)
	for k := range c {
		c[k] = min(max(shiftedCenter+workload.DefaultGaussStd*r.NormFloat64(), 0), 1)
		side[k] = powerMaxSide * r.Float64()
	}
	return geom.BoxFromCenter(c, side)
}

// setupServing builds the workload's models and starts selserve on them,
// with -online when online is set. It repeats the whole set-up
// setupRepeats times and keeps the last server; setup_s is the median.
// Each model's training times go to its trainS. The held-out queries,
// shifted for an online workload, are labeled outside the timed set-ups.
func setupServing(cfg config, rep *report, fams []family, names []string, online bool) ([]*servedModel, *serverProc, error) {
	dir := cfg.runDir
	repeats := setupRepeats
	if cfg.trace {
		repeats = 1
	}
	// Label the held-out queries before the timed set-ups, so the last
	// server's lifetime is spent measuring (see driveServing).
	tests := make([][]core.LabeledQuery, len(fams))
	for k, fam := range fams {
		sm := prepare(fam, names[k])
		sm.holdOut(online)
		tests[k] = sm.test
	}
	var totals []float64
	trains := make([][]float64, len(fams))
	var models []*servedModel
	var srv *serverProc
	var last setupTimes
	for i := 0; i < repeats; i++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return nil, nil, err
			}
		}
		runtime.GC() // each set-up starts from the same heap
		var st setupTimes
		t0 := time.Now()
		models = models[:0]
		for k, fam := range fams {
			sm, err := buildModel(fam, names[k], dir, &st)
			if err != nil {
				return nil, nil, err
			}
			models = append(models, sm)
		}
		var err error
		if srv, err = startServer(cfg, dir, models, online); err != nil {
			return nil, nil, err
		}
		st.total = time.Since(t0).Seconds()
		totals = append(totals, st.total)
		for k, t := range st.trains {
			trains[k] = append(trains[k], t)
		}
		last = st
	}
	rep.set("setup_s", "s", median(totals))
	rep.diag["setup_s_all"] = totals
	setLayerSetup(rep, last)
	for k, sm := range models {
		sm.test = tests[k]
		sm.trainS = trains[k]
	}
	return models, srv, nil
}

// trainAgain trains each model n more times, each after a garbage
// collection as in set-up, and adds the times to its trainS. Serving
// workloads call it once the server has stopped, so that train_s samples
// both ends of the run: one training's time moved by up to a third
// within seconds on a shared host, while a fixed compute loop beside it
// moved by a twentieth, and spells of either speed lasted seconds.
func trainAgain(models []*servedModel, n int) error {
	for i := 0; i < n; i++ {
		for _, sm := range models {
			runtime.GC()
			t0 := time.Now()
			if _, _, err := fit(sm); err != nil {
				return err
			}
			sm.trainS = append(sm.trainS, time.Since(t0).Seconds())
		}
	}
	return nil
}

// reportTrain sets train_s, the sum over the workload's models of the
// median time to train each, and lists every training's time.
func reportTrain(rep *report, models []*servedModel) {
	total := 0.0
	all := make(map[string][]float64, len(models))
	for _, sm := range models {
		total += median(sm.trainS)
		all[sm.name] = sm.trainS
	}
	rep.set("train_s", "s", total)
	rep.diag["train_s_all"] = all
}

// setLayerSetup reports the set-up stages as per-layer metrics.
func setLayerSetup(rep *report, st setupTimes) {
	rep.set("workload.label_s", "s", st.label)
	rep.set("modelio.save_s", "s", st.save)
	rep.set("modelio.load_s", "s", st.load)
	rep.set("core.accelerate_s", "s", st.accelerate)
	var quad, design, solve, iters float64
	for _, s := range st.stats {
		quad += s.StageSeconds("tau_search") + s.StageSeconds("quadtree_build")
		design += s.StageSeconds("design_matrix")
		solve += s.StageSeconds("solve")
		iters += float64(s.SolverIterations)
	}
	rep.set("quadtree.build_s", "s", quad)
	rep.set("core.design_matrix_s", "s", design)
	rep.set("solver.solve_s", "s", solve)
	rep.set("solver.iterations", "count", iters)
}

// serverProc is a running selserve process.
type serverProc struct {
	cmd      *exec.Cmd
	base     string // http://host:port
	binAddr  string
	stderr   *bytes.Buffer
	done     chan struct{}
	waitErr  error
	stopping bool
}

// freeAddrs reserves n loopback ports and releases them for the server.
// Every listener stays open until all are chosen: a port released at
// once could be handed out again for the next, and selserve then failed
// to bind its second listener.
func freeAddrs(n int) ([]string, error) {
	var lns []net.Listener
	defer func() {
		for _, ln := range lns {
			_ = ln.Close() // only the port number was needed
		}
	}()
	var addrs []string
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs, nil
}

// startServer runs selserve with its shipped defaults plus only the flags
// the workload needs, and waits until it answers /healthz and accepts
// binary connections.
func startServer(cfg config, dir string, models []*servedModel, online bool) (*serverProc, error) {
	addrs, err := freeAddrs(2)
	if err != nil {
		return nil, err
	}
	httpAddr, binAddr := addrs[0], addrs[1]
	args := []string{"-addr", httpAddr, "-listen-bin", binAddr}
	if online {
		args = append(args, "-online")
	}
	for _, m := range models {
		args = append(args, "-model", m.name+"="+m.path)
	}
	cmd := exec.Command(cfg.selserve, args...)
	cmd.Dir = dir
	p := &serverProc{cmd: cmd, base: "http://" + httpAddr, binAddr: binAddr, stderr: &bytes.Buffer{}, done: make(chan struct{})}
	cmd.Stderr = &capped{buf: p.stderr, limit: 64 << 10}
	// The server dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start selserve: %w", err)
	}
	go func() {
		p.waitErr = cmd.Wait()
		close(p.done)
	}()
	if err := p.waitHealthy(20 * time.Second); err != nil {
		_ = p.stop()
		return nil, fmt.Errorf("selserve never became healthy: %w; stderr: %s", err, p.stderr.String())
	}
	return p, nil
}

func (p *serverProc) waitHealthy(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	client := &http.Client{Timeout: time.Second}
	for {
		select {
		case <-p.done:
			return fmt.Errorf("exited: %v", p.waitErr)
		default:
		}
		resp, err := client.Get(p.base + "/healthz")
		if err == nil {
			_ = resp.Body.Close() // only the status matters
			if resp.StatusCode == http.StatusOK {
				if c, err := net.DialTimeout("tcp", p.binAddr, time.Second); err == nil {
					client.CloseIdleConnections()
					return c.Close()
				}
			}
		}
		if time.Now().After(deadline) {
			return errors.New("timed out")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// pid returns the server's process id as a /proc path element.
func (p *serverProc) pid() string { return strconv.Itoa(p.cmd.Process.Pid) }

// stop sends SIGTERM, waits for the drain, and kills after a deadline.
func (p *serverProc) stop() error {
	if p.stopping {
		<-p.done
		return nil
	}
	p.stopping = true
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(15 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
		return errors.New("selserve did not drain within 15s")
	}
	var ee *exec.ExitError
	if p.waitErr != nil && !errors.As(p.waitErr, &ee) {
		return p.waitErr
	}
	if p.waitErr != nil {
		return fmt.Errorf("selserve exited: %v; stderr: %s", p.waitErr, p.stderr.String())
	}
	return nil
}

// capped is an io.Writer keeping at most limit bytes.
type capped struct {
	mu    sync.Mutex
	buf   *bytes.Buffer
	limit int
}

func (c *capped) Write(b []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if room := c.limit - c.buf.Len(); room > 0 {
		c.buf.Write(b[:min(len(b), room)])
	}
	return len(b), nil
}

// withServer runs fn and always stops the server afterwards.
func withServer(srv *serverProc, fn func() error) error {
	err := fn()
	if serr := srv.stop(); err == nil {
		err = serr
	}
	return err
}

// median is NaN when v is empty or holds a NaN, so that a value that
// could not be measured stays visible as one.
func median(v []float64) float64 {
	if len(v) == 0 || slices.ContainsFunc(v, math.IsNaN) {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func parseFloat(s string) (float64, error) { return strconv.ParseFloat(s, 64) }
