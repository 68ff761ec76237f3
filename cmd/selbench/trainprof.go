package main

// The -trainprof mode: per-family training profiles on one synthetic
// labeled workload, printed as TrainStats summary lines. It answers
// "where does training time go for each method?" from the command line,
// using the same obs.TrainLog instrumentation that seltrain -trace and
// the serving retrainer expose — no `go test -bench` harness needed.

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/hist"
	"repro/internal/isomer"
	"repro/internal/load"
	"repro/internal/obs"
	"repro/internal/ptshist"
	"repro/internal/quicksel"
)

// trainProfWorkload labels n synthetic box queries with a grid-model
// ground truth (load.GridModel), so every family trains on identical,
// deterministic feedback.
func trainProfWorkload(n int) []core.LabeledQuery {
	truth := load.GridModel(4096, 0)
	core.Accelerate(truth)
	qs := load.GridQueries(7, n)
	samples := make([]core.LabeledQuery, len(qs))
	for i, q := range qs {
		samples[i] = core.LabeledQuery{R: q, Sel: truth.Estimate(q)}
	}
	return samples
}

// runTrainProf trains each model family on the synthetic workload and
// prints one stage-timing line per family.
func runTrainProf(w io.Writer, n int) error {
	samples := trainProfWorkload(n)
	nTrain := len(samples)
	buckets := 4 * nTrain
	const dim = 2

	families := []struct {
		name string
		make func(log *obs.TrainLog) core.Trainer
	}{
		{"quadhist", func(log *obs.TrainLog) core.Trainer {
			tr := hist.New(dim, buckets)
			tr.Log = log
			return tr
		}},
		{"ptshist", func(log *obs.TrainLog) core.Trainer {
			tr := ptshist.New(dim, buckets, 1)
			tr.Log = log
			return tr
		}},
		{"quicksel", func(log *obs.TrainLog) core.Trainer {
			tr := quicksel.New(dim, 1)
			tr.Log = log
			return tr
		}},
		{"isomer", func(log *obs.TrainLog) core.Trainer {
			tr := isomer.New(dim)
			tr.Log = log
			return tr
		}},
	}

	if _, err := fmt.Fprintf(w, "training profile (%d queries, dim %d, %d buckets)\n", nTrain, dim, buckets); err != nil {
		return err
	}
	for _, fam := range families {
		log := obs.NewTrainLog(obs.Span{})
		tr := fam.make(log)
		if _, err := tr.Train(samples); err != nil {
			if _, werr := fmt.Fprintf(w, "%-9s error: %v\n", fam.name, err); werr != nil {
				return werr
			}
			continue
		}
		if _, err := fmt.Fprintf(w, "%-9s %s\n", fam.name, log.Stats().Summary()); err != nil {
			return err
		}
	}
	return nil
}
