package main

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/core"
)

// checkStatic compares every served estimate bit for bit with
// core.EstimateRangesInto on the local copy of the same model, and checks
// that the serving generation never changed. It marks each mismatching
// outcome as failed and returns how many there were.
func checkStatic(models []*servedModel, ocs []outcome, wantGen int64) int64 {
	const workers = 2
	var mu sync.Mutex
	var mismatches int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var want []float64
			for i := w; i < len(ocs); i += workers {
				oc := &ocs[i]
				if oc.err != nil || oc.o.kind == opFeedback {
					continue
				}
				want = append(want[:0], make([]float64, len(oc.o.qs))...)
				core.EstimateRangesInto(models[oc.o.model].oracle, oc.o.qs, 1, want)
				if err := compareEstimates(oc.ests, want, oc.gen, wantGen); err != nil {
					mu.Lock()
					mismatches++
					oc.err = err
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	return mismatches
}

// checkRegenerated is checkStatic for closed-loop outcomes, whose queries
// were dropped once answered: it regenerates each connection's requests
// from fresh copies of the same generators, in send order.
func checkRegenerated(models []*servedModel, ocs []outcome, gens [2]gen, wantGen int64) int64 {
	var mismatches [2]int64
	var wg sync.WaitGroup
	for ci := range gens {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			var want []float64
			for i := range ocs {
				oc := &ocs[i]
				if oc.o.bin != (ci == 1) {
					continue
				}
				o := gens[ci]()
				if oc.err != nil {
					continue
				}
				want = append(want[:0], make([]float64, len(o.qs))...)
				core.EstimateRangesInto(models[o.model].oracle, o.qs, 1, want)
				if err := compareEstimates(oc.ests, want, oc.gen, wantGen); err != nil {
					mismatches[ci]++
					oc.err = err
				}
			}
		}(ci)
	}
	wg.Wait()
	return mismatches[0] + mismatches[1]
}

// compareEstimates is the oracle's verdict on one response.
func compareEstimates(got, want []float64, gen, wantGen int64) error {
	if gen != wantGen {
		return fmt.Errorf("oracle: served by generation %d, want %d", gen, wantGen)
	}
	if len(got) != len(want) {
		return fmt.Errorf("oracle: %d estimates for %d queries", len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("oracle: query %d served %v, local model gives %v", i, got[i], want[i])
		}
	}
	return nil
}

// checkOnline is the oracle for a model that changes under feedback:
// per connection, generations never decrease, and every estimate lies in
// [0,1]. Outcomes must be in each connection's send order.
func checkOnline(ocs []outcome) int64 {
	var mismatches int64
	last := [2]int64{}
	for i := range ocs {
		oc := &ocs[i]
		if oc.err != nil || oc.o.kind == opFeedback {
			continue
		}
		if err := checkOnlineOne(oc, &last); err != nil {
			oc.err = err
			mismatches++
		}
	}
	return mismatches
}

func checkOnlineOne(oc *outcome, last *[2]int64) error {
	ci := 0
	if oc.o.bin {
		ci = 1
	}
	if oc.gen < last[ci] {
		return fmt.Errorf("oracle: generation went back from %d to %d", last[ci], oc.gen)
	}
	last[ci] = oc.gen
	for _, v := range oc.ests {
		if !(v >= 0 && v <= 1) {
			return fmt.Errorf("oracle: estimate %v outside [0,1]", v)
		}
	}
	if n := max(len(oc.o.qs), oc.o.nq); len(oc.ests) != n {
		return fmt.Errorf("oracle: %d estimates for %d queries", len(oc.ests), n)
	}
	return nil
}

// verdict records an oracle pass in the report.
func verdict(rep *report, phase string, ocs []outcome, mismatches int64) {
	a, f := tally(ocs, nil)
	rep.count(a, f)
	rep.mismatches += mismatches
	for i := range ocs {
		if ocs[i].err != nil {
			rep.diag["first_failure_"+phase] = ocs[i].err.Error()
			break
		}
	}
}
