package serve

// The estimate pipeline shared by the three codecs (JSON on
// /v1/estimate, NDJSON on /v1/estimate/stream, wirebin frames on
// -listen-bin): resolve the model, validate each query's dimension,
// estimate. Each codec keeps only its decode step and its own error and
// response encoding; everything between goes through the functions
// below, so the three protocols cannot drift apart in lookup, validation
// or cache behaviour.

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/obs"
)

// resolve applies the default model name to an empty one and looks the
// model up by name bytes. It returns the name it looked up, which the
// codecs echo in responses and error texts.
//
//selvet:zeroalloc
func (s *Server) resolve(name []byte) ([]byte, *Entry, bool) {
	if len(name) == 0 {
		name = defaultModelBytes
	}
	e, ok := s.registry.GetBytes(name)
	return name, e, ok
}

// fits reports whether q has the model's dimension; a model of unknown
// dimension (Dim 0) accepts every query.
//
//selvet:zeroalloc
func (e *Entry) fits(q geom.Range) bool {
	return e.Dim == 0 || q.Dim() == e.Dim
}

// dimMismatch is the error the text codecs report for a query that does
// not fit the model named name. wirebin answers with a constant message
// instead, so its error frames stay allocation-free.
func (e *Entry) dimMismatch(q geom.Range, name []byte) error {
	return fmt.Errorf("dimension %d, model %q has dimension %d", q.Dim(), name, e.Dim)
}

// estimateBatch fills ests[i] for every range on the shared deterministic
// kernel (core.EstimateRangesInto via its traced wrapper). Results are
// index-addressed, so the output is byte-identical for any worker count.
//
// The cache is consulted only when oneQuery is set: ranges is a whole
// request that carries exactly one query. Keying, looking up and
// inserting a missed query costs about as much as the kernel itself, and
// in practice only one-query requests repeat (an optimizer re-asking a
// predicate), so every batch goes straight to the kernel. A stream is a
// bulk request and passes false even for a batch of one. When sp is an
// active trace span, the cache lookup and the kernel fan-out appear as
// its children; untraced, every span call is an inert value-copy.
//
//selvet:zeroalloc
func (s *Server) estimateBatch(name []byte, entry *Entry, ranges []geom.Range, oneQuery bool, ests []float64, sp obs.Span) {
	if s.estCache == nil || !oneQuery {
		core.EstimateRangesTraced(entry.Model, ranges, s.opts.EstimateWorkers, ests, sp)
		return
	}
	lookup := sp.Child("serve.cache_lookup")
	key, ok := QueryKey(ranges[0])
	//selvet:ignore zeroalloc the estimate cache keys by model-name string; only one-query requests pay this conversion
	model := string(name)
	if ok {
		if v, hit := s.estCache.Get(model, entry.Generation, key); hit {
			ests[0] = v
			lookup.Items = 1 // cache hits
			lookup.End()
			return
		}
	}
	lookup.End()
	core.EstimateRangesTraced(entry.Model, ranges, s.opts.EstimateWorkers, ests, sp)
	if ok {
		s.estCache.Put(model, entry.Generation, key, ests[0])
	}
}
