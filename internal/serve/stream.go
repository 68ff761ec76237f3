package serve

import (
	"bufio"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/geom"
	"repro/internal/obs"
)

// The NDJSON streaming endpoint: POST /v1/estimate/stream?model=NAME.
//
// The batched JSON endpoint pays the full HTTP envelope (headers, routing,
// one response document) per request. For bulk consumers — a query
// optimizer warming its plan cache, a benchmark harness, a backfill — the
// streaming endpoint amortizes that envelope over one connection: the
// client writes one wire-query object per line, the server batches up to
// streamBatchSize parsed queries, evaluates each batch through the shared
// pipeline (pipeline.go: the deterministic kernel, honoring
// Options.EstimateWorkers; a stream is a bulk request, so it skips the
// estimate cache), and writes one {"estimate":x} line per query, in
// request order, flushing after every batch.
//
// A malformed line does not abort the stream: the server flushes the
// queries batched so far (preserving output order) and then writes an
// {"error":"query N: ..."} line in that query's position, so the client
// can still correlate responses to requests by line count.
//
// The serving model is resolved once per connection; the response header
// X-Model-Generation echoes the generation that answers the whole stream,
// so a long stream is deterministic even while hot swaps land.

// streamBatchSize bounds how many queries accumulate before the kernel
// runs. Large enough to clear core's parallel threshold (64) and amortize
// flushes; small enough that the first results of a long stream appear
// quickly.
const streamBatchSize = 256

// streamMaxLine bounds one NDJSON line (a single query object).
const streamMaxLine = 64 << 10

var streamReaderPool = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, streamMaxLine) }}
var streamWriterPool = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, 64<<10) }}

func (s *Server) handleEstimateStream(w http.ResponseWriter, r *http.Request) {
	name, entry, ok := s.resolve([]byte(r.URL.Query().Get("model")))
	if !ok {
		s.writeError(w, http.StatusNotFound, "model %q not registered", string(name))
		return
	}
	sp := obs.SpanFromContext(r.Context())

	// The handler interleaves request-body reads with response writes. Go's
	// HTTP/1 server is half-duplex by default: once the response starts, it
	// may stop delivering the rest of the body, which truncates long streams
	// whose upload is still in flight when the first batch flushes. Full
	// duplex opts out of that; writers that don't support it (HTTP/2 is
	// always full-duplex) return an error we can ignore.
	_ = http.NewResponseController(w).EnableFullDuplex()

	sc := scratchPool.Get().(*estimateScratch)
	defer scratchPool.Put(sc)
	br := streamReaderPool.Get().(*bufio.Reader)
	br.Reset(r.Body)
	defer streamReaderPool.Put(br)
	bw := streamWriterPool.Get().(*bufio.Writer)
	bw.Reset(w)
	defer streamWriterPool.Put(bw)

	h := w.Header()
	h["Content-Type"] = ndjsonContentType
	h.Set("X-Model-Generation", strconv.FormatInt(entry.Generation, 10))
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	// flush evaluates the batched queries and writes one result line per
	// query. Returning false means the client is gone and the stream ends.
	sc.resetWire()
	flush := func() bool {
		if len(sc.ranges) == 0 {
			return true
		}
		ests := grow(&sc.ests, len(sc.ranges))
		s.estimateBatch(name, entry, sc.ranges, false, ests, sp)
		out := sc.out[:0]
		for _, v := range ests {
			out = append(out, `{"estimate":`...)
			out = appendJSONFloat(out, v)
			out = append(out, '}', '\n')
		}
		sc.out = out
		_, err := bw.Write(out)
		sc.resetWire()
		if err != nil {
			s.encodeFailed("stream write", err)
			return false
		}
		return true
	}
	// fail writes one in-order error line for the current query, flushing
	// the batch ahead of it first.
	qindex := 0
	fail := func(msg string) bool {
		if !flush() {
			return false
		}
		out := append(sc.out[:0], `{"error":"query `...)
		out = strconv.AppendInt(out, int64(qindex), 10)
		out = append(out, `: `...)
		// Re-escape through the string encoder minus its quotes.
		quoted := appendJSONString(sc.strbuf[:0], []byte(msg))
		out = append(out, quoted[1:len(quoted)-1]...)
		sc.strbuf = quoted[:0]
		out = append(out, '"', '}', '\n')
		sc.out = out
		if _, err := bw.Write(out); err != nil {
			s.encodeFailed("stream write", err)
			return false
		}
		return true
	}

	var qp queryParts
	done := false
	for !done {
		line, err := br.ReadSlice('\n')
		switch {
		case err == bufio.ErrBufferFull:
			// Skip the oversized line's remainder, then report in order.
			for err == bufio.ErrBufferFull {
				_, err = br.ReadSlice('\n')
			}
			if !fail("line exceeds 64KiB") {
				return
			}
			qindex++
			continue
		case err != nil && len(line) == 0:
			done = true
			continue
		case err != nil:
			done = true // final unterminated line: parse it, then stop
		}
		if blank(line) {
			continue
		}
		p := wireParser{b: line, sc: sc}
		perr := p.parseQueryObject(&qp)
		var q = geom.Range(nil)
		if perr == nil {
			q, perr = qp.build(sc)
		}
		if perr == nil && !entry.fits(q) {
			perr = entry.dimMismatch(q, name)
		}
		if perr != nil {
			if !fail(perr.Error()) {
				return
			}
			qindex++
			continue
		}
		sc.ranges = append(sc.ranges, q)
		qindex++
		if len(sc.ranges) >= streamBatchSize {
			if !flush() {
				return
			}
			if err := bw.Flush(); err != nil {
				s.encodeFailed("stream flush", err)
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
	}
	if !flush() {
		return
	}
	if err := bw.Flush(); err != nil {
		s.encodeFailed("stream flush", err)
	}
}

// blank reports whether an NDJSON line holds only whitespace.
func blank(line []byte) bool {
	for _, c := range line {
		switch c {
		case ' ', '\t', '\r', '\n':
		default:
			return false
		}
	}
	return true
}
