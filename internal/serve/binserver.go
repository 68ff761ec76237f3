package serve

// Binary protocol listener (DESIGN.md §15). The HTTP handlers speak JSON;
// this file serves the same estimate/feedback surface over the wirebin
// framing protocol on persistent TCP connections. Each connection gets one
// goroutine, one wirebin.Arena, and one pooled estimateScratch; frames are
// processed serially in arrival order, which is what makes pipelining's
// in-order response guarantee free. Estimates flow through the same
// pipeline as the JSON path (pipeline.go: resolve, dimension check,
// estimateBatch on one generation snapshot), so the two protocols return
// bit-identical results.
//
// processBinFrame is the steady-state unit: decode into the connection
// arena, estimate into the connection scratch, append the response frame
// to the connection's output buffer. None of that allocates, bar a
// one-query frame's cache key — the //selvet:zeroalloc annotations and
// TestBinFrameZeroAlloc hold it to zero allocs/op, mirroring the JSON
// path's TestEstimateHandlerZeroAlloc.
//
// Per-frame errors (bad frame, bad query, unknown model, oversized frame)
// are answered with a FrameError and the connection stays open: the
// framing is still intact, so there is no reason to make the client pay a
// reconnect. Only transport failures and unrecoverable framing corruption
// close the connection.

import (
	"bufio"
	"context"
	"errors"
	"io"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/wirebin"
)

// binStats holds the binary listener's metric handles. They are
// registered unconditionally in NewServer so scrapes see stable series
// whether or not -listen-bin is enabled.
type binStats struct {
	connsTotal *obs.Counter
	active     atomic.Int64
	frameEst   *obs.Counter
	frameBatch *obs.Counter
	frameFb    *obs.Counter
	frameOther *obs.Counter
	errFrames  *obs.Counter
	frameSecs  *obs.Histogram
}

func (s *Server) registerBinMetrics(reg *obs.Registry) {
	s.bin.connsTotal = reg.Counter("selserve_bin_connections_total",
		"Binary-protocol connections accepted.")
	reg.GaugeFunc("selserve_bin_connections_active",
		"Binary-protocol connections currently open.",
		func() float64 { return float64(s.bin.active.Load()) })
	const frameHelp = "Binary-protocol frames processed, by request type."
	s.bin.frameEst = reg.Counter("selserve_bin_frames_total", frameHelp,
		obs.Label{Key: "type", Value: "estimate"})
	s.bin.frameBatch = reg.Counter("selserve_bin_frames_total", frameHelp,
		obs.Label{Key: "type", Value: "estimate_batch"})
	s.bin.frameFb = reg.Counter("selserve_bin_frames_total", frameHelp,
		obs.Label{Key: "type", Value: "feedback"})
	s.bin.frameOther = reg.Counter("selserve_bin_frames_total", frameHelp,
		obs.Label{Key: "type", Value: "unknown"})
	s.bin.errFrames = reg.Counter("selserve_bin_error_frames_total",
		"Binary-protocol frames answered with an error frame.")
	s.bin.frameSecs = reg.Histogram("selserve_bin_frame_seconds",
		"Binary-protocol per-frame service time in seconds.", nil)
}

// binState is one connection's reusable workspace: the decode arena, the
// estimate scratch (shared with the HTTP path's pool), and the frame
// read/write buffers. Pooled so short-lived connections do not pay a
// fresh set of warm buffers.
type binState struct {
	arena wirebin.Arena
	req   wirebin.Request
	sc    *estimateScratch
	frame []byte // incoming frame buffer (header + payload)
	out   []byte // outgoing response frame bytes
}

var binStatePool = sync.Pool{New: func() any { return new(binState) }}

// Static error-frame messages: the error path stays allocation-free
// because every message the server originates is a constant (the typed
// wirebin decode errors are precomposed, so their Error() is a field
// read, not a format).
const (
	binMsgUnknownModel = "model not registered"
	binMsgDimMismatch  = "query dimension does not match model dimension"
	binMsgTooLarge     = "frame exceeds size limit"
)

// processBinFrame serves one request frame, appending exactly one
// response frame to st.out. It never fails: every error becomes a
// FrameError response. The estimate path performs zero heap allocations
// at steady state, except that a one-query frame with the cache on pays
// for its cache key; feedback frames deep-copy observations out of the
// arena (the feedback ring retains them), matching the JSON path's cost.
//
//selvet:zeroalloc
func (s *Server) processBinFrame(st *binState, typ byte, payload []byte) {
	switch typ {
	case wirebin.FrameEstimate:
		s.bin.frameEst.Inc()
	case wirebin.FrameEstimateBatch:
		s.bin.frameBatch.Inc()
	case wirebin.FrameFeedback:
		s.bin.frameFb.Inc()
	default:
		s.bin.frameOther.Inc()
		s.bin.errFrames.Inc()
		st.out = wirebin.AppendErrorResp(st.out, wirebin.CodeBadFrame, wirebin.ErrUnknownFrame.Error())
		return
	}
	if err := wirebin.DecodeRequest(typ, payload, &st.arena, &st.req); err != nil {
		code := byte(wirebin.CodeBadFrame)
		if errors.Is(err, wirebin.ErrBadQuery) {
			code = wirebin.CodeBadQuery
		}
		s.bin.errFrames.Inc()
		st.out = wirebin.AppendErrorResp(st.out, code, err.Error())
		return
	}
	nameBytes, entry, ok := s.resolve(st.req.Model)
	if !ok {
		s.bin.errFrames.Inc()
		st.out = wirebin.AppendErrorResp(st.out, wirebin.CodeUnknownModel, binMsgUnknownModel)
		return
	}
	for _, q := range st.req.Ranges {
		if !entry.fits(q) {
			s.bin.errFrames.Inc()
			st.out = wirebin.AppendErrorResp(st.out, wirebin.CodeBadQuery, binMsgDimMismatch)
			return
		}
	}

	switch typ {
	case wirebin.FrameEstimate, wirebin.FrameEstimateBatch:
		ests := grow(&st.sc.ests, len(st.req.Ranges))
		s.estimateBatch(nameBytes, entry, st.req.Ranges, len(st.req.Ranges) == 1, ests, obs.Span{})
		if typ == wirebin.FrameEstimate {
			st.out = wirebin.AppendEstimateResp(st.out, entry.Generation, ests[0])
		} else {
			st.out = wirebin.AppendEstimateBatchResp(st.out, entry.Generation, ests)
		}
	case wirebin.FrameFeedback:
		// The feedback ring retains observations beyond the frame, so
		// they must leave the arena; feedback frames are off the
		// estimate fast path and may allocate.
		obsList := make([]core.LabeledQuery, len(st.req.Ranges))
		for i, q := range st.req.Ranges {
			obsList[i] = core.LabeledQuery{R: cloneRange(q), Sel: st.req.Sels[i]}
		}
		//selvet:ignore zeroalloc feedback store keys by string name
		name := string(nameBytes)
		dropped := s.feedback.Add(name, obsList)
		if s.online != nil {
			s.online.ingest(name, obsList)
		}
		st.out = wirebin.AppendFeedbackResp(st.out, entry.Generation, len(obsList), dropped)
	}
}

// cloneRange deep-copies an arena-backed range so it can outlive the
// frame that carried it.
func cloneRange(r geom.Range) geom.Range {
	clone := func(p geom.Point) geom.Point { return append(geom.Point(nil), p...) }
	switch q := r.(type) {
	case *geom.Box:
		return geom.NewBox(clone(q.Lo), clone(q.Hi))
	case *geom.Halfspace:
		return geom.NewHalfspace(clone(q.A), q.B)
	case *geom.Ball:
		return geom.NewBall(clone(q.Center), q.Radius)
	}
	return r
}

// serveBinConn runs one connection's frame loop: read, process, buffer
// the response, and flush only when the read side has drained — so a
// pipelined burst pays one writev, while a lone request is answered
// immediately before the loop blocks on the next read.
func (s *Server) serveBinConn(conn net.Conn) {
	defer func() { _ = conn.Close() }() // double-close on drain is harmless

	st := binStatePool.Get().(*binState)
	defer binStatePool.Put(st)
	st.sc = scratchPool.Get().(*estimateScratch)
	// LIFO defers: the scratch is returned and unhooked from st before
	// st itself goes back to its pool.
	defer func() {
		scratchPool.Put(st.sc)
		st.sc = nil
	}()

	br := bufio.NewReaderSize(conn, 1<<16)
	bw := bufio.NewWriterSize(conn, 1<<16)
	for {
		if br.Buffered() == 0 {
			if err := bw.Flush(); err != nil {
				s.encodeFailed("bin flush", err)
				return
			}
		}
		typ, payload, err := wirebin.ReadFrame(br, &st.frame)
		if err != nil {
			switch {
			case err == io.EOF:
				return
			case errors.Is(err, wirebin.ErrFrameTooLarge):
				// Framing is intact (ReadFrame discarded the payload):
				// answer and keep serving.
				s.bin.errFrames.Inc()
				st.out = wirebin.AppendErrorResp(st.out[:0], wirebin.CodeTooLarge, binMsgTooLarge)
			default:
				// Framing corrupt or the peer vanished mid-frame: a
				// best-effort error frame, then close.
				s.bin.errFrames.Inc()
				st.out = wirebin.AppendErrorResp(st.out[:0], wirebin.CodeBadFrame, err.Error())
				if _, werr := bw.Write(st.out); werr == nil {
					if ferr := bw.Flush(); ferr != nil {
						s.encodeFailed("bin flush", ferr)
					}
				} else {
					s.encodeFailed("bin write", werr)
				}
				return
			}
		} else {
			start := time.Now()
			st.out = st.out[:0]
			s.processBinFrame(st, typ, payload)
			s.bin.frameSecs.Observe(time.Since(start).Seconds())
		}
		if _, err := bw.Write(st.out); err != nil {
			s.encodeFailed("bin write", err)
			return
		}
	}
}

// RunBin listens on addr and serves the binary protocol until ctx is
// cancelled. It is the -listen-bin counterpart of Run and is typically
// run concurrently with it; it does not start a second retrainer (model
// lifecycle stays with the HTTP listener's Serve loop).
func (s *Server) RunBin(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.ServeBin(ctx, ln)
}

// ServeBin is RunBin on an existing listener. On cancellation it stops
// accepting, then gives in-flight connections DrainTimeout to finish
// their current frames before force-closing them.
func (s *Server) ServeBin(ctx context.Context, ln net.Listener) error {
	var mu sync.Mutex
	conns := make(map[net.Conn]struct{})
	go func() {
		<-ctx.Done()
		_ = ln.Close() // unblocks Accept
	}()

	var wg sync.WaitGroup
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil {
				break
			}
			return err
		}
		s.bin.connsTotal.Inc()
		s.bin.active.Add(1)
		mu.Lock()
		conns[conn] = struct{}{}
		mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.serveBinConn(conn)
			mu.Lock()
			delete(conns, conn)
			mu.Unlock()
			s.bin.active.Add(-1)
		}()
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(s.opts.DrainTimeout):
		// Collect under the lock, close outside it: Close can block on
		// the network and must not hold the connection-set mutex.
		mu.Lock()
		open := make([]net.Conn, 0, len(conns))
		for c := range conns {
			open = append(open, c)
		}
		mu.Unlock()
		for _, c := range open {
			_ = c.Close()
		}
		<-done
		if s.logger != nil {
			s.logger.LogAttrs(context.Background(), slog.LevelWarn,
				"binary drain timeout: connections force-closed",
				slog.Int("connections", len(open)))
		}
	}
	return nil
}
