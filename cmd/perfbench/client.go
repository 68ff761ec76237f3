package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"repro/internal/wirebin"
)

// conn is one persistent client connection. A conn is used by one
// goroutine at a time. Write sends rendered requests, one or several
// pipelined; read consumes the response to one op, in send order.
type conn interface {
	Write(b []byte) (int, error)
	read(o *op, out *outcome) error
	Close() error
}

// do sends one op and reads its response.
func do(c conn, o *op, out *outcome) error {
	if _, err := c.Write(o.wire); err != nil {
		return err
	}
	return c.read(o, out)
}

// dialConns opens the benchmark's two connections: HTTP (index 0) and,
// unless binAddr is empty, binary (index 1).
func dialConns(httpAddr, binAddr string) ([2]conn, error) {
	var cs [2]conn
	hc, err := net.DialTimeout("tcp", httpAddr, 5*time.Second)
	if err != nil {
		return cs, err
	}
	cs[0] = &httpConn{Conn: hc, br: bufio.NewReaderSize(hc, 64<<10)}
	if binAddr == "" {
		return cs, nil
	}
	bc, err := net.DialTimeout("tcp", binAddr, 5*time.Second)
	if err != nil {
		_ = hc.Close() // the dial error is the one to report
		return cs, err
	}
	cs[1] = &binConn{Conn: bc, br: bufio.NewReaderSize(bc, 64<<10)}
	return cs, nil
}

func closeConns(cs [2]conn) {
	for _, c := range cs {
		if c != nil {
			_ = c.Close() // the run is over; a close error changes nothing
		}
	}
}

// binConn speaks internal/wirebin frames.
type binConn struct {
	net.Conn
	br   *bufio.Reader
	in   []byte
	resp wirebin.Response
}

func (b *binConn) read(o *op, out *outcome) error {
	typ, payload, err := wirebin.ReadFrame(b.br, &b.in)
	if err != nil {
		return err
	}
	if err := wirebin.DecodeResponse(typ, payload, &b.resp); err != nil {
		return err
	}
	out.gen = b.resp.Generation
	switch b.resp.Type {
	case wirebin.FrameError:
		return fmt.Errorf("binary error frame %d: %s", b.resp.Code, b.resp.Msg)
	case wirebin.FrameEstimateResp:
		out.ests = []float64{b.resp.Est}
	case wirebin.FrameEstimateBatchResp:
		out.ests = append([]float64(nil), b.resp.Ests...)
	}
	return nil
}

// httpConn speaks HTTP/1.1 over one keep-alive connection, writing
// pre-rendered requests and parsing responses with net/http.
type httpConn struct {
	net.Conn
	br   *bufio.Reader
	body bytes.Buffer
}

func (h *httpConn) read(o *op, out *outcome) error {
	resp, err := http.ReadResponse(h.br, nil)
	if err != nil {
		return err
	}
	h.body.Reset()
	_, err = io.Copy(&h.body, resp.Body)
	_ = resp.Body.Close() // fully read; the copy error is the one that matters
	if err != nil {
		return err
	}
	body := h.body.Bytes()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	switch o.kind {
	case opEstimate:
		if out.gen, err = jsonInt(body, `"generation":`); err != nil {
			return err
		}
		v, err := jsonFloat(body, `"estimate":`)
		if err != nil {
			return err
		}
		out.ests = []float64{v}
	case opBatch:
		if out.gen, err = strconv.ParseInt(resp.Header.Get("X-Model-Generation"), 10, 64); err != nil {
			return fmt.Errorf("stream generation header: %w", err)
		}
		out.ests = make([]float64, 0, len(o.qs))
		for len(body) > 0 {
			line, rest, _ := bytes.Cut(body, []byte{'\n'})
			body = rest
			v, err := jsonFloat(line, `{"estimate":`)
			if err != nil {
				return fmt.Errorf("stream line %d: %w (%s)", len(out.ests), err, line)
			}
			out.ests = append(out.ests, v)
		}
		if len(out.ests) != len(o.qs) {
			return fmt.Errorf("stream answered %d of %d queries", len(out.ests), len(o.qs))
		}
	}
	return nil
}

// jsonNumber returns the number that follows key in a flat JSON object.
func jsonNumber(b []byte, key string) ([]byte, error) {
	i := bytes.Index(b, []byte(key))
	if i < 0 {
		return nil, fmt.Errorf("response lacks %s", key)
	}
	b = b[i+len(key):]
	end := bytes.IndexAny(b, ",}")
	if end < 0 {
		return nil, fmt.Errorf("unterminated %s", key)
	}
	return b[:end], nil
}

func jsonFloat(b []byte, key string) (float64, error) {
	num, err := jsonNumber(b, key)
	if err != nil {
		return 0, err
	}
	return strconv.ParseFloat(string(num), 64)
}

func jsonInt(b []byte, key string) (int64, error) {
	num, err := jsonNumber(b, key)
	if err != nil {
		return 0, err
	}
	return strconv.ParseInt(string(num), 10, 64)
}
