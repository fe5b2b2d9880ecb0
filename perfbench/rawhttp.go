package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync/atomic"
	"time"
)

// httpConn is a minimal HTTP/1.1 client connection: keep-alive, one
// request in flight, requests built and responses read in reused
// buffers. The load generator shares its process with the servers it
// measures; net/http's client would add its own garbage, and so its
// own GC pauses, to every poll the servers answer.
type httpConn struct {
	addr  string // host:port
	dials *atomic.Int64
	c     net.Conn
	r     *bufio.Reader
	req   []byte
	body  []byte // body of the last response
}

// requestTimeout bounds one request, so that a hung server fails the
// run instead of hanging it.
const requestTimeout = 30 * time.Second

func newHTTPConn(addr string, dials *atomic.Int64) *httpConn {
	return &httpConn{addr: addr, dials: dials}
}

func (h *httpConn) close() {
	if h.c != nil {
		h.c.Close()
		h.c = nil
	}
}

// do sends one request and reads the whole response. The returned body
// is valid until the next call. Any transport error closes the
// connection; the next call dials a new one.
func (h *httpConn) do(method, path, contentType, accept string, body []byte) (int, []byte, error) {
	if h.c == nil {
		c, err := net.Dial("tcp", h.addr)
		if err != nil {
			return 0, nil, err
		}
		h.dials.Add(1)
		h.c = c
		if h.r == nil {
			h.r = bufio.NewReaderSize(c, 16<<10)
		} else {
			h.r.Reset(c)
		}
	}
	h.c.SetDeadline(time.Now().Add(requestTimeout))
	q := append(h.req[:0], method...)
	q = append(q, ' ')
	q = append(q, path...)
	q = append(q, " HTTP/1.1\r\nHost: "...)
	q = append(q, h.addr...)
	if contentType != "" {
		q = append(q, "\r\nContent-Type: "...)
		q = append(q, contentType...)
	}
	if accept != "" {
		q = append(q, "\r\nAccept: "...)
		q = append(q, accept...)
	}
	q = append(q, "\r\nContent-Length: "...)
	q = strconv.AppendInt(q, int64(len(body)), 10)
	q = append(q, "\r\n\r\n"...)
	q = append(q, body...)
	h.req = q
	if _, err := h.c.Write(q); err != nil {
		h.close()
		return 0, nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	code, err := h.read()
	if err != nil {
		h.close()
		return 0, nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	return code, h.body, nil
}

// read parses one response: status line, headers, and a body framed by
// Content-Length or chunked encoding.
func (h *httpConn) read() (int, error) {
	line, err := h.r.ReadSlice('\n')
	if err != nil {
		return 0, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, fmt.Errorf("malformed status line %q", line)
	}
	code, ok := atoi(line[9:12])
	if !ok {
		return 0, fmt.Errorf("malformed status line %q", line)
	}
	length, chunked, closing := -1, false, false
	for {
		line, err := h.r.ReadSlice('\n')
		if err != nil {
			return 0, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		name, value, ok := bytes.Cut(line, []byte(":"))
		if !ok {
			return 0, fmt.Errorf("malformed header %q", line)
		}
		value = bytes.TrimSpace(value)
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			if length, ok = atoi(value); !ok {
				return 0, fmt.Errorf("malformed Content-Length %q", value)
			}
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(value, []byte("chunked"))
		case bytes.EqualFold(name, []byte("Connection")):
			closing = bytes.EqualFold(value, []byte("close"))
		}
	}
	h.body = h.body[:0]
	switch {
	case chunked:
		err = h.readChunked()
	case length >= 0:
		err = h.readN(length)
	default:
		closing = true
		var rest []byte
		rest, err = io.ReadAll(h.r)
		h.body = append(h.body, rest...)
	}
	if err != nil {
		return 0, err
	}
	if closing {
		h.close()
	}
	return code, nil
}

func (h *httpConn) readN(n int) error {
	start := len(h.body)
	h.body = append(h.body, make([]byte, n)...)
	_, err := io.ReadFull(h.r, h.body[start:])
	return err
}

func (h *httpConn) readChunked() error {
	for {
		line, err := h.r.ReadSlice('\n')
		if err != nil {
			return err
		}
		size, _, _ := bytes.Cut(bytes.TrimRight(line, "\r\n"), []byte(";"))
		n, err := strconv.ParseInt(string(size), 16, 32)
		if err != nil || n < 0 {
			return fmt.Errorf("malformed chunk size %q", line)
		}
		if n == 0 {
			// No trailers are sent by the servers measured here.
			_, err := h.r.Discard(2)
			return err
		}
		if err := h.readN(int(n)); err != nil {
			return err
		}
		if _, err := h.r.Discard(2); err != nil {
			return err
		}
	}
}

// atoi parses a non-negative decimal without allocating.
func atoi(b []byte) (int, bool) {
	if len(b) == 0 || len(b) > 9 {
		return 0, false
	}
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}
