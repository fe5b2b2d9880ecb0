package federation

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httputil"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"hetsched/internal/service"
)

// The daemon-mode hop's budgets: a dial gets dialTimeout, and a
// forward's request write plus the head of its answer (and the body,
// when it fits the read buffer) get responseHeaderTimeout. Streamed
// answers have no overall budget — SSE streams are never cut — and end
// with the downstream request instead.
const (
	dialTimeout           = 10 * time.Second
	responseHeaderTimeout = 10 * time.Second
	// maxIdlePerTarget bounds the keep-alive connections pooled for
	// one remote target.
	maxIdlePerTarget = 64
	// upReadBuffer is each pooled connection's read buffer: answers
	// whose Content-Length fits are relayed straight out of it.
	upReadBuffer = 4 << 10
)

// proxyHeaders are the request headers the hop forwards: the
// content negotiation pair (JSON vs binary frame is the backend's
// decision, the body passes through opaque either way) and the SSE
// resume cursor. The names are in canonical form, so Header.Get
// finds them without allocating.
var proxyHeaders = [...]string{"Content-Type", "Accept", "Last-Event-Id", "Cache-Control"}

// responseHeaders are the answer headers the hop relays: content
// type and length, the SSE pair, and the 503 back-off hint.
var responseHeaders = [...]string{"Content-Type", "Content-Length", "Cache-Control", "X-Accel-Buffering", "Retry-After"}

// upstream is the daemon-mode hop to one remote target: a pool of
// keep-alive HTTP/1.1 connections that the forwarding goroutine drives
// itself, with no read or write loop of its own.
type upstream struct {
	addr   string // host:port to dial
	host   string // Host header
	prefix string // path of Target.URL, prepended to every request URI

	mu   sync.Mutex
	idle []*upConn
}

// upConn is one pooled connection with its read buffer and the
// scratch its requests are built in.
type upConn struct {
	net.Conn
	r   *bufio.Reader
	out []byte
}

func newUpstream(rawURL string) (*upstream, error) {
	u, err := url.Parse(rawURL)
	if err != nil {
		return nil, err
	}
	if u.Scheme != "http" || u.Host == "" {
		return nil, fmt.Errorf("URL %q: want http://host[:port]", rawURL)
	}
	port := u.Port()
	if port == "" {
		port = "80"
	}
	return &upstream{
		addr:   net.JoinHostPort(u.Hostname(), port),
		host:   u.Host,
		prefix: strings.TrimSuffix(u.Path, "/"),
	}, nil
}

// get pops the most recently pooled connection, or dials a new one.
func (u *upstream) get(ctx context.Context) (*upConn, error) {
	u.mu.Lock()
	if n := len(u.idle); n > 0 {
		c := u.idle[n-1]
		u.idle = u.idle[:n-1]
		u.mu.Unlock()
		return c, nil
	}
	u.mu.Unlock()
	d := net.Dialer{Timeout: dialTimeout}
	nc, err := d.DialContext(ctx, "tcp", u.addr)
	if err != nil {
		return nil, err
	}
	return &upConn{Conn: nc, r: bufio.NewReaderSize(nc, upReadBuffer)}, nil
}

// put returns a connection whose last answer was read to its end.
func (u *upstream) put(c *upConn) {
	u.mu.Lock()
	if len(u.idle) < maxIdlePerTarget {
		u.idle = append(u.idle, c)
		c = nil
	}
	u.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// flush closes every idle connection. A transport error usually means
// the peer restarted or died, which leaves all of them stale; without
// a read loop per connection, nothing else would notice.
func (u *upstream) flush() {
	u.mu.Lock()
	idle := u.idle
	u.idle = nil
	u.mu.Unlock()
	for _, c := range idle {
		c.Close()
	}
}

// upHead is the parsed head of an upstream answer.
type upHead struct {
	status  int
	length  int64 // -1 when the head carries no Content-Length
	chunked bool
	close   bool
	vals    [len(responseHeaders)]string // by index into responseHeaders
}

// hop sends one request — method, uri, the content type ctype, r's
// other proxyHeaders and body — to remote target t over a pooled
// connection, and relays the answer into w. The head and body go out
// in one write; the answer is read on this goroutine. A transport
// error before the answer's head reaches w answers 503 (see
// unreachable) and flushes the target's pool; the request is never
// retried, the client's re-poll is the retry.
func (rt *Router) hop(w http.ResponseWriter, r *http.Request, t int, method, uri, ctype string, body []byte) {
	up := rt.ups[t]
	ctx := r.Context()
	c, err := up.get(ctx)
	if err != nil {
		rt.hopFailed(w, r, t)
		return
	}
	c.out = appendRequest(c.out[:0], up, method, uri, ctype, r.Header, body)
	c.SetDeadline(time.Now().Add(responseHeaderTimeout))
	var h upHead
	if _, err = c.Write(c.out); err == nil {
		err = readHead(c.r, &h)
	}
	if err != nil {
		c.Close()
		rt.hopFailed(w, r, t)
		return
	}
	switch {
	case method == http.MethodHead || h.status == http.StatusNoContent || h.status == http.StatusNotModified:
		writeHead(w, &h)
	case !h.chunked && h.length >= 0 && h.length <= upReadBuffer:
		// The common answer: relayed straight out of the read buffer,
		// within the same budget as its head.
		b, err := c.r.Peek(int(h.length))
		if err != nil {
			c.Close()
			rt.hopFailed(w, r, t)
			return
		}
		writeHead(w, &h)
		w.Write(b) // the answer is consumed either way; the connection stays good
		c.r.Discard(len(b))
	default:
		writeHead(w, &h)
		if !rt.stream(w, ctx, up, c, &h) {
			return
		}
	}
	if h.close {
		c.Close()
		return
	}
	up.put(c)
}

// hopFailed answers a transport failure on the way to target t. When
// the downstream request has ended it is no failure of the target's,
// so the pool is kept.
func (rt *Router) hopFailed(w http.ResponseWriter, r *http.Request, t int) {
	if r.Context().Err() == nil {
		rt.ups[t].flush()
	}
	rt.unreachable(w, &rt.targets[t])
}

// stream relays a chunked, SSE, unframed or large answer body with
// its head already written: decoded and flushed per read (SSE only,
// so forwarded frames are live), with no deadline, and with the
// connection closed as soon as ctx ends. It reports whether the body
// was read to its end with the connection still usable; otherwise it
// has closed the connection.
func (rt *Router) stream(w http.ResponseWriter, ctx context.Context, up *upstream, c *upConn, h *upHead) bool {
	c.SetDeadline(time.Time{})
	stop := context.AfterFunc(ctx, func() { c.Close() })
	var src io.Reader = c.r
	if h.chunked {
		src = httputil.NewChunkedReader(c.r)
	}
	buf := rt.bufs.Get().(*[]byte)
	defer rt.bufs.Put(buf)
	fl, _ := w.(http.Flusher)
	if !strings.HasPrefix(h.vals[0], "text/event-stream") { // Content-Type
		fl = nil
	}
	left := h.length
	var rerr, werr error
	for rerr == nil && werr == nil && left != 0 {
		p := (*buf)[:cap(*buf)]
		if left > 0 && int64(len(p)) > left {
			p = p[:left]
		}
		var n int
		n, rerr = src.Read(p)
		if n > 0 {
			left -= int64(n)
			if _, werr = w.Write(p[:n]); werr == nil && fl != nil {
				fl.Flush()
			}
		}
	}
	switch {
	case !stop():
		// ctx ended and closed the connection.
		return false
	case werr == nil && h.chunked && rerr == io.EOF:
		if rerr = skipTrailer(c.r); rerr == nil {
			return true
		}
	case werr == nil && h.length >= 0 && left == 0:
		return true
	case werr == nil && rerr == io.EOF && !h.chunked && h.length < 0:
		// Delimited by the close itself.
		h.close = true
		return true
	}
	c.Close()
	if werr == nil {
		// Cut off mid-body by the target, not by the client.
		up.flush()
	}
	return false
}

// appendRequest appends the request head — Host, ctype as the
// Content-Type, hdr's other proxyHeaders and a Content-Length — and
// the body to b.
func appendRequest(b []byte, up *upstream, method, uri, ctype string, hdr http.Header, body []byte) []byte {
	b = append(b, method...)
	b = append(b, ' ')
	b = append(b, up.prefix...)
	b = append(b, uri...)
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(b, up.host...)
	for _, k := range proxyHeaders {
		v := ctype
		if k != "Content-Type" {
			v = hdr.Get(k)
		}
		if v != "" {
			b = append(b, "\r\n"...)
			b = append(b, k...)
			b = append(b, ": "...)
			b = append(b, v...)
		}
	}
	if len(body) > 0 || (method != http.MethodGet && method != http.MethodHead) {
		b = append(b, "\r\nContent-Length: "...)
		b = strconv.AppendInt(b, int64(len(body)), 10)
	}
	b = append(b, "\r\n\r\n"...)
	return append(b, body...)
}

var errMalformed = errors.New("federation: malformed upstream answer")

// readHead parses an answer's status line and headers into h. schedd
// sends no interim 1xx answers, so one is malformed here.
func readHead(r *bufio.Reader, h *upHead) error {
	*h = upHead{length: -1}
	line, err := r.ReadSlice('\n')
	if err != nil {
		return err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) || line[8] != ' ' || line[9] < '2' {
		return errMalformed
	}
	for _, d := range line[9:12] {
		if d < '0' || d > '9' {
			return errMalformed
		}
		h.status = h.status*10 + int(d-'0')
	}
	for {
		line, err := r.ReadSlice('\n')
		if err != nil {
			return err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		name, v, ok := bytes.Cut(line, []byte(":"))
		if !ok {
			return errMalformed
		}
		v = bytes.TrimSpace(v)
		switch {
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			h.chunked = bytes.EqualFold(v, []byte("chunked"))
		case bytes.EqualFold(name, []byte("Connection")):
			h.close = bytes.EqualFold(v, []byte("close"))
		case bytes.EqualFold(name, []byte("Content-Length")):
			n, err := strconv.ParseInt(string(v), 10, 64)
			if err != nil || n < 0 {
				return errMalformed
			}
			h.length = n
		}
		for i, k := range responseHeaders {
			if bytes.EqualFold(name, []byte(k)) {
				h.vals[i] = headerValue(v)
			}
		}
	}
	if h.chunked {
		h.length = -1
		h.vals[1] = "" // Content-Length
	}
	return nil
}

// headerValue returns v as a string, without allocating for the
// content types every poll answer carries.
func headerValue(v []byte) string {
	switch string(v) {
	case "application/json":
		return "application/json"
	case service.ContentTypeFrame:
		return service.ContentTypeFrame
	}
	return string(v)
}

// writeHead relays h's allow-listed headers and status into w.
func writeHead(w http.ResponseWriter, h *upHead) {
	hdr := w.Header()
	for i, k := range responseHeaders {
		if v := h.vals[i]; v != "" {
			hdr[k] = []string{v}
		}
	}
	w.WriteHeader(h.status)
}

// skipTrailer reads the trailer section that follows a chunked body's
// last chunk, up to its blank line.
func skipTrailer(r *bufio.Reader) error {
	for {
		line, err := r.ReadSlice('\n')
		if err != nil {
			return err
		}
		if len(bytes.TrimRight(line, "\r\n")) == 0 {
			return nil
		}
	}
}

var errBodyTooLarge = errors.New("request body too large")

// readBody reads r's body into buf[:0], refusing more than max bytes.
func readBody(r *http.Request, buf []byte, max int64) ([]byte, error) {
	if r.ContentLength > max {
		return buf[:0], errBodyTooLarge
	}
	if r.ContentLength >= 0 {
		n := int(r.ContentLength)
		if cap(buf) < n {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		_, err := io.ReadFull(r.Body, buf)
		return buf, err
	}
	b := bytes.NewBuffer(buf[:0])
	_, err := b.ReadFrom(io.LimitReader(r.Body, max+1))
	if err == nil && int64(b.Len()) > max {
		err = errBodyTooLarge
	}
	return b.Bytes(), err
}
