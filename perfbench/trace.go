package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"hetsched/internal/service"
)

// layer names one boundary the traced run records a span at.
type layer int8

const (
	layerLoadgen  layer = iota // one issuing cycle: wait for a worker, poll, book-keep
	layerWait                  // the cycle's wait for a worker with no poll in flight
	layerNet                   // HTTP round trip: request write to full response read
	layerRouter                // federation.Router.ServeHTTP
	layerHandler               // service.Server.ServeHTTP on /next
	layerHostNext              // service.Host.Next
	numLayers
	noParent layer = -1
)

var layerNames = [numLayers]string{"loadgen", "loadgen.conn_wait", "nethttp", "federation.router", "service.handler", "service.host.next"}

// span is one layer's interval of one poll, in ns since the trace
// epoch. Server-side layers are written by the server's goroutines,
// hence the atomics. end == 0 means the layer was not crossed.
type span struct {
	start, end atomic.Int64
	parent     atomic.Int32
	code       atomic.Int32 // HTTP status the layer answered, when it is a handler
}

func (s *span) set(parent layer, start, end int64) {
	s.start.Store(start)
	s.parent.Store(int32(parent))
	s.end.Store(end)
}

func (s *span) dur() int64 {
	if e := s.end.Load(); e != 0 {
		return e - s.start.Load()
	}
	return 0
}

// pollTrace holds the spans of one poll; its index in the store is the
// identifier every span of the poll shares.
type pollTrace struct {
	spans [numLayers]span
	frame atomic.Bool
}

const chunkBits = 14

// spanStore keeps every traced poll in memory, in fixed chunks so that
// server goroutines can look a poll up while issuers add new ones.
type spanStore struct {
	clk    *clock
	next   atomic.Int64
	chunks [1 << 12]atomic.Pointer[[1 << chunkBits]pollTrace]
}

func newSpanStore(clk *clock) *spanStore { return &spanStore{clk: clk} }

func (s *spanStore) now() int64 { return s.clk.now() }

// alloc reserves the next poll identifier, or -1 once the store is full.
func (s *spanStore) alloc() int64 {
	id := s.next.Add(1) - 1
	c := id >> chunkBits
	if c >= int64(len(s.chunks)) {
		return -1
	}
	if s.chunks[c].Load() == nil {
		s.chunks[c].CompareAndSwap(nil, new([1 << chunkBits]pollTrace))
	}
	return id
}

func (s *spanStore) at(id int64) *pollTrace {
	return &s.chunks[id>>chunkBits].Load()[id&(1<<chunkBits-1)]
}

// each calls fn for every poll recorded so far.
func (s *spanStore) each(fn func(*pollTrace)) {
	n := s.next.Load()
	if max := int64(len(s.chunks)) << chunkBits; n > max {
		n = max
	}
	for id := int64(0); id < n; id++ {
		fn(s.at(id))
	}
}

// spanQuery is the query parameter a traced poll carries its
// identifier in; the router forwards the request URI unchanged, so the
// host sees it too.
const spanQuery = "span="

func spanID(rawQuery string) (int64, bool) {
	v, ok := strings.CutPrefix(rawQuery, spanQuery)
	if !ok {
		return 0, false
	}
	id, err := strconv.ParseInt(v, 10, 64)
	return id, err == nil
}

type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// traceHandler wraps a program handler so that each traced poll
// through it records a span for layer l. Other requests pass through.
func traceHandler(st *spanStore, l, parent layer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, ok := spanID(r.URL.RawQuery)
		if !ok {
			next.ServeHTTP(w, r)
			return
		}
		start := st.now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(sw, r)
		p := st.at(id)
		p.spans[l].set(parent, start, st.now())
		p.spans[l].code.Store(int32(sw.code))
		if l == layerHandler && r.Header.Get("Content-Type") == service.ContentTypeFrame {
			p.frame.Store(true)
		}
	})
}

// selfTimes is what the traced polls add up to: per layer the
// distribution of self time (span minus the spans it directly
// encloses), the handler span split by codec, the poll latency itself
// and the non-2xx answers each handler layer gave.
type selfTimes struct {
	self        [numLayers]hist
	json, frame hist
	latency     hist
	non2xx      [numLayers]int64
	polls       int64
}

// addPoll folds one poll's spans in; latencyLayer is the span whose
// duration is the poll latency of the workload.
func (s *selfTimes) addPoll(p *pollTrace, latencyLayer layer) {
	if p.spans[latencyLayer].dur() == 0 {
		return
	}
	var child [numLayers]int64
	for l := range p.spans {
		if d := p.spans[l].dur(); d > 0 {
			if par := layer(p.spans[l].parent.Load()); par != noParent {
				child[par] += d
			}
		}
	}
	for l := range p.spans {
		sp := &p.spans[l]
		d := sp.dur()
		if d == 0 {
			continue
		}
		s.self[l].add(d - child[l])
		if c := sp.code.Load(); c != 0 && (c < 200 || c > 299) {
			s.non2xx[l]++
		}
	}
	if d := p.spans[layerHandler].dur(); d > 0 {
		if p.frame.Load() {
			s.frame.add(d)
		} else {
			s.json.add(d)
		}
	}
	s.latency.add(p.spans[latencyLayer].dur())
	s.polls++
}

func (s *selfTimes) merge(o *selfTimes) {
	for l := range s.self {
		s.self[l].merge(&o.self[l])
		s.non2xx[l] += o.non2xx[l]
	}
	s.json.merge(&o.json)
	s.frame.merge(&o.frame)
	s.latency.merge(&o.latency)
	s.polls += o.polls
}

// notes renders each crossed layer's self times, one line per layer.
func (s *selfTimes) notes() []string {
	var out []string
	for l := range s.self {
		if h := &s.self[l]; h.n > 0 {
			out = append(out, fmt.Sprintf("span %s: n=%d self p50=%.2fus p90=%.2fus",
				layerNames[l], h.n, h.quantile(0.5)/1e3, h.quantile(0.9)/1e3))
		}
	}
	return out
}

// medianUs is the median of h in µs, 0 when h is empty.
func medianUs(h *hist) float64 {
	if h.n == 0 {
		return 0
	}
	return h.quantile(0.5) / 1e3
}

// rtSnap is a reading of the Go runtime and the process CPU clock.
type rtSnap struct {
	wall                time.Time
	mallocs, allocBytes uint64
	pauseNs             uint64
	cpu                 time.Duration
}

func takeRT() rtSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := rtSnap{wall: time.Now(), mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc, pauseNs: ms.PauseTotalNs}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return s
}

// runtimeDelta turns two readings around a window with polls polls into
// the runtime per-layer metrics.
func runtimeDelta(a, b rtSnap, polls int64, out map[string]float64) {
	if polls < 1 {
		polls = 1
	}
	wall := b.wall.Sub(a.wall)
	out["runtime.allocs_per_poll"] = float64(b.mallocs-a.mallocs) / float64(polls)
	out["runtime.alloc_bytes_per_poll"] = float64(b.allocBytes-a.allocBytes) / float64(polls)
	out["runtime.gc_pause_ms"] = float64(b.pauseNs-a.pauseNs) / 1e6
	out["runtime.cpu_busy_share"] = float64(b.cpu-a.cpu) / (float64(wall) * float64(runtime.NumCPU()))
}

// dirGrowth measures how many bytes the files of some directories
// grew by, file by file, so that a file a checkpoint prunes keeps the
// growth it showed before it went. It is not safe for concurrent use.
type dirGrowth struct {
	dirs       []string
	match      func(name string) bool
	base, last map[string]int64
}

func newDirGrowth(dirs []string, match func(name string) bool) *dirGrowth {
	g := &dirGrowth{dirs: dirs, match: match, last: map[string]int64{}}
	g.sample()
	g.base, g.last = g.last, map[string]int64{}
	return g
}

func (g *dirGrowth) sample() {
	for _, d := range g.dirs {
		for name, size := range fileSizes(d, g.match) {
			g.last[filepath.Join(d, name)] = size
		}
	}
}

// bytes is the growth seen by the samples so far.
func (g *dirGrowth) bytes() int64 {
	var n int64
	for name, size := range g.last {
		n += size - g.base[name]
	}
	return n
}

func isSegment(name string) bool { return strings.HasSuffix(name, ".log") }

func isSnapshot(name string) bool { return strings.HasPrefix(name, "snap-") }

// fileSizes lists the sizes of the files in dir whose names match.
func fileSizes(dir string, match func(string) bool) map[string]int64 {
	out := map[string]int64{}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return out
	}
	for _, e := range ents {
		if !match(e.Name()) {
			continue
		}
		if info, err := e.Info(); err == nil {
			out[e.Name()] = info.Size()
		}
	}
	return out
}

func dirBytes(dir string, match func(string) bool) int64 {
	var n int64
	for _, s := range fileSizes(dir, match) {
		n += s
	}
	return n
}
