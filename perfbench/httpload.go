package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hetsched/internal/durable"
	"hetsched/internal/federation"
	"hetsched/internal/service"
)

// httpSpec describes a workload that polls schedd over loopback HTTP.
type httpSpec struct {
	shape    runShape
	liveRuns int  // runs kept live at once; a drained run is replaced
	hosts    int  // 1: one volatile host; more: journaled hosts behind a router
	frameOdd bool // odd-numbered workers speak application/x-schedd-frame
}

// snapshotEvery is the checkpoint period of the journaled hosts of
// poll-federated: short enough that several checkpoints land in every
// timed window.
const snapshotEvery = time.Second

// sweepEvery is the hosts' janitor period (cmd/schedd -gc). Drained
// runs are deleted at once and swept on the next pass; a short period
// keeps the heap to the live runs instead of a second's worth of
// drained ones, whose number would follow the throughput.
const sweepEvery = 100 * time.Millisecond

// topology is one set-up of servers, listeners and router.
type topology struct {
	base     string // URL the load generator talks to
	servers  []*service.Server
	journals []*durable.Log
	dirs     []string
	router   *federation.Router
	http     []*http.Server
	serving  sync.WaitGroup
}

// startTopology builds the servers with the constructors cmd/schedd
// uses and puts each behind a net/http.Server on a 127.0.0.1 listener.
// With st set, the handlers are wrapped to record spans.
func startTopology(spec httpSpec, dir string, st *spanStore) (*topology, error) {
	t := &topology{}
	hostParent := layerNet
	if spec.hosts > 1 {
		hostParent = layerRouter
	}
	var targets []federation.Target
	for i := 0; i < spec.hosts; i++ {
		opts := service.Options{Shards: 8, GCInterval: sweepEvery}
		if spec.hosts > 1 {
			d := filepath.Join(dir, fmt.Sprintf("host%d", i))
			jr, err := durable.Open(d)
			if err != nil {
				t.close()
				return nil, err
			}
			t.journals = append(t.journals, jr)
			t.dirs = append(t.dirs, d)
			opts.Journal, opts.SnapshotEvery = jr, snapshotEvery
		}
		svc := service.New(opts)
		t.servers = append(t.servers, svc)
		if err := svc.RecoveryErr(); err != nil {
			t.close()
			return nil, err
		}
		var h http.Handler = svc
		if st != nil {
			h = traceHandler(st, layerHandler, hostParent, svc)
		}
		url, err := t.serve(h)
		if err != nil {
			t.close()
			return nil, err
		}
		targets = append(targets, federation.Target{URL: url})
		t.base = url
	}
	if spec.hosts > 1 {
		rt, err := federation.NewRouter(targets, federation.Options{Epoch: 1})
		if err != nil {
			t.close()
			return nil, err
		}
		t.router = rt
		var h http.Handler = rt
		if st != nil {
			h = traceHandler(st, layerRouter, layerNet, rt)
		}
		if t.base, err = t.serve(h); err != nil {
			t.close()
			return nil, err
		}
	}
	return t, nil
}

func (t *topology) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	t.http = append(t.http, srv)
	t.serving.Add(1)
	go func() {
		defer t.serving.Done()
		srv.Serve(ln)
	}()
	return "http://" + ln.Addr().String(), nil
}

// close stops the listeners and waits for them, then the servers and
// journals.
func (t *topology) close() {
	for _, s := range t.http {
		s.Close()
	}
	t.serving.Wait()
	for _, s := range t.servers {
		s.Close()
	}
	for _, j := range t.journals {
		j.Close()
	}
}

// owner is the host a run id is placed on.
func (t *topology) owner(id string) int {
	if t.router == nil {
		return 0
	}
	return t.router.OwnerOf(id)
}

// liveRun is one run the load generator drives.
type liveRun struct {
	id, next string // run id, path of its poll endpoint
	owner    int
	fl       *fleet
	led      *ledger
	broken   bool
}

// httpLoad drives the live runs of one topology with a fixed set of
// issuing goroutines, each with its own connection.
type httpLoad struct {
	spec  httpSpec
	topo  *topology
	addr  string // host:port the load generator talks to
	seeds *seeds
	lb    float64
	clk   *clock
	st    *spanStore // nil in an untraced run
	dials atomic.Int64
	ops   opCounter

	mu      sync.Mutex
	cond    *sync.Cond
	runs    []*liveRun // runs with workers to hand out
	live    int        // runs not yet finished
	rr      int
	drained int
	blocks  float64 // Σ Blocks of drained runs
	bound   float64 // Σ lower bounds of drained runs
}

func newHTTPLoad(spec httpSpec, topo *topology, seed uint64, clk *clock, st *spanStore) *httpLoad {
	l := &httpLoad{spec: spec, topo: topo, addr: strings.TrimPrefix(topo.base, "http://"),
		seeds: newSeeds(seed, spec.shape.p), clk: clk, st: st}
	l.lb = spec.shape.lowerBound(l.seeds.speeds)
	l.cond = sync.NewCond(&l.mu)
	return l
}

// createRun creates a run through the front door, placing it on host
// want (any host when want < 0) by drawing ids until one lands there.
func (l *httpLoad) createRun(hc *httpConn, want int) (*liveRun, error) {
	l.mu.Lock()
	id, seed := l.seeds.next()
	for want >= 0 && l.topo.owner(id) != want {
		id, seed = l.seeds.next()
	}
	l.mu.Unlock()
	body, err := json.Marshal(l.spec.shape.request(id, seed))
	if err != nil {
		return nil, err
	}
	l.ops.attempted.Add(1)
	if err := l.call(hc, http.MethodPost, "/v1/runs", body, http.StatusCreated, nil); err != nil {
		return nil, err
	}
	workers := make([]int, l.spec.shape.p)
	for w := range workers {
		workers[w] = w
	}
	return &liveRun{
		id:    id,
		next:  "/v1/runs/" + id + "/next",
		owner: l.topo.owner(id),
		fl:    newFleet(l.seeds.speeds, workers),
		led:   newLedger(l.spec.shape.tasks()),
	}, nil
}

// call makes one admin request and decodes a JSON answer into out.
func (l *httpLoad) call(hc *httpConn, method, path string, body []byte, want int, out any) error {
	code, b, err := hc.do(method, path, "application/json", "", body)
	if err != nil {
		return err
	}
	if code != want {
		return fmt.Errorf("%s %s: status %d: %s", method, path, code, bytes.TrimSpace(b))
	}
	if out != nil {
		return json.Unmarshal(b, out)
	}
	return nil
}

// startRuns creates the initial live runs, spread evenly over hosts.
func (l *httpLoad) startRuns(hc *httpConn) error {
	for k := 0; k < l.spec.liveRuns; k++ {
		want := -1
		if l.spec.hosts > 1 {
			want = k % l.spec.hosts
		}
		r, err := l.createRun(hc, want)
		if err != nil {
			return err
		}
		l.runs = append(l.runs, r)
	}
	l.live = len(l.runs)
	return nil
}

// pick hands out the next worker to poll, waiting while every worker
// of every live run has a poll in flight. nil means every run finished.
func (l *httpLoad) pick() (*liveRun, int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		for i := range l.runs {
			r := l.runs[(l.rr+i)%len(l.runs)]
			if w, ok := r.fl.pop(); ok {
				l.rr = (l.rr + i + 1) % len(l.runs)
				return r, w
			}
		}
		if l.live == 0 {
			return nil, 0
		}
		l.cond.Wait()
	}
}

// conn is one issuing goroutine's state.
type conn struct {
	hc    *httpConn
	body  []byte
	next  service.NextResponse
	meter meter
}

// poll sends worker w's poll, reporting the batch it holds, and
// decodes the answer. span >= 0 tags the request for the traced run.
// start and end bound the round trip: request write to full response
// read, encoding and decoding left out.
func (l *httpLoad) poll(c *conn, r *liveRun, w int, span int64) (start, end int64, err error) {
	held := r.fl.held[w]
	frame := l.spec.frameOdd && w%2 == 1
	if frame {
		c.body = service.AppendNextRequestFrame(c.body[:0], int64(w), held)
	} else {
		c.body = append(c.body[:0], `{"worker":`...)
		c.body = strconv.AppendInt(c.body, int64(w), 10)
		if len(held) > 0 {
			c.body = append(c.body, `,"completed":[`...)
			for i, t := range held {
				if i > 0 {
					c.body = append(c.body, ',')
				}
				c.body = strconv.AppendInt(c.body, t, 10)
			}
			c.body = append(c.body, ']')
		}
		c.body = append(c.body, '}')
	}
	path := r.next
	if span >= 0 {
		path += "?" + spanQuery + strconv.FormatInt(span, 10)
	}
	ctype, accept := "application/json", ""
	if frame {
		ctype, accept = service.ContentTypeFrame, service.ContentTypeFrame
	}
	start = l.clk.now()
	code, resp, err := c.hc.do(http.MethodPost, path, ctype, accept, c.body)
	end = l.clk.now()
	if err != nil {
		return start, end, err
	}
	if code != http.StatusOK {
		return start, end, fmt.Errorf("poll %s worker %d: status %d: %s", r.id, w, code, bytes.TrimSpace(resp))
	}
	if frame {
		c.next, err = service.DecodeNextResponseFrame(resp)
		return start, end, err
	}
	c.next = service.NextResponse{Tasks: c.next.Tasks[:0]}
	return start, end, json.Unmarshal(resp, &c.next)
}

// issue is one issuing goroutine: closed loop, one poll in flight.
func (l *httpLoad) issue(c *conn) {
	for {
		t0 := l.clk.now()
		r, w := l.pick()
		if r == nil {
			return
		}
		t1 := l.clk.now()
		win := l.clk.window(t1)
		span := int64(-1)
		if l.st != nil && l.clk.traced(win) {
			span = l.st.alloc()
		}
		reported := len(r.fl.held[w])
		l.ops.attempted.Add(1)
		rt0, rt1, err := l.poll(c, r, w, span)
		bad := 0
		if err == nil {
			bad = r.led.grant(c.next.Tasks, c.next.Blocks)
		}
		l.mu.Lock()
		if err != nil || bad > 0 {
			r.broken = true
			r.fl.heap = r.fl.heap[:0]
			r.fl.inflight--
		} else {
			r.fl.settle(w, c.next.Status, c.next.Tasks)
			l.cond.Signal()
		}
		finish := r.fl.drained()
		if finish {
			for i, x := range l.runs {
				if x == r {
					l.runs = append(l.runs[:i], l.runs[i+1:]...)
					break
				}
			}
		}
		l.mu.Unlock()
		switch {
		case err != nil:
			l.ops.fail("%v", err)
		case bad > 0:
			l.ops.fail("run %s: %d tasks granted twice or out of range", r.id, bad)
		case win >= 0:
			c.meter.poll(win, l.clk.second(win, t1), rt1-rt0, reported, len(c.next.Tasks), c.next.Status)
		}
		if span >= 0 {
			p := l.st.at(span)
			p.spans[layerWait].set(layerLoadgen, t0, t1)
			p.spans[layerNet].set(layerLoadgen, rt0, rt1)
			p.spans[layerLoadgen].set(noParent, t0, l.clk.now())
		}
		if finish {
			l.finish(c.hc, r)
		}
	}
}

// finish verifies a drained run, deletes it and, until the timed
// windows are over, replaces it with a fresh run on the same host.
func (l *httpLoad) finish(hc *httpConn, r *liveRun) {
	if !r.broken {
		var st service.StatsResponse
		l.ops.attempted.Add(1)
		if err := l.call(hc, http.MethodGet, "/v1/runs/"+r.id+"/stats", nil, http.StatusOK, &st); err != nil {
			l.ops.fail("%v", err)
		} else if bad := r.led.verify(st); len(bad) > 0 {
			for _, b := range bad {
				l.ops.fail("run %s: %s", r.id, b)
			}
		} else {
			l.mu.Lock()
			l.drained++
			l.blocks += float64(st.Blocks)
			l.bound += l.lb
			l.mu.Unlock()
		}
	}
	l.ops.attempted.Add(1)
	if err := l.call(hc, http.MethodDelete, "/v1/runs/"+r.id, nil, http.StatusOK, nil); err != nil {
		l.ops.fail("%v", err)
	}
	var next *liveRun
	if !l.clk.over(l.clk.now()) {
		var err error
		if next, err = l.createRun(hc, r.owner); err != nil {
			l.ops.fail("%v", err)
		}
	}
	l.mu.Lock()
	if next != nil {
		l.runs = append(l.runs, next)
	} else {
		l.live--
	}
	l.cond.Broadcast()
	l.mu.Unlock()
}

// runHTTP runs a poll-* workload and returns its metrics.
func runHTTP(spec httpSpec, o options) (*result, error) {
	dir, err := os.MkdirTemp(o.workDir, "http-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Set up several times and keep the last: the median is setup_s.
	clk := newClock()
	var st *spanStore
	if o.trace {
		st = newSpanStore(clk)
	}
	var setups []float64
	var topo *topology
	var load *httpLoad
	conns := make([]*conn, o.conns)
	closeConns := func() {
		for _, c := range conns {
			if c != nil {
				c.hc.close()
			}
		}
	}
	for rep := 0; rep < setupReps; rep++ {
		if topo != nil {
			closeConns()
			topo.close()
		}
		start := time.Now()
		topo, err = startTopology(spec, filepath.Join(dir, strconv.Itoa(rep)), st)
		if err != nil {
			return nil, err
		}
		load = newHTTPLoad(spec, topo, o.seed, clk, st)
		for i := range conns {
			conns[i] = &conn{hc: newHTTPConn(load.addr, &load.dials)}
		}
		if err := load.startRuns(conns[0].hc); err != nil {
			closeConns()
			topo.close()
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer topo.close()
	defer closeConns()

	res := newResult()
	res.e2e["setup_s"] = median(setups)
	var wg sync.WaitGroup
	clk.begin(o, warmup)
	for i := range conns {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			load.issue(c)
		}(conns[i])
	}
	var journal *dirGrowth
	snaps, heapMB := clk.observe(func() {
		if journal == nil {
			journal = newDirGrowth(topo.dirs, isSegment)
		} else {
			journal.sample()
		}
	})
	wg.Wait()

	var m meter
	for _, c := range conns {
		for i := range m.windows {
			m.windows[i].merge(&c.meter.windows[i])
		}
	}
	comm := 0.0 // no run verified: the checks below fail the run
	if load.bound > 0 {
		comm = load.blocks / load.bound
	}
	load.ops.check(load.drained > 0, "no run drained")
	load.ops.check(load.drained == 0 || comm >= 1, "comm_ratio %.4f below the lower bound", comm)
	res.attempted, res.failed = load.ops.attempted.Load(), load.ops.failed.Load()
	res.notes = append(res.notes, load.ops.msgs...)
	w := &m.windows[0]
	res.pollMetrics(w, w.tasksPerSec(), comm, heapMB)
	res.notes = append(res.notes, fmt.Sprintf("runs drained and verified: %d; connections dialled: %d", load.drained, load.dials.Load()))
	if !o.trace {
		return res, nil
	}
	lat := res.layer
	var sum selfTimes
	st.each(func(p *pollTrace) { sum.addPoll(p, layerNet) })
	res.notes = append(res.notes, sum.notes()...)
	lat["loadgen.self_us"] = medianUs(&sum.self[layerLoadgen])
	lat["loadgen.conn_wait_us"] = medianUs(&sum.self[layerWait])
	lat["loadgen.poll_samples"] = float64(sum.polls)
	lat["nethttp.self_us"] = medianUs(&sum.self[layerNet])
	lat["nethttp.conns_opened"] = float64(load.dials.Load())
	lat["federation.router.self_us"] = medianUs(&sum.self[layerRouter])
	lat["federation.router.errors"] = float64(sum.non2xx[layerRouter])
	lat["service.handler.json_us"] = medianUs(&sum.json)
	lat["service.handler.frame_us"] = medianUs(&sum.frame)
	lat["service.handler.non2xx"] = float64(sum.non2xx[layerHandler])
	lat["service.host.tasks_per_poll"] = w.tasksPerPoll()
	lat["service.host.wait_ratio"] = w.grantRatio()
	lat["durable.journal_bytes_per_poll"] = float64(journal.bytes()) / float64(max(w.polls, 1))
	runtimeDelta(snaps[0], snaps[1], w.polls, lat)
	attributed := 0.0
	for _, l := range []layer{layerNet, layerRouter, layerHandler} {
		attributed += medianUs(&sum.self[l])
	}
	lat["trace.unattributed_share"] = 1 - attributed/medianUs(&sum.latency)
	lat["trace.overhead_share"] = m.windows[1].tasksPerSec() / w.tasksPerSec()
	return res, nil
}
