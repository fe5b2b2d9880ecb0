package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"hetsched/internal/core"
	"hetsched/internal/durable"
	"hetsched/internal/service"
)

// durableShape is host-durable's run: the paper's matrix product,
// two-phase strategy, 4 tasks per poll, on a 4096-worker platform.
var durableShape = runShape{kernel: "matmul", strategy: "2phases", n: 64, p: 4096, batch: 4}

// pollers is the number of goroutines polling the one run of a
// host-durable cycle, each over its own share of the workers.
const pollers = 2

// durableHost is one journaled server and its journal directory.
type durableHost struct {
	dir string
	jr  *durable.Log
	svc *service.Server
}

func openHost(dir string) (*durableHost, error) {
	jr, err := durable.Open(dir)
	if err != nil {
		return nil, err
	}
	svc := service.New(service.Options{Journal: jr})
	if err := svc.RecoveryErr(); err != nil {
		svc.Close()
		jr.Close()
		return nil, fmt.Errorf("recovering %s: %w", dir, err)
	}
	return &durableHost{dir: dir, jr: jr, svc: svc}, nil
}

func (h *durableHost) close() {
	h.svc.Close()
	h.jr.Close()
}

// poller drives its share of the workers of the cycle's run.
type poller struct {
	fl    *fleet
	tasks []core.Task
	got   []int64
	meter meter
	self  selfTimes
	stall int64 // ns of poll time inside the checkpoint span, traced cycles
	polls int64 // polls of the current cycle
	all   int64 // polls of the whole run
	err   error
	// win and slot place the current cycle's polls: its timed window
	// (-1 for the warm-up) and its index among that window's cycles.
	win, slot int
	traced    bool
}

// cycleRun is the state the pollers of one cycle share.
type cycleRun struct {
	host      atomic.Pointer[service.Host]
	done      atomic.Int64 // tasks reported complete
	led       *ledger
	ckptStart atomic.Int64 // clock ns; 0 when no checkpoint has started
	ckptEnd   atomic.Int64 // clock ns; 0 while the checkpoint runs
}

// drainTo polls until the run's reported tasks reach target or the
// poller's workers have all retired.
func (p *poller) drainTo(c *cycleRun, clk *clock, target int64) {
	for c.done.Load() < target {
		t0 := clk.now()
		w, ok := p.fl.pop()
		if !ok {
			return
		}
		held := p.fl.held[w]
		p.tasks = p.tasks[:0]
		for _, t := range held {
			p.tasks = append(p.tasks, core.Task(t))
		}
		t1 := clk.now()
		a, status, err := c.host.Load().Next(w, p.tasks)
		t2 := clk.now()
		if err != nil {
			p.err = fmt.Errorf("worker %d: %w", w, err)
			return
		}
		p.got = p.got[:0]
		for _, t := range a.Tasks {
			p.got = append(p.got, int64(t))
		}
		if bad := c.led.grant(p.got, a.Blocks); bad > 0 {
			p.err = fmt.Errorf("worker %d: %d tasks granted twice or out of range", w, bad)
			return
		}
		p.fl.settle(w, status, p.got)
		c.done.Add(int64(len(held)))
		p.polls++
		p.all++
		p.meter.poll(p.win, p.slot, t2-t1, len(held), len(p.got), status)
		if p.traced {
			var pt pollTrace
			pt.spans[layerWait].set(layerLoadgen, t0, t1)
			pt.spans[layerHostNext].set(layerLoadgen, t1, t2)
			pt.spans[layerLoadgen].set(noParent, t0, clk.now())
			p.self.addPoll(&pt, layerHostNext)
			if cs := c.ckptStart.Load(); cs != 0 {
				ce := c.ckptEnd.Load()
				if ce == 0 {
					ce = t2
				}
				if ov := min(t2, ce) - max(t1, cs); ov > 0 {
					p.stall += ov
				}
			}
		}
	}
}

// cycleStats are the measurements of one cycle.
type cycleStats struct {
	setup, recovery, handoff                 time.Duration
	drain                                    time.Duration // polling time, recovery and handoff excluded
	checkpoint, export, imprt, commit        time.Duration
	journalPerPoll                           float64
	snapshotBytes, replayBytes, transferSize int64
	stall                                    int64
	blocks                                   int
}

// durableBench runs host-durable cycles back to back.
type durableBench struct {
	o       options
	clk     *clock
	seeds   *seeds
	lb      float64
	workers [pollers][]int
	polls   [pollers]*poller
	ops     opCounter
}

// drain runs every poller to target and waits for them.
func (d *durableBench) drain(c *cycleRun, target int64) error {
	var wg sync.WaitGroup
	for _, p := range d.polls {
		wg.Add(1)
		go func(p *poller) {
			defer wg.Done()
			p.drainTo(c, d.clk, target)
		}(p)
	}
	wg.Wait()
	for _, p := range d.polls {
		if p.err != nil {
			return p.err
		}
	}
	return nil
}

// cycle drains one run to 50%, checkpoints it while the pollers go on
// to 75%, closes the host and recovers it from the journal, migrates
// the run into a second host and drains it there.
func (d *durableBench) cycle(win, slot int) (cs cycleStats, err error) {
	start := time.Now()
	base, err := os.MkdirTemp(d.o.workDir, "durable-")
	if err != nil {
		return cs, err
	}
	defer os.RemoveAll(base)
	src, err := openHost(base + "/src")
	if err != nil {
		return cs, err
	}
	defer func() {
		if src != nil {
			src.close()
		}
	}()
	dst, err := openHost(base + "/dst")
	if err != nil {
		return cs, err
	}
	defer dst.close()
	id, seed := d.seeds.next()
	body, err := json.Marshal(durableShape.request(id, seed))
	if err != nil {
		return cs, err
	}
	rec := httptest.NewRecorder()
	d.ops.attempted.Add(1)
	src.svc.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/runs", bytes.NewReader(body)))
	if rec.Code != http.StatusCreated {
		return cs, fmt.Errorf("create %s: status %d: %s", id, rec.Code, rec.Body)
	}
	run, _ := src.svc.Registry().Get(id)
	total := int64(durableShape.tasks())
	c := &cycleRun{led: newLedger(int(total))}
	c.host.Store(run.Host)
	for i, p := range d.polls {
		p.fl = newFleet(d.seeds.speeds, d.workers[i])
		p.win, p.slot, p.traced = win, slot, d.clk.traced(win)
		p.stall, p.polls, p.err = 0, 0, nil
	}
	cs.setup = time.Since(start)

	drainStart := time.Now()
	j0 := dirBytes(src.dir, isSegment)
	if err := d.drain(c, total/2); err != nil {
		return cs, err
	}
	cs.journalPerPoll = float64(dirBytes(src.dir, isSegment)-j0) / float64(max(d.pollCount(), 1))

	// Checkpoint while the pollers go on to 75%.
	var wg sync.WaitGroup
	var derr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		derr = d.drain(c, total*3/4)
	}()
	c.ckptStart.Store(d.clk.now())
	t := time.Now()
	d.ops.attempted.Add(1)
	cerr := src.svc.Checkpoint()
	cs.checkpoint = time.Since(t)
	c.ckptEnd.Store(d.clk.now())
	wg.Wait()
	if cerr != nil {
		return cs, fmt.Errorf("checkpoint: %w", cerr)
	}
	if derr != nil {
		return cs, derr
	}
	cs.snapshotBytes = dirBytes(src.dir, isSnapshot)

	// Close and recover: the recovered run must be the closed one.
	cs.drain = time.Since(drainStart)
	pre := run.Host.Stats()
	src.close()
	dir := src.dir
	src = nil
	cs.replayBytes = dirBytes(dir, func(string) bool { return true })
	t = time.Now()
	d.ops.attempted.Add(1)
	src, err = openHost(dir)
	cs.recovery = time.Since(t)
	if err != nil {
		return cs, err
	}
	run, ok := src.svc.Registry().Get(id)
	if !ok {
		return cs, fmt.Errorf("run %s missing after recovery", id)
	}
	if msg := sameLedger("recovered", pre, run.Host.Stats()); msg != "" {
		d.ops.fail("run %s: %s", id, msg)
	}

	// Hand the run off to the second host: MigrateTo's three steps,
	// timed one by one, with both sides compared before it drains.
	t = time.Now()
	d.ops.attempted.Add(3)
	stream, err := src.svc.BeginMigrate(id)
	cs.export = time.Since(t)
	if err != nil {
		return cs, fmt.Errorf("begin migrate: %w", err)
	}
	cs.transferSize = int64(len(stream))
	before := run.Host.Stats()
	t1 := time.Now()
	moved, err := dst.svc.ImportRun(stream)
	cs.imprt = time.Since(t1)
	if err != nil {
		src.svc.AbortMigrate(id)
		return cs, fmt.Errorf("import: %w", err)
	}
	t2 := time.Now()
	err = src.svc.CommitMigrate(id)
	cs.commit = time.Since(t2)
	cs.handoff = cs.export + cs.imprt + cs.commit
	if err != nil {
		return cs, fmt.Errorf("commit migrate: %w", err)
	}
	if msg := sameLedger("migrated", before, moved.Host.Stats()); msg != "" {
		d.ops.fail("run %s: %s", id, msg)
	}
	c.host.Store(moved.Host)
	drainStart = time.Now()
	if err := d.drain(c, total+1); err != nil {
		return cs, err
	}
	cs.drain += time.Since(drainStart)

	d.ops.attempted.Add(1)
	st := moved.Host.Stats()
	for _, msg := range c.led.verify(st) {
		d.ops.fail("run %s: %s", id, msg)
	}
	cs.blocks = st.Blocks
	for _, p := range d.polls {
		cs.stall += p.stall
	}
	return cs, nil
}

func (d *durableBench) pollCount() int64 {
	var n int64
	for _, p := range d.polls {
		n += p.polls
	}
	return n
}

// sameLedger compares the counters a handoff must carry over exactly.
func sameLedger(what string, a, b service.StatsResponse) string {
	if a.Assigned != b.Assigned || a.Completed != b.Completed || a.Blocks != b.Blocks || a.Outstanding != b.Outstanding {
		return fmt.Sprintf("%s run has assigned/completed/blocks/outstanding %d/%d/%d/%d, want %d/%d/%d/%d", what,
			b.Assigned, b.Completed, b.Blocks, b.Outstanding, a.Assigned, a.Completed, a.Blocks, a.Outstanding)
	}
	return ""
}

// runDurable runs the host-durable workload: one warm-up cycle, then
// cycles until the timed windows are over.
func runDurable(o options) (*result, error) {
	d := &durableBench{o: o, clk: newClock(), seeds: newSeeds(o.seed, durableShape.p)}
	d.lb = durableShape.lowerBound(d.seeds.speeds)
	for w := 0; w < durableShape.p; w++ {
		d.workers[w%pollers] = append(d.workers[w%pollers], w)
	}
	for i := range d.polls {
		d.polls[i] = &poller{}
	}
	res := newResult()
	var setups []float64
	if warm, err := d.cycle(-1, 0); err != nil {
		d.ops.fail("warm-up cycle: %v", err)
	} else {
		setups = append(setups, warm.setup.Seconds())
	}

	d.clk.begin(o, 0)
	var snaps []rtSnap
	var heapMB float64
	var obs sync.WaitGroup
	obs.Add(1)
	go func() {
		defer obs.Done()
		snaps, heapMB = d.clk.observe(nil)
	}()
	var cycles [2][]cycleStats
	var blocks, bound float64
	for extra := false; ; {
		win := d.clk.window(d.clk.now())
		if win < 0 {
			if !o.trace || len(cycles[1]) > 0 || extra {
				break
			}
			// A traced run measures at least one traced cycle.
			win, extra = 1, true
		}
		cs, err := d.cycle(win, len(cycles[win]))
		if err != nil {
			d.ops.fail("%v", err)
			continue
		}
		setups = append(setups, cs.setup.Seconds())
		cycles[win] = append(cycles[win], cs)
		blocks += float64(cs.blocks)
		bound += d.lb
	}
	obs.Wait()

	comm := 0.0 // no cycle verified: the checks below fail the run
	if bound > 0 {
		comm = blocks / bound
	}
	d.ops.check(len(cycles[0]) > 0, "no cycle completed in the timed window")
	d.ops.check(len(cycles[0]) == 0 || comm >= 1, "comm_ratio %.4f below the lower bound", comm)
	res.attempted, res.failed = d.ops.attempted.Load(), d.ops.failed.Load()
	var m meter
	var self selfTimes
	for _, p := range d.polls {
		res.attempted += p.all
		for i := range m.windows {
			m.windows[i].merge(&p.meter.windows[i])
		}
		self.merge(&p.self)
	}
	res.notes = append(res.notes, d.ops.msgs...)
	if len(cycles[0]) == 0 {
		return res, nil
	}
	w := &m.windows[0]
	// Throughput is the median over the window's cycles of the cycle's
	// tasks over the time it spent polling, checkpoint included; the
	// recovery and the handoff between have metrics of their own.
	rate := func(win int) float64 {
		xs := make([]float64, len(cycles[win]))
		for i, c := range cycles[win] {
			xs[i] = float64(durableShape.tasks()) / c.drain.Seconds()
		}
		return median(xs)
	}
	res.e2e["setup_s"] = median(setups)
	res.pollMetrics(w, rate(0), comm, heapMB)
	all := append(append([]cycleStats(nil), cycles[0]...), cycles[1]...)
	med := func(f func(cycleStats) float64) float64 {
		xs := make([]float64, len(all))
		for i, cs := range all {
			xs[i] = f(cs)
		}
		return median(xs)
	}
	lat := res.layer
	lat["recovery_s"] = med(func(c cycleStats) float64 { return c.recovery.Seconds() })
	lat["handoff_ms"] = med(func(c cycleStats) float64 { return ms(c.handoff) })
	res.notes = append(res.notes, fmt.Sprintf("cycles verified: %d (each %d tasks, checkpointed, recovered and migrated once)",
		len(all), durableShape.tasks()))
	if !o.trace {
		return res, nil
	}
	res.notes = append(res.notes, self.notes()...)
	lat["loadgen.self_us"] = medianUs(&self.self[layerLoadgen])
	lat["loadgen.conn_wait_us"] = medianUs(&self.self[layerWait])
	lat["loadgen.poll_samples"] = float64(self.polls)
	lat["service.host.next_us"] = medianUs(&self.self[layerHostNext])
	lat["service.host.tasks_per_poll"] = w.tasksPerPoll()
	lat["service.host.wait_ratio"] = w.grantRatio()
	if len(cycles[1]) > 0 {
		xs := make([]float64, len(cycles[1]))
		for i, c := range cycles[1] {
			xs[i] = float64(c.stall) / 1e3
		}
		lat["service.host.stall_us"] = median(xs)
		lat["trace.overhead_share"] = rate(1) / rate(0)
	}
	lat["durable.journal_bytes_per_poll"] = med(func(c cycleStats) float64 { return c.journalPerPoll })
	lat["durable.replay_bytes"] = med(func(c cycleStats) float64 { return float64(c.replayBytes) })
	lat["durable.checkpoint_ms"] = med(func(c cycleStats) float64 { return ms(c.checkpoint) })
	lat["durable.snapshot_bytes"] = med(func(c cycleStats) float64 { return float64(c.snapshotBytes) })
	lat["durable.export_ms"] = med(func(c cycleStats) float64 { return ms(c.export) })
	lat["durable.import_ms"] = med(func(c cycleStats) float64 { return ms(c.imprt) })
	lat["durable.commit_ms"] = med(func(c cycleStats) float64 { return ms(c.commit) })
	lat["durable.transfer_bytes"] = med(func(c cycleStats) float64 { return float64(c.transferSize) })
	runtimeDelta(snaps[0], snaps[1], w.polls, lat)
	lat["trace.unattributed_share"] = 1 - medianUs(&self.self[layerHostNext])/medianUs(&self.latency)
	return res, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
