// Command perfbench is the end-to-end benchmark of schedd. It builds
// the servers in-process with the constructors cmd/schedd uses, drives
// them the way a worker fleet does, checks every answer, and prints the
// metrics as one JSON object on the last line of standard output.
//
//	perfbench --workload poll-http --seed 1 --seconds 20 --trace 0
//
// Workloads: poll-http, poll-federated, host-durable (see README.md).
// --trace 0 reports the end-to-end metrics; --trace 1 runs half the
// time untraced and half traced and reports the per-layer metrics.
//
//	perfbench summarize FILE...
//
// reads result lines (one JSON object per line, as printed by runs)
// and prints each metric's median, quartiles and run-to-run spread.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	conns    int
	workDir  string
}

const (
	// setupReps is how many times a poll-* run sets its topology up;
	// setup_s is the median.
	setupReps = 31
	// warmup runs the load before the timed window starts.
	warmup = time.Second
	// holdoutSeeds are never used while the benchmark or the program is
	// tuned; a claimed gain is confirmed on them.
	holdoutSeeds = "1001-1010"
)

// metricUnits is every metric the benchmark reports, with its unit.
var metricUnits = map[string]string{
	"tasks_per_s":  "tasks/s",
	"poll_p50_us":  "us",
	"poll_p90_us":  "us",
	"comm_ratio":   "ratio",
	"setup_s":      "s",
	"peak_heap_mb": "MB",

	"poll_p99_us":                    "us",
	"error_ratio":                    "ratio",
	"recovery_s":                     "s",
	"handoff_ms":                     "ms",
	"loadgen.self_us":                "us",
	"loadgen.conn_wait_us":           "us",
	"loadgen.poll_samples":           "count",
	"nethttp.self_us":                "us",
	"nethttp.conns_opened":           "count",
	"federation.router.self_us":      "us",
	"federation.router.errors":       "count",
	"service.handler.json_us":        "us",
	"service.handler.frame_us":       "us",
	"service.handler.non2xx":         "count",
	"service.host.next_us":           "us",
	"service.host.tasks_per_poll":    "tasks",
	"service.host.wait_ratio":        "ratio",
	"service.host.stall_us":          "us",
	"durable.journal_bytes_per_poll": "bytes",
	"durable.replay_bytes":           "bytes",
	"durable.checkpoint_ms":          "ms",
	"durable.snapshot_bytes":         "bytes",
	"durable.export_ms":              "ms",
	"durable.import_ms":              "ms",
	"durable.commit_ms":              "ms",
	"durable.transfer_bytes":         "bytes",
	"runtime.allocs_per_poll":        "count",
	"runtime.alloc_bytes_per_poll":   "bytes",
	"runtime.gc_pause_ms":            "ms",
	"runtime.cpu_busy_share":         "share",
	"trace.unattributed_share":       "share",
	"trace.overhead_share":           "share",
}

// endToEnd lists the metrics of an untraced run; every other metric of
// metricUnits belongs to the traced run.
var endToEnd = []string{"tasks_per_s", "poll_p50_us", "poll_p90_us", "comm_ratio", "setup_s", "peak_heap_mb"}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "summarize" {
		if err := summarize(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	var o options
	var seed int64
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "poll-http | poll-federated | host-durable")
	flag.Int64Var(&seed, "seed", 1, "workload seed: run ids, run seeds and worker speeds derive from it (hold-out seeds: "+holdoutSeeds+")")
	flag.IntVar(&o.seconds, "seconds", 30, "length of the timed window")
	flag.IntVar(&traceFlag, "trace", 0, "1: report per-layer metrics from a traced run")
	flag.IntVar(&o.conns, "conns", runtime.NumCPU(), "issuing goroutines, each with one connection (at most nproc)")
	flag.StringVar(&o.workDir, "workdir", ".bench_build", "directory for journals and snapshots (emptied of this run's files on exit)")
	flag.Parse()
	o.seed, o.trace = uint64(seed), traceFlag == 1
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if o.trace && o.seconds < 2 {
		return fmt.Errorf("a traced run needs --seconds of at least 2")
	}
	if o.conns < 1 || o.conns > runtime.NumCPU() {
		return fmt.Errorf("--conns %d: refusing more issuing goroutines than nproc (%d)", o.conns, runtime.NumCPU())
	}
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return err
	}
	fmt.Printf("env: workload=%s seed=%d nproc=%d GOMAXPROCS=%d go=%s net=loopback conns=%d seconds=%d trace=%v\n",
		o.workload, o.seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), o.conns, o.seconds, o.trace)
	var res *result
	var err error
	switch o.workload {
	case "poll-http":
		res, err = runHTTP(httpSpec{shape: pollShape, liveRuns: 4, hosts: 1}, o)
	case "poll-federated":
		res, err = runHTTP(httpSpec{shape: pollShape, liveRuns: 4, hosts: 2, frameOdd: true}, o)
	case "host-durable":
		res, err = runDurable(o)
	default:
		return fmt.Errorf("unknown --workload %q (poll-http | poll-federated | host-durable)", o.workload)
	}
	if err != nil {
		return err
	}
	return res.print(o.trace)
}

// pollShape is the run of both poll-* workloads: the paper's outer
// product, two-phase strategy, 4 tasks per poll.
var pollShape = runShape{kernel: "outer", strategy: "2phases", n: 128, p: 64, batch: 4}

// clock times one run: ns since its epoch, and the timed windows. An
// untraced run has one window; a traced run splits it into an untraced
// first half (window 0) and a traced second half (window 1).
type clock struct {
	epoch  time.Time
	bounds []int64
}

func newClock() *clock { return &clock{epoch: time.Now()} }

func (c *clock) now() int64 { return int64(time.Since(c.epoch)) }

// begin places the windows: after the warm-up, seconds long in all.
// Call it before starting the goroutines that read the windows.
func (c *clock) begin(o options, warm time.Duration) {
	start := c.now() + int64(warm)
	span := int64(o.seconds) * int64(time.Second)
	if o.trace {
		c.bounds = []int64{start, start + span/2, start + span}
	} else {
		c.bounds = []int64{start, start + span}
	}
}

// window returns the index of the timed window t falls in, or -1.
func (c *clock) window(t int64) int {
	for i := 0; i+1 < len(c.bounds); i++ {
		if t >= c.bounds[i] && t < c.bounds[i+1] {
			return i
		}
	}
	return -1
}

func (c *clock) traced(win int) bool { return win == 1 }

// second is the index of the second of window win that t falls in.
func (c *clock) second(win int, t int64) int {
	return int((t - c.bounds[win]) / int64(time.Second))
}

// over reports whether every timed window has ended at t.
func (c *clock) over(t int64) bool { return t >= c.bounds[len(c.bounds)-1] }

func (c *clock) sleepUntil(t int64) {
	if d := t - c.now(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}

// observe follows the windows from the calling goroutine: it reads the
// runtime at every window bound, calls tick (when not nil) every 10ms
// through window 0, first as it begins, and samples the live heap (as
// marked by the latest GC) meanwhile. heapMB is the median over the seconds of
// window 0 of each second's peak: the peak of a single instant depends
// on which GC happened to catch a checkpoint's buffers.
func (c *clock) observe(tick func()) (snaps []rtSnap, heapMB float64) {
	c.sleepUntil(c.bounds[0])
	snaps = append(snaps, takeRT())
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	var peaks []float64
	for t := c.now(); t < c.bounds[1]; t = c.now() {
		metrics.Read(sample)
		sec := c.second(0, t)
		for len(peaks) <= sec {
			peaks = append(peaks, 0)
		}
		peaks[sec] = max(peaks[sec], float64(sample[0].Value.Uint64())/(1<<20))
		if tick != nil {
			tick()
		}
		time.Sleep(10 * time.Millisecond)
	}
	snaps = append(snaps, takeRT())
	for _, b := range c.bounds[2:] {
		c.sleepUntil(b)
		snaps = append(snaps, takeRT())
	}
	return snaps, median(peaks)
}

// slice is one sub-window: a second of an HTTP workload, a cycle of
// host-durable. Latency quantiles and throughput are taken per slice
// and reported as their median over the window, so that a second or a
// cycle disturbed by the machine does not move the result.
type slice struct {
	lat       hist
	completed int64
}

// window accumulates the polls of one timed window.
type window struct {
	slices                        []*slice
	polls, completed, granted, ok int64
}

// meter is one issuing goroutine's measurements, per timed window.
type meter struct {
	windows [2]window
}

// poll records one answered poll of window win (-1: outside the
// windows) and slice k that took lat ns, reported reported tasks
// complete and was granted granted.
func (m *meter) poll(win, k int, lat int64, reported, granted int, status string) {
	if win < 0 {
		return
	}
	w := &m.windows[win]
	for len(w.slices) <= k {
		w.slices = append(w.slices, new(slice))
	}
	s := w.slices[k]
	s.lat.add(lat)
	s.completed += int64(reported)
	w.polls++
	w.completed += int64(reported)
	w.granted += int64(granted)
	if status == "ok" {
		w.ok++
	}
}

func (w *window) merge(o *window) {
	for len(w.slices) < len(o.slices) {
		w.slices = append(w.slices, new(slice))
	}
	for i, s := range o.slices {
		w.slices[i].lat.merge(&s.lat)
		w.slices[i].completed += s.completed
	}
	w.polls += o.polls
	w.completed += o.completed
	w.granted += o.granted
	w.ok += o.ok
}

func (w *window) all() *hist {
	var h hist
	for _, s := range w.slices {
		h.merge(&s.lat)
	}
	return &h
}

// perSlice is the median over the window's slices of latency quantile
// q in µs. Slices with fewer than 100 polls are skipped.
func (w *window) perSlice(q float64) float64 {
	var xs []float64
	for _, s := range w.slices {
		if s.lat.n >= 100 {
			xs = append(xs, s.lat.quantile(q)/1e3)
		}
	}
	return median(xs)
}

// tasksPerSec is the median over the window's one-second slices of the
// tasks reported complete in the slice.
func (w *window) tasksPerSec() float64 {
	xs := make([]float64, len(w.slices))
	for i, s := range w.slices {
		xs[i] = float64(s.completed)
	}
	return median(xs)
}

func (w *window) tasksPerPoll() float64 { return float64(w.granted) / float64(max(w.polls, 1)) }

func (w *window) grantRatio() float64 { return float64(w.ok) / float64(max(w.polls, 1)) }

// opCounter counts attempted and failed operations and keeps the first
// few failure messages.
type opCounter struct {
	attempted, failed atomic.Int64
	mu                sync.Mutex
	msgs              []string
}

func (c *opCounter) fail(format string, args ...any) {
	c.failed.Add(1)
	c.mu.Lock()
	if len(c.msgs) < 8 {
		c.msgs = append(c.msgs, "FAILED: "+fmt.Sprintf(format, args...))
	}
	c.mu.Unlock()
}

// check counts a correctness check of the whole run as one operation,
// failed unless ok.
func (c *opCounter) check(ok bool, format string, args ...any) {
	c.attempted.Add(1)
	if !ok {
		c.fail(format, args...)
	}
}

// result is what a run prints.
type result struct {
	attempted, failed int64
	e2e, layer        map[string]float64
	notes             []string
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// pollMetrics fills the end-to-end poll metrics from window w.
func (r *result) pollMetrics(w *window, tasksPerSec, comm, heapMB float64) {
	r.e2e["tasks_per_s"] = tasksPerSec
	r.e2e["poll_p50_us"] = w.perSlice(0.5)
	r.e2e["poll_p90_us"] = w.perSlice(0.9)
	r.layer["poll_p99_us"] = w.perSlice(0.99)
	r.e2e["comm_ratio"] = comm
	r.e2e["peak_heap_mb"] = heapMB
	all := w.all()
	line := fmt.Sprintf("polls: n=%d p50=%.1fus p99=%.1fus", all.n, all.quantile(0.5)/1e3, all.quantile(0.99)/1e3)
	if q, ok := tailQuantile(all.n); ok {
		line += fmt.Sprintf(" %s=%.1fus (%d samples beyond)", percentLabel(q), all.quantile(q)/1e3,
			uint64(math.Round((1-q)*float64(all.n))))
	}
	r.notes = append(r.notes, line)
}

// print writes the notes and, last, the result object.
func (r *result) print(trace bool) error {
	r.layer["error_ratio"] = float64(r.failed) / float64(max(r.attempted, 1))
	for _, n := range r.notes {
		fmt.Println(n)
	}
	fmt.Printf("error_ratio: %d failed of %d attempted\n", r.failed, r.attempted)
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]metric{}
	if trace {
		for name, unit := range metricUnits {
			if !isEndToEnd(name) {
				out[name] = metric{r.layer[name], unit}
			}
		}
	} else {
		for _, name := range endToEnd {
			out[name] = metric{r.e2e[name], metricUnits[name]}
		}
		for _, name := range []string{"poll_p99_us", "recovery_s", "handoff_ms"} {
			if v, ok := r.layer[name]; ok {
				fmt.Printf("%s: %.6g %s\n", name, v, metricUnits[name])
			}
		}
	}
	for name, m := range out {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s has no value (%v)", name, m.Value)
		}
	}
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, out})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func isEndToEnd(name string) bool {
	for _, n := range endToEnd {
		if n == name {
			return true
		}
	}
	return false
}

// summarize prints, for every metric in the result lines of the given
// files, the median, quartiles and run-to-run spread (Q3−Q1 over the
// median) across the lines.
func summarize(files []string) error {
	values := map[string][]float64{}
	runs := 0
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		for _, line := range strings.Split(string(b), "\n") {
			var r struct {
				Correct bool `json:"correct"`
				Metrics map[string]struct {
					Value float64 `json:"value"`
				} `json:"metrics"`
			}
			if !strings.HasPrefix(line, "{") || json.Unmarshal([]byte(line), &r) != nil || r.Metrics == nil {
				continue
			}
			runs++
			if !r.Correct {
				fmt.Printf("%s: a run reported correct=false\n", f)
			}
			for name, m := range r.Metrics {
				values[name] = append(values[name], m.Value)
			}
		}
	}
	if runs < 2 {
		return fmt.Errorf("need at least two result lines, found %d", runs)
	}
	names := make([]string, 0, len(values))
	for n := range values {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%-32s %5s %14s %14s %14s %8s\n", "metric", "runs", "q1", "median", "q3", "spread")
	for _, n := range names {
		xs := values[n]
		if len(xs) < 2 {
			continue
		}
		q1, q2, q3 := quartiles(xs)
		fmt.Printf("%-32s %5d %14.6g %14.6g %14.6g %8.4f\n", n, len(xs), q1, q2, q3, spread(xs))
	}
	return nil
}
