package main

import (
	"fmt"
	"sync/atomic"

	"hetsched/internal/analysis"
	"hetsched/internal/rng"
	"hetsched/internal/service"
	"hetsched/internal/speeds"
)

// runShape is the create request every run of a workload shares; only
// the id and the scheduler seed differ between runs.
type runShape struct {
	kernel, strategy string
	n, p, batch      int
}

func (s runShape) request(id string, seed uint64) service.CreateRunRequest {
	return service.CreateRunRequest{ID: id, Kernel: s.kernel, Strategy: s.strategy,
		N: s.n, P: s.p, Seed: seed, Batch: s.batch}
}

func (s runShape) tasks() int {
	if s.kernel == "matmul" {
		return s.n * s.n * s.n
	}
	return s.n * s.n
}

// lowerBound is the paper's communication lower bound of one run of
// this shape on a platform with the given absolute speeds.
func (s runShape) lowerBound(spd []float64) float64 {
	rs := speeds.Relative(spd)
	if s.kernel == "matmul" {
		return analysis.LowerBoundMatrix(rs, s.n)
	}
	return analysis.LowerBoundOuter(rs, s.n)
}

// seeds derives everything random in a workload from its one seed:
// the platform speeds (the paper's uniform [10, 100) draw) and a
// stream of run ids and run seeds.
type seeds struct {
	speeds []float64
	runs   *rng.PCG
}

func newSeeds(seed uint64, p int) *seeds {
	root := rng.New(seed)
	return &seeds{speeds: speeds.UniformRange(p, 10, 100, root.Split()), runs: root.Split()}
}

func (s *seeds) next() (id string, seed uint64) {
	return fmt.Sprintf("pb-%016x", s.runs.Uint64()), s.runs.Uint64()
}

// fleet is the paper's platform driving one run: logical workers with
// fixed speeds, each holding at most one batch. A worker that is
// granted k tasks at virtual time t finishes them at t + k/speed and
// then polls again, reporting them; the fleet always hands out the
// worker with the earliest virtual finishing time, so the order of
// polls the master sees is the one the paper's demand-driven platform
// produces, whatever the wall-clock speed of the load generator.
type fleet struct {
	speed []float64
	vt    []float64
	held  [][]int64
	heap  []int32 // workers ready to poll, min-ordered by (vt, id)
	// inflight counts workers popped but not yet settled.
	inflight int
}

// newFleet builds a fleet over the listed workers (indices into spd).
func newFleet(spd []float64, workers []int) *fleet {
	f := &fleet{speed: spd, vt: make([]float64, len(spd)), held: make([][]int64, len(spd))}
	for _, w := range workers {
		f.push(int32(w))
	}
	return f
}

func (f *fleet) less(a, b int32) bool {
	if f.vt[a] != f.vt[b] {
		return f.vt[a] < f.vt[b]
	}
	return a < b
}

func (f *fleet) push(w int32) {
	h := append(f.heap, w)
	for i := len(h) - 1; i > 0; {
		up := (i - 1) / 2
		if !f.less(h[i], h[up]) {
			break
		}
		h[i], h[up] = h[up], h[i]
		i = up
	}
	f.heap = h
}

// pop hands out the worker with the earliest virtual finishing time.
func (f *fleet) pop() (int, bool) {
	h := f.heap
	if len(h) == 0 {
		return 0, false
	}
	w := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		l, m := 2*i+1, i
		if l < len(h) && f.less(h[l], h[m]) {
			m = l
		}
		if r := l + 1; r < len(h) && f.less(h[r], h[m]) {
			m = r
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	f.heap = h
	f.inflight++
	return int(w), true
}

// settle applies worker w's poll answer. A granted batch becomes the
// report of w's next poll, due when w finishes it in virtual time.
// "wait" on a flat kernel means every task is granted and others still
// hold theirs, so w has nothing left to do and retires like "done".
func (f *fleet) settle(w int, status string, tasks []int64) {
	f.inflight--
	f.held[w] = append(f.held[w][:0], tasks...)
	if status == service.StatusOK && len(tasks) > 0 {
		f.vt[w] += float64(len(tasks)) / f.speed[w]
		f.push(int32(w))
	}
}

// drained reports whether no worker will poll again.
func (f *fleet) drained() bool { return len(f.heap) == 0 && f.inflight == 0 }

// ledger checks exactly-once granting for one run from the worker side:
// every task id granted at most once and inside [0, total).
type ledger struct {
	total   int
	granted []atomic.Uint64
	count   atomic.Int64
	blocks  atomic.Int64
}

func newLedger(total int) *ledger {
	return &ledger{total: total, granted: make([]atomic.Uint64, (total+63)/64)}
}

// grant records one answered poll and returns how many of its tasks
// violate exactly-once (granted before, or out of range). Safe for
// concurrent use.
func (l *ledger) grant(tasks []int64, blocks int) (bad int) {
	l.blocks.Add(int64(blocks))
	for _, t := range tasks {
		if t < 0 || t >= int64(l.total) {
			bad++
			continue
		}
		bit := uint64(1) << (t % 64)
		if l.granted[t/64].Or(bit)&bit != 0 {
			bad++
			continue
		}
		l.count.Add(1)
	}
	return bad
}

// verify compares a drained run's server-side statistics with the
// ledger and returns one message per violated check.
func (l *ledger) verify(st service.StatsResponse) []string {
	var bad []string
	if n := l.count.Load(); n != int64(l.total) {
		bad = append(bad, fmt.Sprintf("%d of %d tasks granted", n, l.total))
	}
	if st.Total != l.total || st.Assigned != l.total || st.Completed != l.total || st.Outstanding != 0 {
		bad = append(bad, fmt.Sprintf("stats total=%d assigned=%d completed=%d outstanding=%d, want %d/%d/%d/0",
			st.Total, st.Assigned, st.Completed, st.Outstanding, l.total, l.total, l.total))
	}
	if st.State != service.StateComplete {
		bad = append(bad, fmt.Sprintf("state %q, want %q", st.State, service.StateComplete))
	}
	if b := l.blocks.Load(); int64(st.Blocks) != b {
		bad = append(bad, fmt.Sprintf("stats blocks=%d, workers were told %d", st.Blocks, b))
	}
	return bad
}
