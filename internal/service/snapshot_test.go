package service

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hetsched/internal/core"
	"hetsched/internal/durable"
)

// TestFillSnapshotCanonicalOrder pins the contract of the two-phase
// cut: whatever order the locked phase copies the stripe tables in,
// the snapshot leaves fillSnapshot with grants strictly ascending by
// task and stains strictly ascending by (task, worker). The host is
// driven through two lease reclaims so one task carries stains from
// two workers and the tie-break is exercised.
func TestFillSnapshotCanonicalOrder(t *testing.T) {
	const p, lease = 8, time.Minute
	q := CreateRunRequest{Kernel: KernelMatmul, Strategy: "2phases", N: 8, P: p, Seed: 5}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	drv, err := NewDriver(&q)
	if err != nil {
		t.Fatal(err)
	}
	h, clk := newLeaseHost(t, drv, 3, lease)
	for round := 0; round < 2; round++ {
		// Every worker takes a batch and dies on it; the next poll
		// after the expiry reclaims them all and the survivors are
		// granted the reclaimed tasks first.
		for w := 0; w < p; w++ {
			mustNext(t, h, w, nil)
		}
		clk.Advance(2 * lease)
	}
	for w := 0; w < p/2; w++ {
		mustNext(t, h, w, nil)
	}
	var s durable.RunSnapshot
	h.fillSnapshot(&s)
	if len(s.Grants) == 0 || len(s.Stains) == 0 {
		t.Fatalf("snapshot has %d grants and %d stains, want both", len(s.Grants), len(s.Stains))
	}
	for i := 1; i < len(s.Grants); i++ {
		if a, b := s.Grants[i-1], s.Grants[i]; a.Task >= b.Task {
			t.Fatalf("grants not strictly ascending by task at %d: %v then %v", i, a, b)
		}
	}
	twice := false
	for i := 1; i < len(s.Stains); i++ {
		a, b := s.Stains[i-1], s.Stains[i]
		if a.Task > b.Task || (a.Task == b.Task && a.Worker >= b.Worker) {
			t.Fatalf("stains not strictly ascending by (task, worker) at %d: %v then %v", i, a, b)
		}
		twice = twice || a.Task == b.Task
	}
	if !twice {
		t.Fatalf("no task is stained by two workers, the tie-break is untested: %v", s.Stains)
	}
	// The canonical order makes the bytes a function of the state.
	var again durable.RunSnapshot
	h.fillSnapshot(&again)
	if !bytes.Equal(durable.AppendSnapshot(nil, &s), durable.AppendSnapshot(nil, &again)) {
		t.Fatal("two cuts of the same state encode differently")
	}
}

// TestSnapshotSharesImmutableOpLog pins the op-log sharing invariant:
// the snapshot holds a cap-limited prefix of the host's append-only op
// log, so polls after the cut change neither its bytes nor its
// encoding.
func TestSnapshotSharesImmutableOpLog(t *testing.T) {
	w := newWorld(t, t.TempDir(), newVclock(), true)
	run := w.create("r-oplog", CreateRunRequest{Kernel: KernelMatmul, Strategy: "2phases", N: 8, P: 4, Seed: 3})
	pend := pending{}
	pollRound(t, run, w.clk, pend, 3, time.Second)
	s := run.snapshot()
	if len(s.DriverOps) == 0 || cap(s.DriverOps) != len(s.DriverOps) {
		t.Fatalf("DriverOps len %d cap %d, want a non-empty cap-limited prefix", len(s.DriverOps), cap(s.DriverOps))
	}
	enc := durable.AppendSnapshot(nil, s)
	pollRound(t, run, w.clk, pend, 3, time.Second)
	if !bytes.Equal(enc, durable.AppendSnapshot(nil, s)) {
		t.Fatal("polls after the cut changed the snapshot's encoding")
	}
	if after := run.snapshot(); len(after.DriverOps) <= len(s.DriverOps) {
		t.Fatalf("op log did not grow: %d then %d bytes", len(s.DriverOps), len(after.DriverOps))
	}
}

// TestCheckpointConcurrentWithPolls checkpoints a journaled matmul run
// in a loop while two goroutines drain it, then crashes and recovers
// the registry: the recovered run must carry the exact pre-crash
// ledger, and finishing the drain must grant every task exactly once.
// Under -race it checks the off-lock phases of the cut (sorting and
// encoding while polls append to the shared op log) and the grant-table
// inserts that follow the core lock's release.
func TestCheckpointConcurrentWithPolls(t *testing.T) {
	const p, drainers = 64, 2
	w := newWorld(t, t.TempDir(), newVclock(), true)
	run := w.create("r-ckpt", CreateRunRequest{Kernel: KernelMatmul, Strategy: "2phases", N: 16, P: p, Seed: 11})
	total := run.Host.Total()
	target := int64(total / 2)

	var done atomic.Int64
	pend := make([][]core.Task, p)
	granted := make([]map[int64]int, drainers)
	errs := make([]error, drainers)
	var wg sync.WaitGroup
	for g := 0; g < drainers; g++ {
		granted[g] = map[int64]int{}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for done.Load() < target {
				for wk := g; wk < p; wk += drainers {
					a, _, err := run.Host.Next(wk, pend[wk])
					if err != nil {
						errs[g] = err
						return
					}
					done.Add(int64(len(pend[wk])))
					pend[wk] = append(pend[wk][:0], a.Tasks...)
					for _, task := range a.Tasks {
						granted[g][int64(task)]++
					}
				}
			}
		}(g)
	}
	var stop atomic.Bool
	var checkpoints int
	var ckptErr error
	ckptDone := make(chan struct{})
	go func() {
		defer close(ckptDone)
		for {
			if ckptErr = w.reg.Checkpoint(); ckptErr != nil {
				return
			}
			checkpoints++
			if stop.Load() {
				return
			}
		}
	}()
	wg.Wait()
	stop.Store(true)
	<-ckptDone
	for _, err := range errs {
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	}
	if ckptErr != nil {
		t.Fatalf("checkpoint %d: %v", checkpoints+1, ckptErr)
	}
	t.Logf("%d checkpoints during a %d-task drain", checkpoints, target)

	pre := run.Host.Stats()
	if pre.Outstanding == 0 {
		t.Fatal("nothing in flight at the crash; the grant table is untested")
	}
	nw := w.crashRecover()
	got, ok := nw.reg.Get("r-ckpt")
	if !ok {
		t.Fatal("run lost in recovery")
	}
	post := got.Host.Stats()
	if post.Assigned != pre.Assigned || post.Completed != pre.Completed ||
		post.Blocks != pre.Blocks || post.Outstanding != pre.Outstanding {
		t.Fatalf("recovered assigned/completed/blocks/outstanding %d/%d/%d/%d, want %d/%d/%d/%d",
			post.Assigned, post.Completed, post.Blocks, post.Outstanding,
			pre.Assigned, pre.Completed, pre.Blocks, pre.Outstanding)
	}

	// Finish on the recovered host: the batches held across the crash
	// are reported there, and nothing is granted a second time.
	accepted := map[int64]int{}
	for _, m := range granted {
		for task, n := range m {
			accepted[task] += n
		}
	}
	for retired := 0; retired < p; {
		retired = 0
		for wk := 0; wk < p; wk++ {
			a, status := mustNext(t, got.Host, wk, pend[wk])
			pend[wk] = append(pend[wk][:0], a.Tasks...)
			for _, task := range a.Tasks {
				accepted[int64(task)]++
			}
			if status == StatusDone {
				retired++
			}
		}
	}
	checkExactlyOnce(t, accepted, total)
	if st := got.Host.Stats(); st.State != StateComplete || st.Completed != total {
		t.Fatalf("recovered run ended %s with %d of %d completed", st.State, st.Completed, total)
	}
}
