package service

import (
	"cmp"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"slices"
	"time"

	"hetsched/internal/core"
	"hetsched/internal/durable"
	"hetsched/internal/stats"
	"hetsched/internal/trace"
)

// This file is the service half of internal/durable: the canonical
// creation record journaled by MutCreate, the driver op log that
// snapshots persist, and the Host snapshot/restore pair. The journal
// appends themselves live on the mutation path (host.go, registry.go);
// the replay loop that consumes all of this is recover.go.

// createRecord is the canonical resolved creation payload: the
// validated request with every server-side default already applied
// (strategy, batch, lease), plus the creation instant. Journaling the
// resolved values — not the wire request — means a restarted daemon
// with different -batch/-lease defaults still rebuilds the run
// exactly as it was created.
type createRecord struct {
	ID       string  `json:"id"`
	Kernel   string  `json:"kernel"`
	Strategy string  `json:"strategy"`
	N        int     `json:"n"`
	P        int     `json:"p"`
	Seed     uint64  `json:"seed"`
	Beta     float64 `json:"beta,omitempty"`
	Batch    int     `json:"batch"`
	// LeaseSeconds is the resolved lease; -1 records "leases disabled"
	// explicitly, because on the wire 0 means "inherit the server
	// default" and the default may differ after a restart.
	LeaseSeconds float64 `json:"lease_seconds"`
	CreatedNs    int64   `json:"created_ns"`
}

// encodeCreateRecord builds the payload for run (everything needed is
// on the Run and its Host).
func encodeCreateRecord(run *Run) []byte {
	lease := run.Host.Lease().Seconds()
	if lease == 0 {
		lease = -1
	}
	rec := createRecord{
		ID:           run.ID,
		Kernel:       run.Kernel,
		Strategy:     run.Strategy,
		N:            run.N,
		P:            run.P,
		Seed:         run.Seed,
		Beta:         run.Beta,
		Batch:        run.Host.Batch(),
		LeaseSeconds: lease,
		CreatedNs:    run.Created.UnixNano(),
	}
	b, err := json.Marshal(&rec)
	if err != nil {
		// Marshal of a flat struct of scalars cannot fail.
		panic(fmt.Sprintf("service: encoding create record: %v", err))
	}
	return b
}

// decodeCreateRecord parses a MutCreate payload (or a snapshot's
// Request field).
func decodeCreateRecord(b []byte) (createRecord, error) {
	var rec createRecord
	if err := json.Unmarshal(b, &rec); err != nil {
		return rec, fmt.Errorf("service: decoding create record: %w", err)
	}
	if rec.ID == "" || rec.Batch < 1 || rec.P < 1 {
		return rec, fmt.Errorf("service: create record for %q is malformed", rec.ID)
	}
	return rec, nil
}

// request converts the record back into a validated creation request
// for NewDriver. The strategy was resolved at creation, so Validate's
// defaulting is a no-op on it.
func (rec createRecord) request() CreateRunRequest {
	return CreateRunRequest{
		ID:       rec.ID,
		Kernel:   rec.Kernel,
		Strategy: rec.Strategy,
		N:        rec.N,
		P:        rec.P,
		Seed:     rec.Seed,
		Beta:     rec.Beta,
		Batch:    rec.Batch,
	}
}

// lease returns the record's lease duration.
func (rec createRecord) lease() time.Duration {
	if rec.LeaseSeconds <= 0 {
		return 0
	}
	return time.Duration(rec.LeaseSeconds * float64(time.Second))
}

// --- Driver op log ----------------------------------------------------

// The op log persists a driver as the byte sequence of its successful
// calls:
//
//	'n' worker(u32)                        one granted NextInto/Next step
//	'c' worker(u32) k(u32) task(u64)*k     one completion report
//	'r' worker(u32) k(u32) task(u64)*k     one reclaim return
//
// Replaying the log against a freshly built driver (same creation
// record, same seed → same rng.New(Seed).Split() stream) reproduces
// the exact internal state: ready sets, tile versions, per-worker
// cursors and the RNG cursor itself. The grant steps need no task
// list — the replayed driver re-derives the identical assignment, and
// restore discards it.
const (
	opNext     = 'n'
	opComplete = 'c'
	opReassign = 'r'
)

func appendOpNext(dst []byte, w int) []byte {
	dst = append(dst, opNext)
	return binary.LittleEndian.AppendUint32(dst, uint32(w))
}

func appendOpComplete(dst []byte, w int, ts []core.Task) []byte {
	return appendOpTasks(dst, opComplete, w, ts)
}

func appendOpReassign(dst []byte, w int, ts []core.Task) []byte {
	return appendOpTasks(dst, opReassign, w, ts)
}

func appendOpTasks(dst []byte, op byte, w int, ts []core.Task) []byte {
	dst = append(dst, op)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(w))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(ts)))
	for _, t := range ts {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(t))
	}
	return dst
}

// replayDriverOps re-executes a persisted op log against drv. Any
// structural damage or a driver refusing an op that once succeeded
// means the snapshot does not belong to this driver — an error, never
// a partial restore the caller can miss.
func replayDriverOps(drv core.Driver, ops []byte) error {
	bdrv, _ := drv.(core.BufferedDriver)
	var reassigner core.Reassigner
	var tmp, tasks []core.Task
	i := 0
	for i < len(ops) {
		op := ops[i]
		if len(ops)-i < 5 {
			return fmt.Errorf("service: driver op log truncated at %d", i)
		}
		w := int(binary.LittleEndian.Uint32(ops[i+1:]))
		i += 5
		switch op {
		case opNext:
			var ok bool
			if bdrv != nil {
				var a core.Assignment
				a, ok = bdrv.NextInto(w, tmp)
				if ok && a.Tasks != nil {
					tmp = a.Tasks[:0]
				}
			} else {
				_, ok = drv.Next(w)
			}
			if !ok {
				return fmt.Errorf("service: driver refused replayed grant step for worker %d", w)
			}
		case opComplete, opReassign:
			if len(ops)-i < 4 {
				return fmt.Errorf("service: driver op log truncated at %d", i)
			}
			k := int(binary.LittleEndian.Uint32(ops[i:]))
			i += 4
			if k < 0 || len(ops)-i < k*8 {
				return fmt.Errorf("service: driver op log truncated at %d", i)
			}
			tasks = tasks[:0]
			for j := 0; j < k; j++ {
				tasks = append(tasks, core.Task(binary.LittleEndian.Uint64(ops[i:])))
				i += 8
			}
			if op == opComplete {
				drv.Complete(w, tasks)
				continue
			}
			if reassigner == nil {
				var ok bool
				if reassigner, ok = drv.(core.Reassigner); !ok {
					return fmt.Errorf("service: op log has a reclaim but driver %s cannot reassign", drv.Name())
				}
			}
			reassigner.Reassign(w, tasks)
		default:
			return fmt.Errorf("service: unknown driver op %#02x at %d", op, i-5)
		}
	}
	return nil
}

// --- Host snapshot / restore -----------------------------------------

// applyReclaim replays a journaled reclaim pass at its recorded
// instant; the live twin is the gate in apply/ReclaimExpired feeding
// reclaimAll with the live clock.
func (h *Host) applyReclaim(timeNs int64) int {
	return h.reclaimAll(time.Unix(0, timeNs))
}

// fillSnapshot captures the host-owned durable state into s in two
// phases. cutSnapshot copies a consistent cut at watermark h.muts
// under every stripe plus the core lock (the same atomicity as Stats),
// in O(live state) and without sorting; polls stall only for that
// copy. The canonical order — grants by task, stains by (task,
// worker), so snapshot bytes are deterministic for a given state — is
// imposed after the locks drop, on the snapshot's private copies.
func (h *Host) fillSnapshot(s *durable.RunSnapshot) {
	h.cutSnapshot(s)
	slices.SortFunc(s.Grants, func(a, b durable.Grant) int { return cmp.Compare(a.Task, b.Task) })
	slices.SortFunc(s.Stains, func(a, b durable.Stain) int {
		if c := cmp.Compare(a.Task, b.Task); c != 0 {
			return c
		}
		return cmp.Compare(a.Worker, b.Worker)
	})
}

// cutSnapshot is fillSnapshot's locked phase. Every slice it stores is
// presized to its exact length, except DriverOps: the op log is
// append-only (never truncated or rewritten in place), so its first n
// bytes are immutable and the snapshot shares them as the cap-limited
// prefix h.opLog[:n:n] — later appends land past n, and an append to
// the shared slice reallocates instead of writing into the host's
// buffer.
func (h *Host) cutSnapshot(s *durable.RunSnapshot) {
	h.lockStripes()
	defer h.unlockStripes()
	h.mu.Lock()
	defer h.mu.Unlock()
	s.Mutations = h.muts
	s.StartNs = h.start.UnixNano()
	s.LastNs = h.last.UnixNano()
	s.LastPollNs = h.lastPoll.UnixNano()
	s.Assigned = int64(h.assigned)
	s.Completed = int64(h.completed)
	s.Reclaimed = int64(h.reclaimed)
	s.Blocks = int64(h.blocks)
	s.Requests = int64(h.requests)
	s.Polls = int64(h.polls)
	n, mean, m2, lo, hi := h.batchAcc.State()
	s.BatchN, s.BatchMean, s.BatchM2, s.BatchMin, s.BatchMax = int64(n), mean, m2, lo, hi
	s.BatchHist = append([]int64(nil), h.batchHist[:]...)
	s.Workers = make([]durable.WorkerCounters, len(h.workers))
	for i, w := range h.workers {
		s.Workers[i] = durable.WorkerCounters{
			Requests:  int64(w.Requests),
			Tasks:     int64(w.Tasks),
			Blocks:    int64(w.Blocks),
			Reclaimed: int64(w.Reclaimed),
		}
	}
	s.Segments = append([]trace.Segment(nil), h.tr.Segments...)
	s.Open = make([]int32, len(h.open))
	for i, idx := range h.open {
		s.Open[i] = int32(idx)
	}
	grants, stains := 0, 0
	for i := range h.stripes {
		grants += h.stripes[i].outstanding.n
		stains += len(h.stripes[i].reclaimedFrom)
	}
	s.Grants = slices.Grow(s.Grants[:0], grants)
	s.Stains = slices.Grow(s.Stains[:0], stains)
	for i := range h.stripes {
		st := &h.stripes[i]
		st.outstanding.forEach(func(t core.Task, worker int32, expiryNs int64) {
			s.Grants = append(s.Grants, durable.Grant{Task: int64(t), ExpiryNs: expiryNs, Worker: worker})
		})
		for to := range st.reclaimedFrom {
			s.Stains = append(s.Stains, durable.Stain{Task: int64(to.task), Worker: int32(to.worker)})
		}
	}
	s.DriverOps = h.opLog[:len(h.opLog):len(h.opLog)]
}

// restoreHost rebuilds a Host from a snapshot: drv must already have
// the snapshot's op log replayed into it. The returned host is in
// replay mode (journal appends suppressed, clock frozen at the
// snapshot instant is irrelevant — every subsequent apply carries its
// recorded timestamp); finishRecovery flips it live.
func restoreHost(drv core.Driver, rec createRecord, s *durable.RunSnapshot, jr *durable.Log) (*Host, error) {
	created := time.Unix(0, rec.CreatedNs)
	h := NewHostWithClock(drv, rec.Batch, rec.lease(), func() time.Time { return created })
	if len(s.Workers) != h.p || len(s.Open) != h.p {
		return nil, fmt.Errorf("service: snapshot of %q has %d workers, driver has %d", s.ID, len(s.Workers), h.p)
	}
	if len(s.BatchHist) > batchBuckets {
		return nil, fmt.Errorf("service: snapshot of %q has %d histogram buckets, host has %d", s.ID, len(s.BatchHist), batchBuckets)
	}
	h.jr = jr
	h.runID = s.ID
	h.replay = true
	h.muts = s.Mutations
	h.opLog = append(make([]byte, 0, max(opLogPresize, len(s.DriverOps)+opLogPresize/2)), s.DriverOps...)
	h.start = time.Unix(0, s.StartNs)
	h.last = time.Unix(0, s.LastNs)
	h.lastPoll = time.Unix(0, s.LastPollNs)
	h.assigned = int(s.Assigned)
	h.completed = int(s.Completed)
	h.reclaimed = int(s.Reclaimed)
	h.blocks = int(s.Blocks)
	h.requests = int(s.Requests)
	h.polls = int(s.Polls)
	h.batchAcc = stats.RestoreAccumulator(int(s.BatchN), s.BatchMean, s.BatchM2, s.BatchMin, s.BatchMax)
	copy(h.batchHist[:], s.BatchHist)
	for i, wc := range s.Workers {
		h.workers[i].Requests = int(wc.Requests)
		h.workers[i].Tasks = int(wc.Tasks)
		h.workers[i].Blocks = int(wc.Blocks)
		h.workers[i].Reclaimed = int(wc.Reclaimed)
	}
	h.tr.Segments = append(h.tr.Segments[:0], s.Segments...)
	for w, idx := range s.Open {
		if int(idx) >= len(h.tr.Segments) {
			return nil, fmt.Errorf("service: snapshot of %q has open segment %d past trace length %d", s.ID, idx, len(h.tr.Segments))
		}
		h.open[w] = int(idx)
	}
	var nextNs int64
	for _, g := range s.Grants {
		w := int(g.Worker)
		if w < 0 || w >= h.p {
			return nil, fmt.Errorf("service: snapshot of %q grants task %d to worker %d of %d", s.ID, g.Task, w, h.p)
		}
		h.stripe(w).outstanding.put(core.Task(g.Task), g.Worker, g.ExpiryNs)
		if g.ExpiryNs > 0 && (nextNs == 0 || g.ExpiryNs < nextNs) {
			nextNs = g.ExpiryNs
		}
	}
	h.outstandingCount.Store(int64(len(s.Grants)))
	h.nextExpiryNs.Store(nextNs)
	for _, st := range s.Stains {
		w := int(st.Worker)
		if w < 0 || w >= h.p {
			return nil, fmt.Errorf("service: snapshot of %q stains worker %d of %d", s.ID, w, h.p)
		}
		sp := h.stripe(w)
		if sp.reclaimedFrom == nil {
			return nil, fmt.Errorf("service: snapshot of %q has stains but leases are disarmed", s.ID)
		}
		sp.reclaimedFrom[taskOwner{core.Task(st.Task), w}] = struct{}{}
	}
	h.lastState = h.stateLocked()
	return h, nil
}

// finishRecovery flips a replayed host live: journal appends resume
// (continuing the mutation sequence the crashed process left off) and
// the clock becomes the caller's. Recovery is single-threaded, so no
// poll can race this.
func (h *Host) finishRecovery(now func() time.Time) {
	h.replay = false
	h.now = now
}

// snapshot cuts a full RunSnapshot of the run.
func (r *Run) snapshot() *durable.RunSnapshot {
	s := &durable.RunSnapshot{
		ID:        r.ID,
		Expired:   r.Expired(),
		Request:   encodeCreateRecord(r),
		CreatedNs: r.Created.UnixNano(),
	}
	r.Host.fillSnapshot(s)
	return s
}
