package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"

	"hetsched/internal/trace"
)

// WorkerCounters is one worker's per-run counters as persisted by a
// snapshot; the worker index is the slice position.
type WorkerCounters struct {
	Requests, Tasks, Blocks, Reclaimed int64
}

// Grant is one outstanding lease: task granted to Worker, expiring at
// ExpiryNs (0 when leases are disabled).
type Grant struct {
	Task     int64
	ExpiryNs int64
	Worker   int32
}

// Stain is one reclaimed-ownership mark: Worker lost Task to a lease
// reclaim and its late completion must draw a deterministic 409.
type Stain struct {
	Task   int64
	Worker int32
}

// RunSnapshot is the full persisted state of one run: everything the
// service needs to rebuild its Host — and the driver inside it — to
// the exact instant the snapshot was cut. Mutations is the per-run
// sequence watermark: recovery restores the snapshot and then replays
// only journal records with a higher sequence number.
//
// The driver itself is persisted as DriverOps, an append-only op log
// of the successful driver calls (grant steps, completion reports,
// reclaim returns) in execution order. Drivers are deterministic
// single-goroutine state machines seeded from the creation record, so
// re-executing the op log against a freshly built driver reproduces
// its exact internal state, RNG included — no per-scheduler
// serialization needed.
type RunSnapshot struct {
	ID        string
	Mutations uint64
	Expired   bool
	Request   []byte // canonical creation record (same payload as MutCreate)

	CreatedNs  int64
	StartNs    int64
	LastNs     int64
	LastPollNs int64

	Assigned, Completed, Reclaimed int64
	Blocks, Requests, Polls        int64

	BatchN                                 int64
	BatchMean, BatchM2, BatchMin, BatchMax float64
	BatchHist                              []int64

	Workers  []WorkerCounters
	Segments []trace.Segment
	Open     []int32 // per-worker open trace segment index, -1 when closed

	Grants []Grant
	Stains []Stain

	DriverOps []byte
}

// Snapshot file format: magic, fixed-width little-endian fields in
// struct order (u16 length-prefixed ID, u32 length-prefixed slices),
// and a trailing CRC-32C over everything before it. The encoding is
// canonical — every field has exactly one representation — so
// encode(decode(b)) == b for any accepted b (FuzzSnapshotRoundTrip
// pins this).
var snapMagic = [4]byte{'H', 'S', 'N', '1'}

// maxSnapshotSlice bounds every slice length a decoder will accept.
const maxSnapshotSlice = 1 << 26

// AppendSnapshot appends the encoding of s to dst. The trailing CRC
// covers the snapshot's own bytes only, so the encoding is position
// independent — it may be embedded mid-stream (transfer streams do).
// dst grows at most once, to exactly the encoded length.
func AppendSnapshot(dst []byte, s *RunSnapshot) []byte {
	if len(s.ID) > 1<<16-1 {
		panic("durable: run id exceeds snapshot format")
	}
	dst = grow(dst, snapshotSize(s))
	start := len(dst)
	dst = append(dst, snapMagic[:]...)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(s.ID)))
	dst = append(dst, s.ID...)
	dst = binary.LittleEndian.AppendUint64(dst, s.Mutations)
	if s.Expired {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = appendBytes(dst, s.Request)
	for _, v := range [...]int64{
		s.CreatedNs, s.StartNs, s.LastNs, s.LastPollNs,
		s.Assigned, s.Completed, s.Reclaimed, s.Blocks, s.Requests, s.Polls,
		s.BatchN,
	} {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
	}
	for _, v := range [...]float64{s.BatchMean, s.BatchM2, s.BatchMin, s.BatchMax} {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s.BatchHist)))
	for _, v := range s.BatchHist {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s.Workers)))
	for _, w := range s.Workers {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(w.Requests))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(w.Tasks))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(w.Blocks))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(w.Reclaimed))
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s.Segments)))
	for _, seg := range s.Segments {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(seg.Proc)))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(seg.Start))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(seg.End))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(seg.Tasks)))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(seg.Blocks)))
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s.Open)))
	for _, v := range s.Open {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(v))
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s.Grants)))
	for _, g := range s.Grants {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(g.Task))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(g.ExpiryNs))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(g.Worker))
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s.Stains)))
	for _, st := range s.Stains {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(st.Task))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(st.Worker))
	}
	dst = appendBytes(dst, s.DriverOps)
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[start:], crcTable))
}

// snapshotSize is the exact length of s's encoding: the fixed header
// and scalars, one u32 length per slice, the fixed-width elements, and
// the CRC.
func snapshotSize(s *RunSnapshot) int {
	const (
		fixed = len(snapMagic) + 2 + 8 + 1 + // magic, id length, watermark, expired
			11*8 + 4*8 + // int64 and float64 scalars
			8*4 + // u32 lengths of the eight byte and element slices
			4 // CRC
		worker  = 4 * 8
		segment = 5 * 8
		grant   = 8 + 8 + 4
		stain   = 8 + 4
	)
	return fixed + len(s.ID) + len(s.Request) + 8*len(s.BatchHist) + worker*len(s.Workers) +
		segment*len(s.Segments) + 4*len(s.Open) + grant*len(s.Grants) + stain*len(s.Stains) + len(s.DriverOps)
}

// grow is slices.Grow with one allocation in every build mode: the
// compiler's no-allocation form of append(s, make(...)...) that
// slices.Grow relies on is disabled under -race.
func grow(dst []byte, n int) []byte {
	if cap(dst)-len(dst) >= n {
		return dst
	}
	return append(make([]byte, 0, len(dst)+n), dst...)
}

func appendBytes(dst, b []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(b)))
	return append(dst, b...)
}

// snapReader pulls fixed-width fields off a snapshot body with
// saturating error state, keeping every accessor total.
type snapReader struct {
	data []byte
	i    int
	bad  bool
}

func (r *snapReader) u16() uint16 {
	if r.bad || len(r.data)-r.i < 2 {
		r.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint16(r.data[r.i:])
	r.i += 2
	return v
}

func (r *snapReader) u32() uint32 {
	if r.bad || len(r.data)-r.i < 4 {
		r.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint32(r.data[r.i:])
	r.i += 4
	return v
}

func (r *snapReader) u64() uint64 {
	if r.bad || len(r.data)-r.i < 8 {
		r.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint64(r.data[r.i:])
	r.i += 8
	return v
}

func (r *snapReader) i64() int64   { return int64(r.u64()) }
func (r *snapReader) f64() float64 { return math.Float64frombits(r.u64()) }
func (r *snapReader) sliceLen() int {
	n := int(r.u32())
	if n > maxSnapshotSlice || (!r.bad && n > len(r.data)-r.i) {
		r.bad = true
		return 0
	}
	return n
}

func (r *snapReader) bytes(n int) []byte {
	if r.bad || len(r.data)-r.i < n {
		r.bad = true
		return nil
	}
	b := r.data[r.i : r.i+n]
	r.i += n
	return b
}

// DecodeSnapshot parses an encoded snapshot. It is total on arbitrary
// bytes and rejects any damage: bad magic, truncation, trailing bytes,
// non-canonical booleans and CRC mismatches all fail with an error.
func DecodeSnapshot(b []byte) (*RunSnapshot, error) {
	if len(b) < len(snapMagic)+4 || string(b[:4]) != string(snapMagic[:]) {
		return nil, fmt.Errorf("durable: not a snapshot")
	}
	body, tail := b[:len(b)-4], b[len(b)-4:]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(tail) {
		return nil, fmt.Errorf("durable: snapshot CRC mismatch")
	}
	r := snapReader{data: body, i: 4}
	s := &RunSnapshot{}
	s.ID = string(r.bytes(int(r.u16())))
	s.Mutations = r.u64()
	switch flag := r.bytes(1); {
	case r.bad:
	case flag[0] == 1:
		s.Expired = true
	case flag[0] != 0:
		return nil, fmt.Errorf("durable: snapshot has non-canonical bool %d", flag[0])
	}
	if n := r.sliceLen(); n > 0 {
		s.Request = append([]byte(nil), r.bytes(n)...)
	}
	for _, p := range [...]*int64{
		&s.CreatedNs, &s.StartNs, &s.LastNs, &s.LastPollNs,
		&s.Assigned, &s.Completed, &s.Reclaimed, &s.Blocks, &s.Requests, &s.Polls,
		&s.BatchN,
	} {
		*p = r.i64()
	}
	for _, p := range [...]*float64{&s.BatchMean, &s.BatchM2, &s.BatchMin, &s.BatchMax} {
		*p = r.f64()
	}
	if n := r.sliceLen(); n > 0 && !r.bad {
		s.BatchHist = make([]int64, n)
		for i := range s.BatchHist {
			s.BatchHist[i] = r.i64()
		}
	}
	if n := r.sliceLen(); n > 0 && !r.bad {
		s.Workers = make([]WorkerCounters, n)
		for i := range s.Workers {
			s.Workers[i] = WorkerCounters{
				Requests:  r.i64(),
				Tasks:     r.i64(),
				Blocks:    r.i64(),
				Reclaimed: r.i64(),
			}
		}
	}
	if n := r.sliceLen(); n > 0 && !r.bad {
		s.Segments = make([]trace.Segment, n)
		for i := range s.Segments {
			s.Segments[i] = trace.Segment{
				Proc:   int(r.i64()),
				Start:  r.f64(),
				End:    r.f64(),
				Tasks:  int(r.i64()),
				Blocks: int(r.i64()),
			}
		}
	}
	if n := r.sliceLen(); n > 0 && !r.bad {
		s.Open = make([]int32, n)
		for i := range s.Open {
			s.Open[i] = int32(r.u32())
		}
	}
	if n := r.sliceLen(); n > 0 && !r.bad {
		s.Grants = make([]Grant, n)
		for i := range s.Grants {
			s.Grants[i] = Grant{
				Task:     r.i64(),
				ExpiryNs: r.i64(),
				Worker:   int32(r.u32()),
			}
		}
	}
	if n := r.sliceLen(); n > 0 && !r.bad {
		s.Stains = make([]Stain, n)
		for i := range s.Stains {
			s.Stains[i] = Stain{Task: r.i64(), Worker: int32(r.u32())}
		}
	}
	if n := r.sliceLen(); n > 0 {
		s.DriverOps = append([]byte(nil), r.bytes(n)...)
	}
	if r.bad {
		return nil, fmt.Errorf("durable: snapshot truncated")
	}
	if r.i != len(body) {
		return nil, fmt.Errorf("durable: %d trailing bytes in snapshot", len(body)-r.i)
	}
	return s, nil
}

// WriteSnapshot atomically persists s into the journal directory as
// snap-<id>-<mutations>.snap: encode, write to a tmp file, fsync,
// rename. A crash at any point leaves either the complete new file or
// the previous state — never a half-written snapshot under the final
// name (and a half-written tmp fails its CRC anyway).
//
// s is not used after encoding, so a caller that drops its own
// reference lets the collector free the snapshot during the write and
// fsync; only the encoding stays live.
func (l *Log) WriteSnapshot(s *RunSnapshot) error {
	final := filepath.Join(l.dir, snapshotName(s.ID, s.Mutations))
	data := AppendSnapshot(nil, s)
	tmp, err := os.CreateTemp(l.dir, tmpPrefix+"snap-*")
	if err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("durable: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("durable: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	return nil
}

// LoadSnapshots reads every snapshot in the journal directory and
// returns the highest-watermark valid snapshot per run. Damaged files
// — the residue of a crash mid-checkpoint — are skipped: the older
// snapshot plus the longer journal suffix wins.
func (l *Log) LoadSnapshots() (map[string]*RunSnapshot, error) {
	_, snaps, err := scanDir(l.dir)
	if err != nil {
		return nil, err
	}
	best := make(map[string]*RunSnapshot)
	for _, sf := range snaps {
		if prev, ok := best[sf.id]; ok && prev.Mutations >= sf.seq {
			continue
		}
		data, err := os.ReadFile(filepath.Join(l.dir, sf.name))
		if err != nil {
			continue
		}
		s, err := DecodeSnapshot(data)
		if err != nil || s.ID != sf.id {
			continue
		}
		best[s.ID] = s
	}
	return best, nil
}
