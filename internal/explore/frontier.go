package explore

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"path/filepath"

	"repro/internal/chaos"
)

// Frontier is a FIFO of state ids that spills to disk when it outgrows
// a byte budget. It was the explorer's open queue; no explorer path
// uses it any more — promotion hands out dense ids in order, so a BFS
// layer is an id range of the arena — and bench/wl_explore.go, which
// still measures it, is its only caller. It goes when that probe goes.
//
// The structure only needs strict FIFO order, not random access, which
// is what makes the out-of-core representation trivial and fast:
//
//   - ids are appended to an in-memory tail;
//   - when the in-memory footprint exceeds the budget, the whole tail
//     is written sequentially to a new temp segment file (FIFO order:
//     segments between the drain side and the tail);
//   - draining pops from the in-memory head; when the head runs dry the
//     oldest segment is read back sequentially — one read per segment —
//     and its file is deleted immediately;
//   - order is head → spilled segments (oldest first) → tail, i.e.
//     exactly push order, so spilling is invisible to the consumer.
//
// A spilled segment is the only copy of its ids, so a segment that
// fails its checksum cannot be silently skipped. It is renamed aside
// (*.quarantine) and surfaced as a *chaos.CorruptError. Transient write
// failures during spilling are retried in place.
//
// A Frontier is single-goroutine.
type Frontier struct {
	budget int64  // in-memory byte budget (0 = never spill)
	dir    string // parent for the segment dir ("" = os.TempDir())
	fs     chaos.FS

	head    []int32 // drain side (a loaded segment or the swapped tail)
	headOff int     // next index to pop from head
	segs    []string
	tail    []int32 // append side

	segDir string // created lazily on first spill

	n int // ids currently queued

	// Spill statistics, surfaced through RunStats.
	SpillSegments int
	SpilledBytes  int64
}

// frontierMinSpill is the smallest tail (in ids) worth writing as a
// segment: spilling tiny tails would turn an over-budget frontier into
// one file per handful of ids.
const frontierMinSpill = 1024

// Segment layout: segMagic, u32 id count, u64 FNV-64a over the
// payload, then count little-endian u32 ids. The checksum turns torn
// writes and bit flips into detected corruption instead of silently
// wrong BFS layers.
var segMagic = [8]byte{'C', 'C', 'S', 'E', 'G', '1', 0, '\n'}

const segHeaderLen = 8 + 4 + 8

// NewFrontier builds a frontier with the given in-memory byte budget
// (0 = fully in-memory) spilling under dir ("" = the system temp dir)
// through fsys (nil = the host filesystem). No explorer path calls it;
// bench/wl_explore.go is its only caller.
func NewFrontier(budget int64, dir string, fsys chaos.FS) *Frontier {
	if fsys == nil {
		fsys = chaos.OS
	}
	return &Frontier{budget: budget, dir: dir, fs: fsys}
}

// Len returns the number of queued ids.
func (f *Frontier) Len() int { return f.n }

// memBytes is the in-memory footprint charged against the budget.
func (f *Frontier) memBytes() int64 {
	return int64(len(f.head)-f.headOff+len(f.tail)) * 4
}

// Push appends id, spilling the tail to a segment file when the
// in-memory footprint exceeds the budget. Spill failures — after the
// transient retry budget — are returned classified (disk full): the
// caller aborts the exploration rather than silently dropping states.
func (f *Frontier) Push(id int32) error {
	f.tail = append(f.tail, id)
	f.n++
	if f.budget > 0 && f.memBytes() > f.budget && len(f.tail) >= frontierMinSpill {
		return f.spillTail()
	}
	return nil
}

// encodeSeg serializes the tail as a checksummed segment.
func encodeSeg(ids []int32) []byte {
	buf := make([]byte, segHeaderLen+4*len(ids))
	copy(buf, segMagic[:])
	binary.LittleEndian.PutUint32(buf[8:], uint32(len(ids)))
	for i, id := range ids {
		binary.LittleEndian.PutUint32(buf[segHeaderLen+4*i:], uint32(id))
	}
	h := fnv.New64a()
	h.Write(buf[segHeaderLen:])
	binary.LittleEndian.PutUint64(buf[12:], h.Sum64())
	return buf
}

// decodeSeg validates a segment and appends its ids to dst.
func decodeSeg(path string, data []byte, dst []int32) ([]int32, error) {
	if len(data) < segHeaderLen || [8]byte(data[:8]) != segMagic {
		return nil, &chaos.CorruptError{Path: path, Detail: "frontier segment: bad header"}
	}
	count := int(binary.LittleEndian.Uint32(data[8:]))
	if len(data) != segHeaderLen+4*count {
		return nil, &chaos.CorruptError{Path: path, Detail: fmt.Sprintf("frontier segment: %d bytes, want %d for %d ids", len(data), segHeaderLen+4*count, count)}
	}
	h := fnv.New64a()
	h.Write(data[segHeaderLen:])
	if h.Sum64() != binary.LittleEndian.Uint64(data[12:]) {
		return nil, &chaos.CorruptError{Path: path, Detail: "frontier segment: checksum mismatch"}
	}
	for off := segHeaderLen; off+4 <= len(data); off += 4 {
		dst = append(dst, int32(binary.LittleEndian.Uint32(data[off:])))
	}
	return dst, nil
}

func (f *Frontier) spillTail() error {
	err := chaos.Retry(context.Background(), chaos.DefaultPolicy, func() error {
		if f.segDir == "" {
			d, err := f.fs.MkdirTemp(f.dir, "cc-frontier-")
			if err != nil {
				return err
			}
			f.segDir = d
		}
		path := filepath.Join(f.segDir, fmt.Sprintf("seg-%08d", f.SpillSegments))
		return f.fs.WriteFile(path, encodeSeg(f.tail), 0o600)
	})
	if err != nil {
		return fmt.Errorf("explore: frontier spill: %w", err)
	}
	path := filepath.Join(f.segDir, fmt.Sprintf("seg-%08d", f.SpillSegments))
	f.segs = append(f.segs, path)
	f.SpillSegments++
	f.SpilledBytes += int64(4 * len(f.tail))
	f.tail = f.tail[:0]
	return nil
}

// readSeg reads and validates one segment file; corruption renames the
// file aside (*.quarantine, best-effort) and returns a classified
// error — the queued ids in it have no other copy, so the job must
// fail loudly and be retried from scratch rather than continue with a
// hole in the BFS layer.
func (f *Frontier) readSeg(path string, dst []int32) ([]int32, error) {
	var data []byte
	err := chaos.Retry(context.Background(), chaos.DefaultPolicy, func() error {
		var rerr error
		data, rerr = f.fs.ReadFile(path)
		return rerr
	})
	if err != nil {
		return nil, fmt.Errorf("explore: frontier segment: %w", err)
	}
	out, err := decodeSeg(path, data, dst)
	if err != nil {
		f.fs.Rename(path, path+".quarantine")
		return nil, fmt.Errorf("explore: %w", err)
	}
	return out, nil
}

// loadSeg reads the oldest segment into the head and deletes its file.
func (f *Frontier) loadSeg() error {
	path := f.segs[0]
	f.segs = f.segs[1:]
	head, err := f.readSeg(path, f.head[:0])
	if err != nil {
		return err
	}
	f.fs.Remove(path)
	f.head = head
	f.headOff = 0
	return nil
}

// PopChunk fills dst (up to cap(dst)) with the oldest queued ids, in
// push order, and returns the filled prefix. An empty result means the
// frontier is drained.
func (f *Frontier) PopChunk(dst []int32) ([]int32, error) {
	dst = dst[:0]
	for len(dst) < cap(dst) && f.n > 0 {
		if f.headOff >= len(f.head) {
			if len(f.segs) > 0 {
				if err := f.loadSeg(); err != nil {
					return nil, err
				}
			} else {
				// No spilled middle: the tail is the oldest remainder.
				f.head, f.tail = f.tail, f.head[:0]
				f.headOff = 0
			}
			continue
		}
		room := cap(dst) - len(dst)
		avail := len(f.head) - f.headOff
		take := min(room, avail)
		dst = append(dst, f.head[f.headOff:f.headOff+take]...)
		f.headOff += take
		f.n -= take
	}
	return dst, nil
}

// AppendRemaining appends every queued id in pop order without
// consuming the queue. Spilled segments are read (not deleted); the
// frontier keeps draining normally afterwards.
func (f *Frontier) AppendRemaining(dst []int32) ([]int32, error) {
	dst = append(dst, f.head[f.headOff:]...)
	for _, path := range f.segs {
		var err error
		dst, err = f.readSeg(path, dst)
		if err != nil {
			return nil, err
		}
	}
	return append(dst, f.tail...), nil
}

// Close deletes any remaining segment files. The frontier is unusable
// afterwards.
func (f *Frontier) Close() {
	if f.segDir != "" {
		f.fs.RemoveAll(f.segDir)
		f.segDir = ""
	}
	f.head, f.tail, f.segs = nil, nil, nil
	f.headOff, f.n = 0, 0
}
