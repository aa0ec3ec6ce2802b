package store

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"sync"
	"syscall"

	"repro/internal/chaos"
	"repro/internal/explore"
)

// The log engine's on-disk unit is a record appended to a segment
// file under DIR/segments/<seq>.seg:
//
//	magic   [4]byte  "cclg"
//	key     [32]byte raw SHA-256 content key
//	length  uint32   payload length (little-endian)
//	sum     uint64   FNV-64a over key||payload (little-endian)
//	payload []byte   the entry JSON line — byte-identical to the
//	                 file body DirStore would write for the same Put
//
// Later records supersede earlier ones for the same key (later
// segment, or later offset within one), so an append is a complete
// overwrite semantically; compaction reclaims the superseded bytes.
// The frame checksum catches torn and bit-flipped records at the
// framing level before the entry-level checksum ever runs.
const (
	segmentsDir = "segments"
	recMagic    = "cclg"
	recHeader   = 4 + 32 + 4 + 8
	recKeyOff   = 4
	recLenOff   = 36
	recSumOff   = 40
)

// DefaultSegmentMaxBytes rotates the active segment once it grows
// past this size; compaction also packs output segments up to it.
const DefaultSegmentMaxBytes = 64 << 20

// DefaultCompactMinGarbage is the superseded-bytes floor below which
// background compaction never triggers (tiny stores are not worth
// rewriting).
const DefaultCompactMinGarbage = 1 << 20

var segNameRe = regexp.MustCompile(`^(\d{8})\.seg$`)

func segName(seq uint64) string { return fmt.Sprintf("%08d.seg", seq) }

// recSum is the frame checksum: FNV-64a over raw key then payload.
func recSum(key, payload []byte) uint64 {
	h := fnv.New64a()
	h.Write(key)
	h.Write(payload)
	return h.Sum64()
}

// recLoc locates one record: segment sequence number, byte offset,
// total framed length.
type recLoc struct {
	seq uint64
	off int64
	n   int64
}

// LogStore is the append-only segment engine: every Put appends one
// checksummed record to the active segment and fsyncs; a sparse
// in-memory index (key → record location) is rebuilt by scanning the
// segments on open. A torn tail (crash mid-append) is silently
// dropped at the next open; mid-segment damage is quarantined as a
// specimen and the segment's remainder abandoned — the affected keys
// read as misses and are recomputed, converging back to a correct
// store exactly like the dir engine does. Compaction (explicit via
// Compact, or in the background once superseded bytes dominate)
// rewrites live records into fresh higher-numbered segments and
// deletes the old ones; a crash mid-compaction is safe because a
// later segment always wins for a key.
//
// Reads go through one read handle per segment, opened on first use
// and reused for every positioned read (the Bitcask shape): compaction
// closes the handles of the segments it deletes, and a read that loses
// its segment to a compaction follows its key to the new location.
//
// One handle has a directory open at a time, enforced by an flock on
// DIR/LOCK (see LockedError); within it, reads are concurrent-safe
// against writes and compaction.
type LogStore struct {
	base

	// SegmentMaxBytes bounds segment files (default
	// DefaultSegmentMaxBytes); the active segment rotates past it.
	SegmentMaxBytes int64
	// AutoCompact enables background compaction after a Put once
	// superseded bytes exceed both CompactMinGarbage and the live
	// bytes. On by default; tests of explicit compaction turn it off.
	AutoCompact bool
	// CompactMinGarbage is the superseded-bytes floor for AutoCompact
	// (default DefaultCompactMinGarbage).
	CompactMinGarbage int64

	mu        sync.RWMutex
	index     map[string]recLoc
	segs      map[uint64]int64 // segment seq → byte size on disk
	nextSeq   uint64
	active    chaos.File // writable handle for the active segment (nil = none)
	activeSeq uint64
	activeOff int64

	liveBytes    int64
	garbageBytes int64
	droppedScan  int64 // records lost to torn tails / abandoned remainders at open
	compactions  int64
	compacting   bool
	compactWG    sync.WaitGroup

	// rmu guards readers, the open read handle of each segment read so
	// far. Lock order: mu before rmu.
	rmu     sync.RWMutex
	readers map[uint64]chaos.File

	lock *os.File // holds the single-writer flock on DIR/LOCK until Close
}

var _ Interface = (*LogStore)(nil)

// lockFile is the log engine's single-writer lock under the cache root.
const lockFile = "LOCK"

// LockedError refuses a second opener of a log cache while another
// handle — in this process or another — holds its lock.
type LockedError struct {
	Path string // the lock file
}

func (e *LockedError) Error() string {
	return fmt.Sprintf("store: another process holds this log cache (lock %s is taken): a log-layout cache has one writer", e.Path)
}

// Class makes the refusal chaos.Permanent: waiting does not release
// another process's lock, so it is never retried and the CLIs exit 4.
func (e *LockedError) Class() chaos.Class { return chaos.Permanent }

// lockDir takes an exclusive, non-blocking flock on dir's lock file.
// It is on the host filesystem, like the engines' metadata walks:
// chaos.FS has no descriptor to lock.
func lockDir(dir string) (*os.File, error) {
	path := filepath.Join(dir, lockFile)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		if errors.Is(err, syscall.EWOULDBLOCK) {
			return nil, &LockedError{Path: path}
		}
		return nil, fmt.Errorf("store: lock %s: %w", path, err)
	}
	return f, nil
}

// OpenLog creates (if needed) and opens the log-engine store rooted
// at dir, doing I/O directly against the host filesystem.
func OpenLog(dir string) (*LogStore, error) { return OpenLogFS(dir, nil) }

// OpenLogFS is OpenLog with an explicit filesystem (nil = the host
// filesystem). Opening takes the directory's single-writer lock — a
// second opener gets a *LockedError until this handle is closed — then
// scans every segment to rebuild the index; segment files that cannot
// be read after retries are skipped (their keys read as misses) rather
// than failing the open.
func OpenLogFS(dir string, fsys chaos.FS) (*LogStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty cache directory")
	}
	if fsys == nil {
		fsys = chaos.OS
	}
	st := &LogStore{
		base:              base{dir: dir, fs: fsys, Retry: chaos.DefaultPolicy},
		SegmentMaxBytes:   DefaultSegmentMaxBytes,
		AutoCompact:       true,
		CompactMinGarbage: DefaultCompactMinGarbage,
		index:             map[string]recLoc{},
		segs:              map[uint64]int64{},
		readers:           map[uint64]chaos.File{},
	}
	if err := chaos.Retry(context.Background(), st.Retry, func() error {
		return fsys.MkdirAll(filepath.Join(dir, segmentsDir), 0o755)
	}); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	lock, err := lockDir(dir)
	if err != nil {
		return nil, err
	}
	st.lock = lock
	st.load()
	return st, nil
}

// Engine names the backing engine.
func (st *LogStore) Engine() string { return EngineLog }

func (st *LogStore) segPath(seq uint64) string {
	return filepath.Join(st.dir, segmentsDir, segName(seq))
}

// load rebuilds the index by scanning every segment in sequence
// order. Metadata listing stays on the host filesystem (like the dir
// engine's walks); segment contents go through the chaos.FS.
func (st *LogStore) load() {
	entries, err := os.ReadDir(filepath.Join(st.dir, segmentsDir))
	if err != nil {
		return
	}
	var seqs []uint64
	for _, e := range entries {
		m := segNameRe.FindStringSubmatch(e.Name())
		if e.IsDir() || m == nil {
			continue
		}
		seq, err := strconv.ParseUint(m[1], 10, 64)
		if err != nil {
			continue
		}
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for _, seq := range seqs {
		var data []byte
		err := chaos.Retry(context.Background(), st.Retry, func() error {
			var rerr error
			data, rerr = st.fs.ReadFile(st.segPath(seq))
			return rerr
		})
		if err != nil {
			st.logf("store: segment %s unreadable, skipped: %s", segName(seq), chaos.Describe(err))
			continue
		}
		st.scanSegment(seq, data)
		if seq >= st.nextSeq {
			st.nextSeq = seq + 1
		}
	}
}

// scanSegment replays one segment's records into the index. The scan
// stops at the first frame that does not check out: an incomplete
// frame at EOF is the expected artifact of a crash mid-append and is
// dropped silently; anything else (bad magic, checksum mismatch) is
// corruption — the remainder is preserved as a quarantine specimen
// and abandoned, so a good prefix still serves and the lost keys are
// recomputed on demand.
func (st *LogStore) scanSegment(seq uint64, data []byte) {
	name := segName(seq)
	size := int64(len(data))
	off := int64(0)
	for off < size {
		rem := size - off
		if rem < recHeader {
			st.droppedScan++
			break // torn header at EOF
		}
		hdr := data[off:]
		if string(hdr[:recKeyOff]) != recMagic {
			st.quarantineBytes(fmt.Sprintf("%s@%d", name, off), data[off:], "bad record magic")
			st.droppedScan++
			break
		}
		payloadLen := int64(binary.LittleEndian.Uint32(hdr[recLenOff:recSumOff]))
		total := recHeader + payloadLen
		if rem < total {
			st.droppedScan++
			break // torn payload at EOF
		}
		key := hdr[recKeyOff : recKeyOff+32]
		payload := data[off+recHeader : off+total]
		if recSum(key, payload) != binary.LittleEndian.Uint64(hdr[recSumOff:recHeader]) {
			st.quarantineBytes(fmt.Sprintf("%s@%d", name, off), data[off:], "record checksum mismatch")
			st.droppedScan++
			break
		}
		khex := hex.EncodeToString(key)
		loc := recLoc{seq: seq, off: off, n: total}
		if prev, ok := st.index[khex]; ok {
			st.garbageBytes += prev.n
			st.liveBytes -= prev.n
		}
		st.index[khex] = loc
		st.liveBytes += total
		off += total
	}
	st.segs[seq] = size
	if off < size {
		st.garbageBytes += size - off
	}
}

// ensureActiveLocked opens a fresh active segment when none is open.
// chaos.FS has no read-write Open, so the writable handle comes from
// CreateTemp and the file is immediately renamed to its final segment
// name — the descriptor survives the rename, the on-disk name is
// durable from the first byte, and a crash leaves a normal (possibly
// torn-tailed) segment rather than a temp file for GCTemp to sweep.
func (st *LogStore) ensureActiveLocked() error {
	if st.active != nil {
		return nil
	}
	segDir := filepath.Join(st.dir, segmentsDir)
	if err := st.fs.MkdirAll(segDir, 0o755); err != nil {
		return err
	}
	tmp, err := st.fs.CreateTemp(segDir, ".seg-*")
	if err != nil {
		return err
	}
	if err := st.fs.Rename(tmp.Name(), st.segPath(st.nextSeq)); err != nil {
		tmp.Close()
		st.fs.Remove(tmp.Name())
		return err
	}
	st.active = tmp
	st.activeSeq = st.nextSeq
	st.activeOff = 0
	st.segs[st.activeSeq] = 0
	st.nextSeq++
	return nil
}

// encodeRecord frames an entry line under its raw key.
func encodeRecord(keyRaw, payload []byte) []byte {
	rec := make([]byte, recHeader+len(payload))
	copy(rec, recMagic)
	copy(rec[recKeyOff:], keyRaw)
	binary.LittleEndian.PutUint32(rec[recLenOff:], uint32(len(payload)))
	binary.LittleEndian.PutUint64(rec[recSumOff:], recSum(keyRaw, payload))
	copy(rec[recHeader:], payload)
	return rec
}

// Put appends one record to the active segment and fsyncs. A failed
// attempt retries at the same offset, so a torn prefix from an
// injected fault is overwritten by the retry (and dropped by the next
// open if the process dies first). See Interface.Put.
func (st *LogStore) Put(spec JobSpec, res *explore.Result) ([]byte, error) {
	c := spec.Canonical()
	line, raw, err := encodeEntry(c, res)
	if err != nil {
		return nil, err
	}
	khex := c.Key()
	keyRaw, err := hex.DecodeString(khex)
	if err != nil || len(keyRaw) != 32 {
		return nil, fmt.Errorf("store: malformed content key %q", khex)
	}
	rec := encodeRecord(keyRaw, line)

	st.mu.Lock()
	err = chaos.Retry(context.Background(), st.Retry, func() error {
		if err := st.ensureActiveLocked(); err != nil {
			return err
		}
		if _, err := st.active.WriteAt(rec, st.activeOff); err != nil {
			return err
		}
		return st.active.Sync()
	})
	if err != nil {
		st.mu.Unlock()
		st.logf("store: put %s failed: %s", khex[:12], chaos.Describe(err))
		return nil, fmt.Errorf("store: %w", err)
	}
	loc := recLoc{seq: st.activeSeq, off: st.activeOff, n: int64(len(rec))}
	st.activeOff += loc.n
	st.segs[st.activeSeq] = st.activeOff
	if prev, ok := st.index[khex]; ok {
		st.garbageBytes += prev.n
		st.liveBytes -= prev.n
	}
	st.index[khex] = loc
	st.liveBytes += loc.n
	if st.activeOff >= st.SegmentMaxBytes {
		st.active.Close()
		st.active = nil
	}
	if st.AutoCompact && !st.compacting &&
		st.garbageBytes >= st.CompactMinGarbage && st.garbageBytes > st.liveBytes {
		st.compacting = true
		st.compactWG.Add(1)
		go st.backgroundCompact()
	}
	st.mu.Unlock()
	return raw, nil
}

// reader returns the segment's read handle, opening it on first use.
// The open and the insert happen under rmu, so a compaction that
// removes the segment either closes the new handle or makes the open
// fail: no handle outlives its segment.
func (st *LogStore) reader(seq uint64) (chaos.File, error) {
	st.rmu.RLock()
	f := st.readers[seq]
	st.rmu.RUnlock()
	if f != nil {
		return f, nil
	}
	st.rmu.Lock()
	defer st.rmu.Unlock()
	if f := st.readers[seq]; f != nil {
		return f, nil
	}
	f, err := st.fs.Open(st.segPath(seq))
	if err != nil {
		return nil, err
	}
	st.readers[seq] = f
	return f, nil
}

// dropReader closes a segment's read handle if it is still f (an
// earlier drop or a compaction may have closed it already).
func (st *LogStore) dropReader(seq uint64, f chaos.File) {
	st.rmu.Lock()
	defer st.rmu.Unlock()
	if st.readers[seq] == f {
		delete(st.readers, seq)
		f.Close()
	}
}

// closeReaders closes the read handles of the segments drop selects.
func (st *LogStore) closeReaders(drop func(seq uint64) bool) {
	st.rmu.Lock()
	defer st.rmu.Unlock()
	for seq, f := range st.readers {
		if drop(seq) {
			f.Close()
			delete(st.readers, seq)
		}
	}
}

// readRecord reads one framed record back from its segment with one
// positioned read on the segment's held handle. A failed read drops
// the handle, so the retry attempt reopens it; a handle closed under
// the read (by another read's drop or a compaction) is reopened at
// once — for a deleted segment that open fails with ENOENT.
func (st *LogStore) readRecord(loc recLoc) ([]byte, error) {
	buf := make([]byte, loc.n)
	err := chaos.Retry(context.Background(), st.Retry, func() error {
		for {
			f, err := st.reader(loc.seq)
			if err != nil {
				return err
			}
			if _, err = f.ReadAt(buf, loc.off); err == nil {
				return nil
			}
			st.dropReader(loc.seq, f)
			if !errors.Is(err, os.ErrClosed) {
				return err
			}
		}
	})
	if err != nil {
		return nil, err
	}
	return buf, nil
}

// checkRecord validates a framed record against the key it was
// indexed under; "" means valid, anything else names the damage.
func checkRecord(khex string, rec []byte) (payload []byte, reason string) {
	if int64(len(rec)) < recHeader {
		return nil, "record shorter than header"
	}
	if string(rec[:recKeyOff]) != recMagic {
		return nil, "bad record magic"
	}
	key := rec[recKeyOff : recKeyOff+32]
	if hex.EncodeToString(key) != khex {
		return nil, "record key mismatch"
	}
	payloadLen := int64(binary.LittleEndian.Uint32(rec[recLenOff:recSumOff]))
	if recHeader+payloadLen != int64(len(rec)) {
		return nil, "record length mismatch"
	}
	payload = rec[recHeader:]
	if recSum(key, payload) != binary.LittleEndian.Uint64(rec[recSumOff:recHeader]) {
		return nil, "record checksum mismatch"
	}
	return payload, ""
}

// evict drops a damaged record from the index (if it still points at
// loc) and preserves the bytes as a quarantine specimen; the key
// reads as a miss and the next Put repairs it.
func (st *LogStore) evict(khex string, loc recLoc, specimen []byte, reason string) {
	st.mu.Lock()
	if cur, ok := st.index[khex]; ok && cur == loc {
		delete(st.index, khex)
		st.liveBytes -= loc.n
		st.garbageBytes += loc.n
	}
	st.mu.Unlock()
	st.quarantineBytes(fmt.Sprintf("%s@%d", segName(loc.seq), loc.off), specimen, reason)
}

// locate resolves a key through the index.
func (st *LogStore) locate(khex string) (recLoc, bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	loc, ok := st.index[khex]
	return loc, ok
}

// fetch resolves a key through the index to a validated entry.
func (st *LogStore) fetch(khex string) (entry, bool) {
	loc, ok := st.locate(khex)
	if !ok {
		return entry{}, false
	}
	return st.fetchAt(khex, loc)
}

// fetchAt reads and validates the record a lookup found at loc. The
// lookup's lock is released before the read, so a compaction may have
// moved the record and deleted its segment in between: a failed read
// resolves the key again and follows a moved record. Damage at the
// frame or entry level evicts and quarantines; version drift and read
// failures at a location that did not move are plain misses.
func (st *LogStore) fetchAt(khex string, loc recLoc) (entry, bool) {
	rec, err := st.readRecord(loc)
	for err != nil {
		moved, ok := st.locate(khex)
		if !ok || moved == loc {
			return entry{}, false
		}
		loc = moved
		rec, err = st.readRecord(loc)
	}
	payload, reason := checkRecord(khex, rec)
	if reason != "" {
		st.evict(khex, loc, rec, reason)
		return entry{}, false
	}
	e, issue, reason := checkEntry(payload)
	switch issue {
	case entryCorrupt:
		st.evict(khex, loc, rec, reason)
		return entry{}, false
	case entryDrift:
		return entry{}, false // format drift: invalidated, not corrupt
	}
	return e, true
}

// Get looks the spec's verdict up. See Interface.Get.
func (st *LogStore) Get(spec JobSpec) (*explore.Result, []byte, bool) {
	c := spec.Canonical()
	e, ok := st.fetch(c.Key())
	if !ok {
		return nil, nil, false
	}
	return matchSpec(e, c)
}

// GetByKey reads the entry stored under a content key directly. See
// Interface.GetByKey.
func (st *LogStore) GetByKey(key string) (JobSpec, *explore.Result, []byte, bool) {
	e, ok := st.fetch(key)
	if !ok {
		return JobSpec{}, nil, nil, false
	}
	return matchKey(e, key)
}

// sortedKeys snapshots the index keys in sorted order.
func (st *LogStore) sortedKeys() []string {
	st.mu.RLock()
	keys := make([]string, 0, len(st.index))
	for k := range st.index {
		keys = append(keys, k)
	}
	st.mu.RUnlock()
	sort.Strings(keys)
	return keys
}

// Scan calls fn for every valid entry in key order. See
// Interface.Scan.
func (st *LogStore) Scan(fn func(key string, spec JobSpec, result []byte) error) error {
	return st.scanResults(func(key string, spec JobSpec, _ *explore.Result, raw []byte) error {
		return fn(key, spec, raw)
	})
}

// scanResults is Scan handing over the decoded result too.
func (st *LogStore) scanResults(fn func(key string, spec JobSpec, res *explore.Result, raw []byte) error) error {
	return scanKeys(st.sortedKeys(), st.fetch, fn)
}

// Len counts the indexed entries.
func (st *LogStore) Len() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.index)
}

// has reports whether the key is indexed (the checkpoint GC's
// existence probe).
func (st *LogStore) has(key string) bool {
	st.mu.RLock()
	defer st.mu.RUnlock()
	_, ok := st.index[key]
	return ok
}

// GCCheckpoints removes orphaned checkpoint blobs. See
// Interface.GCCheckpoints.
func (st *LogStore) GCCheckpoints() int { return st.gcCheckpoints(st.has) }

func (st *LogStore) backgroundCompact() {
	defer st.compactWG.Done()
	if _, err := st.compact(); err != nil {
		st.logf("store: background compaction failed: %s", chaos.Describe(err))
	}
	st.mu.Lock()
	st.compacting = false
	st.mu.Unlock()
}

// Compact rewrites live records into fresh segments and deletes the
// old ones. Concurrent with reads; a compaction already in flight
// makes this call a no-op report. See Interface.Compact.
func (st *LogStore) Compact() (CompactStats, error) {
	st.mu.Lock()
	if st.compacting {
		st.mu.Unlock()
		return CompactStats{}, nil
	}
	st.compacting = true
	st.mu.Unlock()
	stats, err := st.compact()
	st.mu.Lock()
	st.compacting = false
	st.mu.Unlock()
	return stats, err
}

// compact holds the write lock for the duration: readers drain first,
// Puts queue behind it. Every surviving record is re-validated end to
// end and copied byte-for-byte, so Get bytes are identical across the
// compaction; superseded records are simply not copied, and damaged
// ones are quarantined here instead of at their next read. Output
// segments are written atomically (temp + fsync + rename) at
// sequence numbers above every existing segment, so a crash anywhere
// in between leaves a store that opens correctly: for any key, the
// newest intact record still wins.
func (st *LogStore) compact() (CompactStats, error) {
	st.mu.Lock()
	defer st.mu.Unlock()

	var before int64
	for _, size := range st.segs {
		before += size
	}
	if st.active != nil {
		st.active.Close()
		st.active = nil
	}

	keys := make([]string, 0, len(st.index))
	for k := range st.index {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	stats := CompactStats{BytesBefore: before}
	type outSeg struct {
		seq uint64
		buf []byte
	}
	var (
		out      []outSeg
		cur      []byte
		newIndex = map[string]recLoc{}
		live     int64
		seq      = st.nextSeq
	)
	flush := func() {
		if len(cur) > 0 {
			out = append(out, outSeg{seq: seq, buf: cur})
			seq++
			cur = nil
		}
	}
	for _, khex := range keys {
		loc := st.index[khex]
		rec, err := st.readRecord(loc)
		if err != nil {
			stats.Dropped++ // unreadable even with retries: not worth failing the compaction
			continue
		}
		payload, reason := checkRecord(khex, rec)
		var issue entryIssue
		if reason == "" {
			_, issue, reason = checkEntry(payload)
		} else {
			issue = entryCorrupt
		}
		switch issue {
		case entryCorrupt:
			st.quarantineBytes(fmt.Sprintf("%s@%d", segName(loc.seq), loc.off), rec, reason)
			stats.Dropped++
			continue
		case entryDrift:
			stats.Dropped++ // stale format: a permanent miss, dropped
			continue
		}
		if int64(len(cur))+loc.n > st.SegmentMaxBytes {
			flush()
		}
		newIndex[khex] = recLoc{seq: seq, off: int64(len(cur)), n: loc.n}
		cur = append(cur, rec...)
		live += loc.n
		stats.Live++
	}
	flush()

	written := make([]uint64, 0, len(out))
	for _, o := range out {
		err := chaos.Retry(context.Background(), st.Retry, func() error {
			return st.writeAtomic(st.segPath(o.seq), o.buf)
		})
		if err != nil {
			// Abort: remove what landed (best-effort — a leftover new
			// segment only duplicates records the old segments still
			// hold, and the newer sequence number wins identically) and
			// keep serving from the old segments.
			for _, w := range written {
				st.fs.Remove(st.segPath(w))
			}
			st.nextSeq = seq // never reuse an attempted sequence number
			return CompactStats{}, fmt.Errorf("store: compact: %w", err)
		}
		written = append(written, o.seq)
	}

	for old := range st.segs {
		st.fs.Remove(st.segPath(old)) // best-effort: superseded by higher seqs
	}
	st.segs = map[uint64]int64{}
	for _, o := range out {
		st.segs[o.seq] = int64(len(o.buf))
	}
	st.closeReaders(func(seq uint64) bool { _, live := st.segs[seq]; return !live })
	st.index = newIndex
	st.liveBytes = live
	st.garbageBytes = 0
	st.nextSeq = seq
	st.compactions++
	stats.BytesAfter = live
	stats.Segments = len(out)
	st.logf("store: compacted %d→%d bytes, %d live, %d dropped, %d segments",
		before, live, stats.Live, stats.Dropped, len(out))
	return stats, nil
}

// Stats describes the engine's current footprint.
func (st *LogStore) Stats() Stats {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return Stats{
		Engine:       EngineLog,
		Entries:      len(st.index),
		Segments:     len(st.segs),
		LiveBytes:    st.liveBytes,
		GarbageBytes: st.garbageBytes,
		Compactions:  st.compactions,
		Quarantined:  st.Quarantined(),
	}
}

// Close waits for any background compaction, releases the segment
// read handles, the active segment handle and then the directory lock
// — the lock even when the segment close fails. The handle must not be
// used after.
func (st *LogStore) Close() error {
	st.compactWG.Wait()
	st.mu.Lock()
	defer st.mu.Unlock()
	st.closeReaders(func(uint64) bool { return true })
	var err error
	if st.active != nil {
		err = st.active.Close()
		st.active = nil
	}
	if st.lock != nil {
		st.lock.Close() // closing the descriptor drops the flock
		st.lock = nil
	}
	return err
}
