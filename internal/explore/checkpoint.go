package explore

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
)

// Checkpointing makes a long exploration survivable: every
// Options.CheckpointEvery expanded states — and on context
// cancellation — the engine persists a complete snapshot of its
// deterministic state through the Checkpointer, and a later run with
// the same model and options resumes from it, producing a final Result
// byte-identical (StateBytes aside — a footprint measurement, not part
// of the verdict) to the uninterrupted run at any worker count.
//
// What a snapshot must capture falls out of the engine's two-phase
// design: checkpoints are taken only at chunk boundaries, where the
// workers are parked, so the whole state is (a) the promoted arena
// with its parent/selection trace arrays, (b) the pending entries of
// the layer in progress, (c) the not-yet-expanded remainder of the
// open queue, and (d) the serial counters (result-so-far plus the
// current layer's accumulated aggregate). Everything else — slot
// tables, spill segment files, worker scratch — is rebuilt.
//
// The snapshot format is versioned binary: a magic header, the
// SHA-256 of the (model, options) identity — a mismatched checkpoint
// is ignored, never misapplied — length-prefixed metadata sections,
// the raw arena stream last (so restore streams it straight into the
// visited set, spilling cold ids back to disk under a memory budget
// without ever materializing the full arena), and a trailing FNV-64a
// checksum that rejects torn or corrupted files as "no checkpoint".

// Checkpointer persists and recalls exploration snapshots. Save must
// be atomic (write-temp-then-rename or equivalent): a crash during
// Save must leave the previous checkpoint intact. Load returns
// (nil, nil) when no checkpoint exists.
type Checkpointer interface {
	Load() (io.ReadCloser, error)
	Save(write func(w io.Writer) error) error
}

// ErrInterrupted is returned (wrapped) by ExploreCtx when the context
// is cancelled mid-run; if a Checkpointer is configured, a checkpoint
// has been saved and a rerun resumes from it.
var ErrInterrupted = errors.New("interrupted")

// RunStats reports resume/out-of-core bookkeeping that is
// deliberately *not* part of Result: a resumed or spilled run must
// produce byte-identical verdict bytes, so anything that differs
// between such runs lives here.
type RunStats struct {
	// ResumedStates is the promoted-state count restored from a
	// checkpoint (0 = fresh run).
	ResumedStates int
	// CheckpointsWritten counts snapshots persisted this run.
	CheckpointsWritten int
	// FrontierSpillSegments / FrontierSpilledBytes: open-queue spill
	// traffic (cumulative writes, not high water).
	FrontierSpillSegments int
	FrontierSpilledBytes  int64
	// ArenaSpilledBytes is the visited-arena bytes resident on disk at
	// the end of the run (a cluster peer adds its shards' at Close).
	ArenaSpilledBytes int64
	// CheckpointErrors counts periodic snapshot saves that failed; the
	// run degraded to continuing uncheckpointed instead of aborting.
	CheckpointErrors int
}

const checkpointVersion = 2

var checkpointMagic = [8]byte{'C', 'C', 'K', 'P', 'T', '0' + checkpointVersion, '\r', '\n'}

// optionsHash identifies the (model, options) tuple a checkpoint is
// valid for. Result-irrelevant knobs (Workers, MemBudget, SpillDir,
// checkpoint cadence) are excluded: a run may resume under a different
// worker count or memory budget and still reproduce the same bytes.
func optionsHash(name string, words, nprocs int, o *Options) [32]byte {
	s := fmt.Sprintf("explore-ckpt-v%d|%s|w=%d|n=%d|mode=%d|ms=%d|md=%d|mb=%d|mv=%d|dl=%t|cl=%t|cv=%t|sym=%t",
		checkpointVersion, name, words, nprocs, o.Mode,
		o.MaxStates, o.MaxDepth, o.MaxBranch, o.MaxViolations,
		o.CheckDeadlock, o.CheckClosure, o.CheckConvergence, o.Symmetry)
	return sha256.Sum256([]byte(s))
}

// snapshot is the serial-phase state of a paused exploration (see the
// package comment above for the inventory): the layer driver's state,
// serialised as it stands, plus the local backend's open queue and
// pending set. The arena streams separately, straight out of and into
// the visited set.
type snapshot struct {
	hash  [32]byte
	words int
	layerState
	frontier []int32
	pending  []PendSnap
}

// --- encoding helpers ---------------------------------------------------------

type ckptWriter struct {
	w   *bufio.Writer
	sum hash.Hash64
	err error
}

func newCkptWriter(w io.Writer) *ckptWriter {
	return &ckptWriter{w: bufio.NewWriterSize(w, 1<<20), sum: fnv.New64a()}
}

func (c *ckptWriter) bytes(p []byte) {
	if c.err != nil {
		return
	}
	c.sum.Write(p)
	_, c.err = c.w.Write(p)
}

func (c *ckptWriter) u64(x uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], x)
	c.bytes(b[:])
}

func (c *ckptWriter) i64(x int64) { c.u64(uint64(x)) }
func (c *ckptWriter) int(x int)   { c.i64(int64(x)) }
func (c *ckptWriter) i32(x int32) { c.i64(int64(x)) }
func (c *ckptWriter) bool(x bool) {
	b := byte(0)
	if x {
		b = 1
	}
	c.bytes([]byte{b})
}
func (c *ckptWriter) blob(p []byte) {
	c.int(len(p))
	c.bytes(p)
}
func (c *ckptWriter) str(s string) { c.blob([]byte(s)) }

// json writes v as a length-prefixed JSON section.
func (c *ckptWriter) json(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("explore: checkpoint: %v", err)
	}
	c.blob(b)
	return nil
}

type ckptReader struct {
	r   *bufio.Reader
	sum hash.Hash64
	err error
}

func newCkptReader(r io.Reader) *ckptReader {
	return &ckptReader{r: bufio.NewReaderSize(r, 1<<20), sum: fnv.New64a()}
}

func (c *ckptReader) bytes(p []byte) {
	if c.err != nil {
		return
	}
	if _, err := io.ReadFull(c.r, p); err != nil {
		c.err = err
		return
	}
	c.sum.Write(p)
}

func (c *ckptReader) u64() uint64 {
	var b [8]byte
	c.bytes(b[:])
	return binary.LittleEndian.Uint64(b[:])
}

func (c *ckptReader) i64() int64 { return int64(c.u64()) }
func (c *ckptReader) int() int   { return int(c.i64()) }
func (c *ckptReader) i32() int32 { return int32(c.i64()) }
func (c *ckptReader) bool() bool {
	var b [1]byte
	c.bytes(b[:])
	return b[0] != 0
}
func (c *ckptReader) blob(limit int) []byte {
	n := c.int()
	if c.err != nil {
		return nil
	}
	if n < 0 || n > limit {
		c.err = fmt.Errorf("explore: checkpoint blob length %d out of range", n)
		return nil
	}
	// Grow with the bytes actually read, not the claimed length: a
	// corrupted header must not make a tiny torn file allocate
	// gigabytes before ReadFull notices the data is missing.
	p := make([]byte, 0, min(n, 1<<16))
	for len(p) < n {
		k := min(n-len(p), 1<<16)
		off := len(p)
		p = append(p, make([]byte, k)...)
		c.bytes(p[off:])
		if c.err != nil {
			return nil
		}
	}
	return p
}

// json reads a length-prefixed JSON section into v.
func (c *ckptReader) json(v any, what string) error {
	if b := c.blob(snapLimit); c.err == nil {
		if err := json.Unmarshal(b, v); err != nil {
			return fmt.Errorf("explore: checkpoint %s: %v", what, err)
		}
	}
	return nil
}

// i32s reads a counted []int32 section, growing with the values
// actually decoded for the same torn-header reason as blob.
func (c *ckptReader) i32s(n int) []int32 {
	out := make([]int32, 0, min(n, 1<<14))
	for i := 0; i < n; i++ {
		v := c.i32()
		if c.err != nil {
			return nil
		}
		out = append(out, v)
	}
	return out
}

// snapLimit bounds variable-length checkpoint sections against
// corrupted headers allocating absurd buffers.
const snapLimit = 1 << 31

// writeSnapshot streams the snapshot (arena last) to w.
func writeSnapshot(w io.Writer, s *snapshot, vs *Visited) error {
	c := newCkptWriter(w)
	c.bytes(checkpointMagic[:])
	c.bytes(s.hash[:])
	c.int(s.words)
	if err := c.json(s.res); err != nil {
		return err
	}
	c.int(s.depth)
	c.int(s.done)
	if err := c.json(&s.layer); err != nil {
		return err
	}

	c.int(len(s.frontier))
	for _, id := range s.frontier {
		c.i32(id)
	}
	for _, p := range s.parentOf {
		c.i32(p)
	}
	for _, sel := range s.selOf {
		c.str(sel)
	}
	c.int(len(s.pending))
	for _, p := range s.pending {
		c.u64(p.Pos)
		c.i32(p.Parent)
		c.str(p.Sel)
		for _, w := range p.Key {
			c.u64(w)
		}
	}
	return c.finishArena(vs)
}

// finishArena ends a snapshot stream: the arena, through the writer so
// the checksum covers it, then the trailing checksum (not itself
// summed), then the flush.
func (c *ckptWriter) finishArena(vs *Visited) error {
	if c.err != nil {
		return c.err
	}
	var scratch [8]byte
	if err := vs.scanArena(func(id int32, key []uint64) {
		for _, word := range key {
			binary.LittleEndian.PutUint64(scratch[:], word)
			c.bytes(scratch[:])
		}
	}); err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(scratch[:], c.sum.Sum64())
	if c.err == nil {
		_, c.err = c.w.Write(scratch[:])
	}
	if c.err == nil {
		c.err = c.w.Flush()
	}
	return c.err
}

// readSnapshot decodes a snapshot from r into s and the fresh visited
// set vs (arena streamed straight into it, spilling under vs's budget).
// wantHash must match the stored options hash; any mismatch, format
// drift or corruption returns an error and the caller starts fresh.
func readSnapshot(r io.Reader, wantHash [32]byte, words int, vs *Visited) (*snapshot, error) {
	c := newCkptReader(r)
	var magic [8]byte
	c.bytes(magic[:])
	if c.err == nil && magic != checkpointMagic {
		return nil, fmt.Errorf("explore: not a checkpoint (or version drift)")
	}
	s := &snapshot{}
	s.res = &Result{}
	c.bytes(s.hash[:])
	if c.err == nil && s.hash != wantHash {
		return nil, fmt.Errorf("explore: checkpoint is for a different (model, options) tuple")
	}
	s.words = c.int()
	if c.err == nil && s.words != words {
		return nil, fmt.Errorf("explore: checkpoint word width %d != codec %d", s.words, words)
	}
	if err := c.json(s.res, "result"); err != nil {
		return nil, err
	}
	nstates := s.res.States
	if c.err == nil && (nstates < 0 || nstates > 1<<31-1) {
		// Ids are int32; anything past that is a corrupted header, and
		// it must fail here rather than size the visited set from it.
		return nil, fmt.Errorf("explore: checkpoint state count %d out of range", nstates)
	}
	s.depth = c.int()
	s.done = c.int()
	if err := c.json(&s.layer, "layer report"); err != nil {
		return nil, err
	}

	nf := c.int()
	if c.err == nil && (nf < 0 || nf > nstates) {
		return nil, fmt.Errorf("explore: checkpoint frontier length %d out of range", nf)
	}
	if c.err == nil {
		s.frontier = c.i32s(nf)
	}
	if c.err == nil {
		s.parentOf = c.i32s(nstates)
	}
	if c.err == nil {
		s.selOf = make([]string, 0, min(nstates, 1<<14))
		for i := 0; i < nstates; i++ {
			sel := string(c.blob(1 << 16))
			if c.err != nil {
				break
			}
			s.selOf = append(s.selOf, sel)
		}
	}
	npend := c.int()
	if c.err == nil && (npend < 0 || npend > snapLimit/64) {
		return nil, fmt.Errorf("explore: checkpoint pending count %d out of range", npend)
	}
	if c.err == nil {
		s.pending = make([]PendSnap, 0, min(npend, 1<<12))
		for i := 0; i < npend; i++ {
			var p PendSnap
			p.Pos = c.u64()
			p.Parent = c.i32()
			p.Sel = string(c.blob(1 << 16))
			if c.err != nil {
				break
			}
			key := make([]uint64, words)
			for j := range key {
				key[j] = c.u64()
			}
			p.Key = key
			s.pending = append(s.pending, p)
		}
	}
	if c.err != nil {
		return nil, fmt.Errorf("explore: checkpoint read: %v", c.err)
	}
	// Semantic bounds the resume path indexes by: a file that passes
	// the checksum but violates these would walk the engine out of its
	// own tables.
	if s.res.Inits < 0 || s.res.Inits > nstates {
		return nil, fmt.Errorf("explore: checkpoint init count %d out of range", s.res.Inits)
	}
	for _, id := range s.frontier {
		if id < 0 || int(id) >= nstates {
			return nil, fmt.Errorf("explore: checkpoint frontier id %d out of range", id)
		}
	}
	for _, p := range s.parentOf {
		if p < -1 || int(p) >= nstates {
			return nil, fmt.Errorf("explore: checkpoint parent id %d out of range", p)
		}
	}
	for _, p := range s.pending {
		if p.Parent < -1 || int(p.Parent) >= nstates {
			return nil, fmt.Errorf("explore: checkpoint pending parent %d out of range", p.Parent)
		}
	}
	if s.depth < 0 || s.res.Depth < 0 || s.res.Transitions < 0 {
		return nil, fmt.Errorf("explore: checkpoint counters out of range (depth %d/%d, transitions %d)",
			s.depth, s.res.Depth, s.res.Transitions)
	}
	// The layer in flight is the expanded prefix plus the open queue; a
	// violating item's state id is its layer position past the layer
	// start, so both must stay inside the id space.
	if s.done < 0 || s.done > nstates {
		return nil, fmt.Errorf("explore: checkpoint layer position %d out of range", s.done)
	}
	s.width = s.done + len(s.frontier)
	if s.width > nstates {
		return nil, fmt.Errorf("explore: checkpoint layer position %d+%d out of range", s.done, len(s.frontier))
	}
	for _, v := range s.layer.Viols {
		if v.Item < 0 || v.Item >= s.done {
			return nil, fmt.Errorf("explore: checkpoint layer violation item %d out of range", v.Item)
		}
	}

	// Arena: stream straight into the visited set, keeping the ids the
	// resumed layer still expands hot.
	hotFrom := int32(nstates)
	if len(s.frontier) > 0 {
		hotFrom = s.frontier[0]
	}
	if err := c.restoreArena(vs, nstates, words, hotFrom); err != nil {
		return nil, err
	}
	return s, nil
}

// restoreArena ends a snapshot read: the arena section streams into the
// fresh set vs (ids below hotFrom may go straight back to disk under
// its budget), then the trailing checksum must match everything read.
func (c *ckptReader) restoreArena(vs *Visited, nstates, words int, hotFrom int32) error {
	// LimitReader keeps RestoreArena's internal buffering from reading
	// past the arena section into the trailing checksum.
	arenaBytes := int64(nstates) * int64(words) * 8
	if err := vs.RestoreArena(io.LimitReader(hashedReader{c}, arenaBytes), nstates, hotFrom); err != nil {
		return err
	}
	want := c.sum.Sum64()
	var b [8]byte
	if _, err := io.ReadFull(c.r, b[:]); err != nil {
		return fmt.Errorf("explore: snapshot checksum: %v", err)
	}
	if got := binary.LittleEndian.Uint64(b[:]); got != want {
		return fmt.Errorf("explore: snapshot checksum mismatch (torn or corrupted file)")
	}
	return nil
}

// hashedReader exposes the checkpoint reader as an io.Reader that
// keeps the checksum running.
type hashedReader struct{ c *ckptReader }

func (h hashedReader) Read(p []byte) (int, error) {
	if h.c.err != nil {
		return 0, h.c.err
	}
	n, err := h.c.r.Read(p)
	h.c.sum.Write(p[:n])
	return n, err
}
