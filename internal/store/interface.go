package store

import (
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/chaos"
	"repro/internal/explore"
)

// Engine names accepted by OpenEngine and ccserve's -store-engine flag.
const (
	// EngineDir is the one-file-per-verdict tree (DirStore) — the
	// original engine and the differential oracle the chaos battery
	// compares against.
	EngineDir = "dir"
	// EngineLog is the append-only segment store (LogStore).
	EngineLog = "log"
)

// Interface is the narrow store surface every consumer — campaign,
// serve, cccheck, ccbench — programs against. Both engines implement
// it with byte-identical Get/Put semantics: an entry written by one
// engine's Put is returned by its Get exactly as the other engine
// would return it, which is what lets the whole store battery run
// differentially against the two and lets operators pick the engine
// per deployment without touching verdict consumers.
//
// All methods are safe for concurrent use from multiple goroutines.
// DirStore additionally tolerates multiple processes on one root;
// LogStore assumes one writing process (the serving tier's model).
type Interface interface {
	// Engine names the backing engine (EngineDir or EngineLog).
	Engine() string
	// Dir returns the cache root.
	Dir() string
	// FS returns the filesystem the store does its I/O through.
	FS() chaos.FS
	// SetLog installs the printf-style sink that receives one line per
	// quarantined artifact and per exhausted retry.
	SetLog(fn func(format string, args ...any))

	// Get looks the spec's verdict up. On a hit it returns the decoded
	// result plus the exact stored result bytes (so cached verdicts can
	// be served byte-identically to freshly computed ones). Version
	// mismatches, spec mismatches and unreadable or corrupted entries
	// are misses, not errors; corrupted entries are additionally
	// quarantined.
	Get(spec JobSpec) (*explore.Result, []byte, bool)
	// GetByKey reads the entry stored under a content key directly —
	// the serving layer evicts completed in-memory jobs and re-hydrates
	// them from the store by their job id, which IS the key. The
	// embedded spec must canonicalize back to the key; anything else
	// reads as a miss.
	GetByKey(key string) (JobSpec, *explore.Result, []byte, bool)
	// Put persists the result under the spec's key and returns the
	// exact result bytes written (the same bytes every later Get
	// returns). Transient write failures are retried under the
	// engine's retry policy; the returned error, if any, is
	// classifiable with chaos.Classify.
	Put(spec JobSpec, res *explore.Result) ([]byte, error)
	// Scan calls fn for every valid entry in deterministic (key-
	// sorted) order — the query plane's iteration primitive. Damaged
	// entries are skipped (and quarantined, like a Get would). A
	// non-nil error from fn stops the scan and is returned.
	Scan(fn func(key string, spec JobSpec, result []byte) error) error
	// Len counts the entries currently in the store (a diagnostic; it
	// does not validate them).
	Len() int
	// Quarantined returns the number of corrupted artifacts this
	// handle has preserved in the quarantine directory.
	Quarantined() int64
	// QuarantineBytes preserves corrupted bytes that have no file of
	// their own — a damaged gossip transfer — as a specimen under the
	// quarantine directory, counted like any other quarantined
	// artifact.
	QuarantineBytes(name string, data []byte, detail string)

	// Checkpoint returns the checkpoint-blob handle for a content key
	// (the resumable-exploration side of the store).
	Checkpoint(key string) *Checkpoint

	// PutCampaign persists a campaign manifest (cell keys in expansion
	// order under the campaign's CampaignID); GetCampaign reads one
	// back and Campaigns lists the persisted ids, sorted. Manifests
	// make per-campaign summary and diff queries work offline, across
	// restarts and across processes.
	PutCampaign(id string, keys []string) error
	GetCampaign(id string) ([]string, bool)
	Campaigns() []string

	// GCTemp and GCCheckpoints are the startup hygiene sweeps: temp
	// files abandoned by a killed process, and checkpoint snapshots
	// whose job already has a verdict. Both return the number of files
	// removed and are idempotent.
	GCTemp() int
	GCCheckpoints() int

	// Compact rewrites the store down to its live entries, dropping
	// superseded and damaged records, and reports what it did. Get
	// bytes are identical before and after — compaction is a space
	// operation, never a semantic one. On DirStore (which has no
	// garbage by construction) it is a no-op report.
	Compact() (CompactStats, error)
	// Stats describes the engine's current footprint for the
	// management plane (/v1/store/stats).
	Stats() Stats
	// Close releases engine resources (open segment handles,
	// background compactions). The handle must not be used after.
	Close() error
}

// Stats is the management-plane snapshot of a store engine.
type Stats struct {
	Engine  string `json:"engine"`
	Entries int    `json:"entries"`
	// Segments, LiveBytes and GarbageBytes describe the log engine's
	// footprint; the dir engine reports zero (its granularity is one
	// file per entry and it carries no garbage).
	Segments     int   `json:"segments"`
	LiveBytes    int64 `json:"live_bytes"`
	GarbageBytes int64 `json:"garbage_bytes"`
	Compactions  int64 `json:"compactions"`
	Quarantined  int64 `json:"quarantined"`
}

// CompactStats reports one compaction.
type CompactStats struct {
	// Live is the number of entries carried into the compacted store;
	// Dropped counts superseded-at-scan or damaged records left
	// behind.
	Live    int `json:"live"`
	Dropped int `json:"dropped"`
	// BytesBefore/BytesAfter are the engine's data footprint around
	// the compaction; Segments is the number of segment files written.
	BytesBefore int64 `json:"bytes_before"`
	BytesAfter  int64 `json:"bytes_after"`
	Segments    int   `json:"segments"`
}

// OpenEngine opens the store rooted at dir, doing I/O through fsys (nil
// = the host filesystem). engine "" opens whatever layout dir already
// holds, and the dir engine for a fresh directory: which of the two a
// fresh cache should be is not derivable — DirStore may be shared by
// concurrent processes, LogStore's faster Put assumes one writing
// process and nothing on disk enforces that — so the safe one is the
// default and the other is asked for by name. A named engine ("dir",
// "log") on a directory that already holds the other engine's verdicts
// is refused: opened anyway it would read as an empty cache and then
// grow a second layout beside the first.
func OpenEngine(engine, dir string, fsys chaos.FS) (Interface, error) {
	found := engineOnDisk(dir)
	switch {
	case engine == "":
		engine = cmp.Or(found, EngineDir)
	case engine != EngineDir && engine != EngineLog:
		return nil, fmt.Errorf("store: unknown engine %q (want %s or %s)", engine, EngineDir, EngineLog)
	case found != "" && found != engine:
		return nil, fmt.Errorf("store: %s holds %s-engine verdicts, not %s", dir, found, engine)
	}
	if engine == EngineLog {
		return OpenLogFS(dir, fsys)
	}
	return OpenFS(dir, fsys)
}

// engineOnDisk reports which engine's verdict layout dir already holds:
// log segments, dir-engine entry files, or "" for neither (a fresh or
// empty directory, or one holding only the shared campaigns /
// checkpoints / quarantine trees). Metadata listing stays on the host
// filesystem, like the engines' own walks.
func engineOnDisk(dir string) string {
	segs, _ := os.ReadDir(filepath.Join(dir, segmentsDir))
	for _, e := range segs {
		if segNameRe.MatchString(e.Name()) {
			return EngineLog
		}
	}
	shards, _ := os.ReadDir(dir)
	for _, d := range shards {
		if !d.IsDir() || len(d.Name()) != 2 {
			continue
		}
		entries, _ := os.ReadDir(filepath.Join(dir, d.Name()))
		for _, e := range entries {
			if strings.HasSuffix(e.Name(), ".json") && !strings.HasPrefix(e.Name(), ".") {
				return EngineDir
			}
		}
	}
	return ""
}
