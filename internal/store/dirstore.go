package store

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/chaos"
	"repro/internal/explore"
)

// DirStore is the one-file-per-verdict engine: entries live at
// DIR/<kk>/<key>.json, written atomically (temp file + fsync +
// same-directory rename). It is the original store implementation and
// the differential oracle the log engine is proven against. All
// methods are safe for concurrent use from multiple goroutines and
// multiple processes (atomicity comes from same-directory rename).
type DirStore struct {
	base
}

var _ Interface = (*DirStore)(nil)

// Open creates (if needed) and returns the dir-engine store rooted at
// dir, doing I/O directly against the host filesystem.
func Open(dir string) (*DirStore, error) { return OpenFS(dir, nil) }

// OpenFS is Open with an explicit filesystem (nil = the host
// filesystem); the chaos battery passes a chaos.FaultFS here.
func OpenFS(dir string, fsys chaos.FS) (*DirStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty cache directory")
	}
	if fsys == nil {
		fsys = chaos.OS
	}
	st := &DirStore{base: base{dir: dir, fs: fsys, Retry: chaos.DefaultPolicy}}
	if err := chaos.Retry(context.Background(), st.Retry, func() error {
		return fsys.MkdirAll(dir, 0o755)
	}); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return st, nil
}

// Engine names the backing engine.
func (st *DirStore) Engine() string { return EngineDir }

func (st *DirStore) path(key string) string {
	return filepath.Join(st.dir, key[:2], key+".json")
}

// readEntry reads and structurally validates the entry file for a
// key: JSON must parse, the version must match and the checksum must
// cover spec+result. A missing file is (zero, false) with corrupt ==
// false; a present-but-damaged file is quarantined and reported with
// corrupt == true. A version mismatch is a legitimate miss (format
// drift), never quarantined.
func (st *DirStore) readEntry(key string) (e entry, ok, corrupt bool) {
	path := st.path(key)
	var data []byte
	err := chaos.Retry(context.Background(), st.Retry, func() error {
		var rerr error
		data, rerr = st.fs.ReadFile(path)
		return rerr
	})
	if err != nil {
		return entry{}, false, false
	}
	e, issue, reason := checkEntry(data)
	switch issue {
	case entryCorrupt:
		st.quarantine(path, reason)
		return entry{}, false, true
	case entryDrift:
		return entry{}, false, false // format drift: invalidated, not corrupt
	}
	return e, true, false
}

// Get looks the spec's verdict up. On a hit it returns the decoded
// result plus the exact stored result bytes. See Interface.Get.
func (st *DirStore) Get(spec JobSpec) (*explore.Result, []byte, bool) {
	c := spec.Canonical()
	e, ok, _ := st.readEntry(c.Key())
	if !ok {
		return nil, nil, false
	}
	return matchSpec(e, c)
}

// Put persists the result under the spec's key, atomically, and
// returns the exact result bytes written. See Interface.Put.
func (st *DirStore) Put(spec JobSpec, res *explore.Result) ([]byte, error) {
	c := spec.Canonical()
	line, raw, err := encodeEntry(c, res)
	if err != nil {
		return nil, err
	}
	path := st.path(c.Key())
	err = chaos.Retry(context.Background(), st.Retry, func() error {
		return st.writeAtomic(path, line)
	})
	if err != nil {
		st.logf("store: put %s failed: %s", c.Key()[:12], chaos.Describe(err))
		return nil, fmt.Errorf("store: %w", err)
	}
	return raw, nil
}

// GetByKey reads the entry stored under a content key directly. See
// Interface.GetByKey.
func (st *DirStore) GetByKey(key string) (JobSpec, *explore.Result, []byte, bool) {
	if len(key) < 3 {
		return JobSpec{}, nil, nil, false
	}
	e, ok, _ := st.readEntry(key)
	if !ok {
		return JobSpec{}, nil, nil, false
	}
	return matchKey(e, key)
}

// keys walks the entry tree and returns every stored key, sorted.
// Quarantine, checkpoints and campaign manifests are not entries.
func (st *DirStore) keys() []string {
	var keys []string
	skip := map[string]bool{
		filepath.Join(st.dir, QuarantineDir): true,
		filepath.Join(st.dir, "checkpoints"): true,
		filepath.Join(st.dir, campaignsDir):  true,
	}
	filepath.WalkDir(st.dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if skip[path] {
				return filepath.SkipDir
			}
			return nil
		}
		base := filepath.Base(path)
		if strings.HasPrefix(base, ".") {
			return nil
		}
		if key, ok := strings.CutSuffix(base, ".json"); ok {
			keys = append(keys, key)
		}
		return nil
	})
	sort.Strings(keys)
	return keys
}

// Len counts the complete entries currently in the store (a
// diagnostic; it does not validate them).
func (st *DirStore) Len() int { return len(st.keys()) }

// Scan calls fn for every valid entry in key order. See
// Interface.Scan.
func (st *DirStore) Scan(fn func(key string, spec JobSpec, result []byte) error) error {
	return st.scanResults(func(key string, spec JobSpec, _ *explore.Result, raw []byte) error {
		return fn(key, spec, raw)
	})
}

// scanResults is Scan handing over the decoded result too.
func (st *DirStore) scanResults(fn func(key string, spec JobSpec, res *explore.Result, raw []byte) error) error {
	return scanKeys(st.keys(), func(key string) (entry, bool) {
		e, ok, _ := st.readEntry(key)
		return e, ok
	}, fn)
}

// has reports whether a verdict entry file exists for the key (the
// checkpoint GC's existence probe; metadata-only, host filesystem).
func (st *DirStore) has(key string) bool {
	_, err := os.Stat(st.path(key))
	return err == nil
}

// GCCheckpoints removes orphaned checkpoint blobs. See
// Interface.GCCheckpoints.
func (st *DirStore) GCCheckpoints() int { return st.gcCheckpoints(st.has) }

// Compact is a no-op report on the dir engine: one file per entry
// means superseded content is overwritten in place and there is
// nothing to reclaim.
func (st *DirStore) Compact() (CompactStats, error) {
	return CompactStats{Live: st.Len()}, nil
}

// Stats describes the engine's current footprint.
func (st *DirStore) Stats() Stats {
	return Stats{Engine: EngineDir, Entries: st.Len(), Quarantined: st.Quarantined()}
}

// Close releases nothing on the dir engine (it holds no open
// handles); it exists to satisfy Interface.
func (st *DirStore) Close() error { return nil }
