package store

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/chaos"
)

// campaignsDir is the subdirectory of the cache root holding campaign
// manifests (one JSON file per campaign id). Manifests are engine-
// independent metadata, not verdicts: both engines store them the same
// way, so a warehouse opened under either engine answers the same
// campaign queries.
const campaignsDir = "campaigns"

// base carries everything the two store engines share: the root
// directory, the (possibly fault-injecting) filesystem, the retry
// policy, the quarantine machinery, checkpoint blobs, campaign
// manifests and temp-file GC. The engines embed it; Interface is the
// surface consumers see.
type base struct {
	dir string
	fs  chaos.FS
	// Retry bounds the transient-failure retry loop around durable
	// writes and reads. Defaults to chaos.DefaultPolicy.
	Retry chaos.Policy
	// Log, when set, receives one line per quarantined artifact and
	// per exhausted retry (printf-style).
	Log func(format string, args ...any)

	quarantined atomic.Int64
}

// Dir returns the cache root.
func (b *base) Dir() string { return b.dir }

// FS returns the filesystem the store does its I/O through.
func (b *base) FS() chaos.FS { return b.fs }

// SetLog installs the store's log sink (Interface-level access to the
// Log field the concrete engines expose).
func (b *base) SetLog(fn func(format string, args ...any)) { b.Log = fn }

// Quarantined returns the number of corrupted artifacts this handle
// has preserved in the quarantine directory.
func (b *base) Quarantined() int64 { return b.quarantined.Load() }

func (b *base) logf(format string, args ...any) {
	if b.Log != nil {
		b.Log(format, args...)
	}
}

// quarantineDst picks a non-clobbering destination for a quarantined
// artifact: the same key can be corrupted, repaired and corrupted
// again, and each specimen matters.
func (b *base) quarantineDst(name string) string {
	dst := filepath.Join(b.dir, QuarantineDir, name)
	for i := 1; ; i++ {
		if _, err := b.fs.Stat(dst); err != nil {
			break
		}
		dst = filepath.Join(b.dir, QuarantineDir, fmt.Sprintf("%s.%d", name, i))
	}
	return dst
}

// quarantine moves a corrupted artifact file out of the live tree into
// DIR/quarantine/ (falling back to deletion if even that fails), so it
// is preserved for diagnosis but never read again. Best-effort: the
// caller has already decided the artifact is a miss.
func (b *base) quarantine(path, detail string) {
	dst := b.quarantineDst(filepath.Base(path))
	// Quarantine must work on the degraded disk that corrupted the
	// artifact in the first place, so tolerate transient failures.
	err := chaos.Retry(context.Background(), b.Retry, func() error {
		if err := b.fs.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			return err
		}
		return b.fs.Rename(path, dst)
	})
	if err != nil {
		b.fs.Remove(path)
	}
	b.quarantined.Add(1)
	b.logf("store: quarantined %s (%s)", path, detail)
}

// QuarantineBytes preserves corrupted bytes that arrived without a
// file of their own — a damaged gossip transfer — as a named specimen
// under DIR/quarantine/ and counts it, exactly like engine-internal
// corruption. The serving tier's gossip ingest calls this for
// transfers that fail DecodeEntry, so wire damage leaves the same
// audit trail disk damage does.
func (b *base) QuarantineBytes(name string, data []byte, detail string) {
	b.quarantineBytes(name, data, detail)
}

// quarantineBytes preserves a corrupted artifact that has no file of
// its own — a damaged record inside a log segment — by writing the
// raw bytes as a specimen into DIR/quarantine/. Best-effort like
// quarantine.
func (b *base) quarantineBytes(name string, data []byte, detail string) {
	dst := b.quarantineDst(name)
	chaos.Retry(context.Background(), b.Retry, func() error {
		if err := b.fs.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			return err
		}
		return b.fs.WriteFile(dst, data, 0o600)
	})
	b.quarantined.Add(1)
	b.logf("store: quarantined %s (%s)", name, detail)
}

// writeAtomic lands data at path via temp file + fsync + rename in the
// same directory: a crash or injected fault at any point leaves either
// the previous content or the new content, never a torn file.
func (b *base) writeAtomic(path string, data []byte) error {
	if err := b.fs.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp, err := b.fs.CreateTemp(filepath.Dir(path), ".put-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		b.fs.Remove(tmp.Name())
		return err
	}
	if err := tmp.Sync(); err != nil {
		// Failed fsync means the bytes may not be durable: the temp file
		// is poison, not a candidate for rename.
		tmp.Close()
		b.fs.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		b.fs.Remove(tmp.Name())
		return err
	}
	if err := b.fs.Rename(tmp.Name(), path); err != nil {
		b.fs.Remove(tmp.Name())
		return err
	}
	return nil
}

// PutCampaign persists a campaign manifest — the cell keys in
// expansion order under the campaign's content id — atomically.
// Manifests are what make the query plane's per-campaign summary and
// diff work offline, across restarts and across processes.
func (b *base) PutCampaign(id string, keys []string) error {
	if id == "" || strings.ContainsAny(id, "/\\.") {
		return fmt.Errorf("store: bad campaign id %q", id)
	}
	data, err := json.Marshal(campaignManifest{ID: id, Keys: keys})
	if err != nil {
		return fmt.Errorf("store: marshal campaign manifest: %v", err)
	}
	path := filepath.Join(b.dir, campaignsDir, id+".json")
	err = chaos.Retry(context.Background(), b.Retry, func() error {
		return b.writeAtomic(path, append(data, '\n'))
	})
	if err != nil {
		b.logf("store: put campaign %s failed: %s", id[:min(12, len(id))], chaos.Describe(err))
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// campaignManifest is the on-disk campaign schema.
type campaignManifest struct {
	ID   string   `json:"id"`
	Keys []string `json:"keys"`
}

// GetCampaign returns the cell keys of a persisted campaign manifest
// in expansion order. A missing, unreadable or damaged manifest is a
// miss (damage is additionally quarantined).
func (b *base) GetCampaign(id string) ([]string, bool) {
	if id == "" || strings.ContainsAny(id, "/\\.") {
		return nil, false
	}
	path := filepath.Join(b.dir, campaignsDir, id+".json")
	var data []byte
	err := chaos.Retry(context.Background(), b.Retry, func() error {
		var rerr error
		data, rerr = b.fs.ReadFile(path)
		return rerr
	})
	if err != nil {
		return nil, false
	}
	var m campaignManifest
	if err := json.Unmarshal(data, &m); err != nil {
		b.quarantine(path, "undecodable campaign manifest: "+err.Error())
		return nil, false
	}
	if m.ID != id {
		b.quarantine(path, "campaign manifest id mismatch")
		return nil, false
	}
	return m.Keys, true
}

// Campaigns lists the ids of all persisted campaign manifests, sorted.
func (b *base) Campaigns() []string {
	entries, err := os.ReadDir(filepath.Join(b.dir, campaignsDir))
	if err != nil {
		return nil
	}
	var ids []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		id, ok := strings.CutSuffix(e.Name(), ".json")
		if ok && !strings.HasPrefix(id, ".") {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}

// GCTemp removes abandoned temp files left anywhere under the cache
// root by a killed process — .put-* (atomic writes), .ckpt-*
// (checkpoint writes), .seg-* (segment creation) and *.tmp — and
// returns the number removed. Temp files are invisible to every read
// path, so this is pure hygiene and safe to run concurrently with
// live jobs only at startup (a live write's in-flight temp file could
// be swept).
func (b *base) GCTemp() int {
	removed := 0
	quarantine := filepath.Join(b.dir, QuarantineDir)
	filepath.WalkDir(b.dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path == quarantine {
				return filepath.SkipDir
			}
			return nil
		}
		base := filepath.Base(path)
		if strings.HasPrefix(base, ".put-") || strings.HasPrefix(base, ".ckpt-") ||
			strings.HasPrefix(base, ".seg-") || strings.HasSuffix(base, ".tmp") {
			if b.fs.Remove(path) == nil {
				removed++
			}
		}
		return nil
	})
	return removed
}

// gcCheckpoints removes orphaned checkpoint blobs: snapshots whose job
// already has a verdict entry according to has (the completion-time
// Delete crashed or another process finished the job), plus abandoned
// temp files. Each engine supplies its own verdict-existence probe. A
// snapshot whose job has no verdict is never swept — another process
// sharing the directory may be mid-job.
func (b *base) gcCheckpoints(has func(key string) bool) int {
	removed := 0
	root := filepath.Join(b.dir, "checkpoints")
	filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		base := filepath.Base(path)
		if strings.HasPrefix(base, ".ckpt-") {
			// Abandoned temp file from a crashed Save.
			if b.fs.Remove(path) == nil {
				removed++
			}
			return nil
		}
		key, ok := strings.CutSuffix(base, ".ckpt")
		if !ok {
			return nil
		}
		if has(checkpointJob(key)) {
			if b.fs.Remove(path) == nil {
				removed++
			}
		}
		return nil
	})
	return removed
}
