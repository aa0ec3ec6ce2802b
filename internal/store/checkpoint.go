package store

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/chaos"
)

// Checkpoint is the handle for one job's checkpoint blob — the
// resumable-exploration side of the store. A long-running job
// periodically persists an explore snapshot under its content key
// (DIR/checkpoints/<kk>/<key>.ckpt, atomic temp-file+rename like
// verdict entries); a rerun of the same spec finds it and resumes
// instead of restarting, and the final verdict is byte-identical to an
// uninterrupted run. Checkpoints are plain file blobs in both store
// engines — they are scratch with exactly one live version per key,
// so the log engine's append-and-supersede machinery would buy them
// nothing. A checkpoint is not truth: once the job's verdict entry
// exists the checkpoint is dead weight, deleted on completion,
// garbage-collected (GCCheckpoints) if a crash orphaned it, and
// quarantined (Quarantine) if the explorer rejects its bytes.
//
// Checkpoint implements explore.Checkpointer (Load/Save) plus Delete
// and Quarantine; obtain it from Interface.Checkpoint.
type Checkpoint struct {
	b    *base
	path string
}

// Checkpoint returns the checkpoint handle for a content key.
func (b *base) Checkpoint(key string) *Checkpoint {
	return &Checkpoint{b: b, path: b.checkpointPath(key)}
}

// ShardSnapshotKey is the checkpoint key under which a cluster peer
// persists one shard's snapshot — derived from the job's content key,
// so concurrent cluster jobs never collide and the snapshot lives and
// dies with its job: the hosting peer deletes it when the job closes,
// and GCCheckpoints sweeps a crashed run's leftovers once the job has
// a verdict.
func ShardSnapshotKey(job string, shard int) string {
	return fmt.Sprintf("%s-shard%d", job, shard)
}

// checkpointJob maps a checkpoint key back to the job whose verdict
// supersedes it: the key itself, or the job part of a ShardSnapshotKey.
func checkpointJob(key string) string {
	if i := strings.LastIndex(key, "-shard"); i >= 0 {
		if _, err := strconv.ParseUint(key[i+len("-shard"):], 10, 31); err == nil {
			return key[:i]
		}
	}
	return key
}

func (b *base) checkpointPath(key string) string {
	kk := "xx"
	if len(key) >= 2 {
		kk = key[:2]
	}
	return filepath.Join(b.dir, "checkpoints", kk, key+".ckpt")
}

// Load opens the stored snapshot; (nil, nil) when none exists.
// Transient open failures are retried; corruption is the explorer's
// problem to reject (it checksums the stream), at which point it
// calls Quarantine and restarts from scratch.
func (c *Checkpoint) Load() (io.ReadCloser, error) {
	var f chaos.File
	err := chaos.Retry(context.Background(), c.b.Retry, func() error {
		var oerr error
		f, oerr = c.b.fs.Open(c.path)
		if oerr != nil && errors.Is(oerr, fs.ErrNotExist) {
			f = nil
			return nil
		}
		return oerr
	})
	if err != nil {
		return nil, err
	}
	if f == nil {
		return nil, nil
	}
	return f, nil
}

// Save persists a snapshot atomically: write streams into a temp file
// in the same directory, which is fsynced and renamed over the
// previous checkpoint only after a successful write — a crash or
// fault mid-Save leaves the previous checkpoint intact, and a reader
// never observes a torn file. Transient failures retry the whole
// write (the write callback must be restartable, which snapshot
// serialization is: it reads current explorer state).
func (c *Checkpoint) Save(write func(w io.Writer) error) error {
	return chaos.Retry(context.Background(), c.b.Retry, func() error {
		return c.saveOnce(write)
	})
}

func (c *Checkpoint) saveOnce(write func(w io.Writer) error) error {
	if err := c.b.fs.MkdirAll(filepath.Dir(c.path), 0o755); err != nil {
		return err
	}
	tmp, err := c.b.fs.CreateTemp(filepath.Dir(c.path), ".ckpt-*")
	if err != nil {
		return err
	}
	if err := write(tmp); err != nil {
		tmp.Close()
		c.b.fs.Remove(tmp.Name())
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		c.b.fs.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		c.b.fs.Remove(tmp.Name())
		return err
	}
	if err := c.b.fs.Rename(tmp.Name(), c.path); err != nil {
		c.b.fs.Remove(tmp.Name())
		return err
	}
	return nil
}

// Delete removes the checkpoint (idempotent; called when the job's
// verdict is persisted).
func (c *Checkpoint) Delete() error {
	err := c.b.fs.Remove(c.path)
	if err != nil && errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	return err
}

// Quarantine moves a checkpoint the explorer rejected as corrupt into
// the store's quarantine directory; the next run starts from scratch
// and converges to the same verdict. Idempotent and best-effort.
func (c *Checkpoint) Quarantine() error {
	if _, err := c.b.fs.Stat(c.path); err != nil {
		return nil // already gone
	}
	c.b.quarantine(c.path, "checkpoint rejected by explorer")
	return nil
}
