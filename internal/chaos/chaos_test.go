package chaos

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestParseFaults(t *testing.T) {
	f, err := ParseFaults("seed=7,write=0.05,read=0.1,torn=0.02,sync=0.3,rename=0.01,flip=0.001,perm=0.2,fail-write-at=3,fail-read-at=2,fail-rename-at=1")
	if err != nil {
		t.Fatal(err)
	}
	want := Faults{
		Seed: 7, WriteErr: 0.05, ReadErr: 0.1, TornWrite: 0.02, SyncErr: 0.3,
		RenameErr: 0.01, BitFlip: 0.001, Permanent: 0.2,
		FailWriteAt: 3, FailReadAt: 2, FailRenameAt: 1,
	}
	if f != want {
		t.Fatalf("ParseFaults = %+v, want %+v", f, want)
	}
	if f, err := ParseFaults(""); err != nil || f != (Faults{}) {
		t.Fatalf("empty spec: %+v, %v", f, err)
	}
	for _, bad := range []string{"write", "write=2", "write=-1", "bogus=1", "seed=-1", "fail-write-at=x"} {
		if _, err := ParseFaults(bad); err == nil {
			t.Errorf("ParseFaults(%q) = nil error, want error", bad)
		}
	}
}

// classedErr names its own class, as store.LockedError does.
type classedErr struct{ errno syscall.Errno }

func (e classedErr) Error() string { return "held: " + e.errno.Error() }
func (e classedErr) Unwrap() error { return e.errno }
func (e classedErr) Class() Class  { return Permanent }

func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want Class
	}{
		{nil, Unknown},
		{errors.New("plain"), Unknown},
		{syscall.ENOSPC, Transient},
		{syscall.EIO, Transient},
		{syscall.EINTR, Transient},
		{syscall.EACCES, Permanent},
		{syscall.ENOENT, Permanent},
		{syscall.EROFS, Permanent},
		{&fs.PathError{Op: "write", Path: "/x", Err: syscall.ENOSPC}, Transient},
		{fmt.Errorf("wrapped: %w", &fs.PathError{Op: "open", Path: "/y", Err: syscall.EACCES}), Permanent},
		{&CorruptError{Path: "/z", Detail: "checksum"}, Corrupt},
		{fmt.Errorf("wrap: %w", &CorruptError{Path: "/z", Detail: "d"}), Corrupt},
		// A self-classed error wins over the errno it wraps.
		{fmt.Errorf("wrap: %w", classedErr{syscall.EAGAIN}), Permanent},
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Errorf("Classify(%v) = %v, want %v", c.err, got, c.want)
		}
	}
	if !Recoverable(syscall.ENOSPC) || !Recoverable(&CorruptError{Path: "p"}) {
		t.Error("transient and corrupt must be recoverable")
	}
	if Recoverable(syscall.EACCES) || Recoverable(errors.New("x")) {
		t.Error("permanent/unknown must not be recoverable")
	}
}

func TestDescribe(t *testing.T) {
	d := Describe(&fs.PathError{Op: "write", Path: "/v/.put-1", Err: syscall.ENOSPC})
	for _, want := range []string{"path=/v/.put-1", "errno=ENOSPC", "transient"} {
		if !strings.Contains(d, want) {
			t.Errorf("Describe = %q, missing %q", d, want)
		}
	}
	d = Describe(&CorruptError{Path: "/c/seg", Detail: "bad checksum"})
	if !strings.Contains(d, "path=/c/seg") || !strings.Contains(d, "corrupt") {
		t.Errorf("Describe corrupt = %q", d)
	}
}

func TestRetryTransientThenSuccess(t *testing.T) {
	n := 0
	err := Retry(context.Background(), Policy{Attempts: 4, Base: time.Microsecond, Max: time.Millisecond}, func() error {
		n++
		if n < 3 {
			return syscall.ENOSPC
		}
		return nil
	})
	if err != nil || n != 3 {
		t.Fatalf("err=%v n=%d, want nil/3", err, n)
	}
}

func TestRetryPermanentImmediate(t *testing.T) {
	n := 0
	err := Retry(context.Background(), DefaultPolicy, func() error {
		n++
		return syscall.EACCES
	})
	if !errors.Is(err, syscall.EACCES) || n != 1 {
		t.Fatalf("err=%v n=%d, want EACCES/1", err, n)
	}
}

func TestRetryExhausted(t *testing.T) {
	n := 0
	err := Retry(context.Background(), Policy{Attempts: 3, Base: time.Microsecond}, func() error {
		n++
		return syscall.EIO
	})
	if !errors.Is(err, syscall.EIO) || n != 3 {
		t.Fatalf("err=%v n=%d, want EIO/3", err, n)
	}
}

func TestRetryContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := Retry(ctx, Policy{Attempts: 5, Base: time.Hour}, func() error { return syscall.ENOSPC })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v, want context.Canceled", err)
	}
}

func TestFaultFSDeterminism(t *testing.T) {
	run := func() []string {
		dir := t.TempDir()
		ffs := NewFaultFS(OS, Faults{Seed: 42, WriteErr: 0.3, ReadErr: 0.3, TornWrite: 0.2, BitFlip: 0.2})
		errTag := func(err error) string {
			var en syscall.Errno
			errors.As(err, &en)
			return en.Error()
		}
		var events []string
		for i := 0; i < 50; i++ {
			p := filepath.Join(dir, fmt.Sprintf("f%d", i))
			if err := ffs.WriteFile(p, []byte("payload-payload-payload"), 0o644); err != nil {
				events = append(events, "w:"+errTag(err))
				continue
			}
			b, err := ffs.ReadFile(p)
			if err != nil {
				events = append(events, "r:"+errTag(err))
				continue
			}
			events = append(events, "ok:"+string(b))
		}
		return events
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestFaultFSFailWriteAt(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OS, Faults{FailWriteAt: 2})
	if err := ffs.WriteFile(filepath.Join(dir, "a"), []byte("x"), 0o644); err != nil {
		t.Fatalf("write 1: %v", err)
	}
	err := ffs.WriteFile(filepath.Join(dir, "b"), []byte("x"), 0o644)
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("write 2: %v, want ENOSPC", err)
	}
	if err := ffs.WriteFile(filepath.Join(dir, "c"), []byte("x"), 0o644); err != nil {
		t.Fatalf("write 3: %v", err)
	}
	if got := ffs.Stats()["write"]; got != 1 {
		t.Fatalf("injected writes = %d, want 1", got)
	}
}

func TestFaultFSTornWriteLeavesPrefix(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OS, Faults{Seed: 1, TornWrite: 1})
	p := filepath.Join(dir, "torn")
	data := []byte("0123456789abcdef")
	err := ffs.WriteFile(p, data, 0o644)
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("torn write err = %v, want ENOSPC", err)
	}
	got, rerr := os.ReadFile(p)
	if rerr != nil {
		t.Fatalf("read back: %v", rerr)
	}
	if len(got) == 0 || len(got) >= len(data) {
		t.Fatalf("torn write landed %d bytes, want strict non-empty prefix of %d", len(got), len(data))
	}
	if string(got) != string(data[:len(got)]) {
		t.Fatalf("torn prefix mismatch: %q", got)
	}
}

func TestFaultFSBitFlipSilent(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OS, Faults{Seed: 1, BitFlip: 1})
	p := filepath.Join(dir, "flip")
	data := []byte("0123456789abcdef")
	if err := ffs.WriteFile(p, data, 0o644); err != nil {
		t.Fatalf("flip write must report success, got %v", err)
	}
	got, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(data) {
		t.Fatalf("flipped write length %d, want %d", len(got), len(data))
	}
	diff := 0
	for i := range got {
		if got[i] != data[i] {
			diff++
			if x := got[i] ^ data[i]; x&(x-1) != 0 {
				t.Fatalf("byte %d differs by more than one bit: %02x vs %02x", i, got[i], data[i])
			}
		}
	}
	if diff != 1 {
		t.Fatalf("flipped %d bytes, want exactly 1", diff)
	}
}

func TestFaultFSSyncErr(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OS, Faults{Seed: 1, SyncErr: 1})
	f, err := ffs.CreateTemp(dir, "t-*")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("sync err = %v, want EIO", err)
	}
}

func TestFaultFSRenameFail(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "src")
	if err := os.WriteFile(src, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	ffs := NewFaultFS(OS, Faults{FailRenameAt: 1})
	dst := filepath.Join(dir, "dst")
	if err := ffs.Rename(src, dst); !errors.Is(err, syscall.EIO) {
		t.Fatalf("rename err = %v, want EIO", err)
	}
	if _, err := os.Stat(src); err != nil {
		t.Fatalf("failed rename must leave source intact: %v", err)
	}
	if _, err := os.Stat(dst); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("failed rename must not create destination: %v", err)
	}
	if err := ffs.Rename(src, dst); err != nil {
		t.Fatalf("second rename: %v", err)
	}
}

func TestFaultFSSetFaultsHeals(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OS, Faults{Seed: 1, WriteErr: 1})
	p := filepath.Join(dir, "f")
	if err := ffs.WriteFile(p, []byte("x"), 0o644); err == nil {
		t.Fatal("want injected write error")
	}
	ffs.SetFaults(Faults{})
	if err := ffs.WriteFile(p, []byte("x"), 0o644); err != nil {
		t.Fatalf("healed write: %v", err)
	}
}

func TestOSPassthrough(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "sub", "f")
	if err := OS.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := OS.WriteFile(p, []byte("hello"), 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := OS.ReadFile(p)
	if err != nil || string(b) != "hello" {
		t.Fatalf("ReadFile: %q, %v", b, err)
	}
	f, err := OS.CreateTemp(dir, "tmp-*")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("t")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	name := f.Name()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := OS.Rename(name, p+"2"); err != nil {
		t.Fatal(err)
	}
	if _, err := OS.Stat(p + "2"); err != nil {
		t.Fatal(err)
	}
	if err := OS.Remove(p + "2"); err != nil {
		t.Fatal(err)
	}
}
