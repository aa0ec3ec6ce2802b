package chaos

import (
	"errors"
	"fmt"
	"io/fs"
	"syscall"
)

// Class sorts I/O failures by what the caller should do about them.
type Class int

const (
	// Unknown: not an I/O error this package can classify (validation
	// failures, logic errors). Never retried, never exit-code 4.
	Unknown Class = iota
	// Transient: retrying — after backoff, or on a fresh attempt — can
	// succeed (ENOSPC, EINTR, EIO, EAGAIN, ...).
	Transient
	// Permanent: retrying cannot help (EACCES, EROFS, ENOENT, ...).
	Permanent
	// Corrupt: bytes read back failed a checksum or structural check.
	// The artifact is quarantined; recomputing it can succeed, so the
	// class is recoverable at the job level like Transient.
	Corrupt
)

func (c Class) String() string {
	switch c {
	case Transient:
		return "transient"
	case Permanent:
		return "permanent"
	case Corrupt:
		return "corrupt"
	}
	return "unknown"
}

// CorruptError reports an artifact whose bytes failed an integrity
// check (checksum mismatch, torn structure). Classify maps it to
// Corrupt.
type CorruptError struct {
	Path   string
	Detail string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("chaos: corrupt artifact %s: %s", e.Path, e.Detail)
}

// transientErrnos are worth retrying: the condition can clear (space
// freed, descriptor released, flaky medium re-read).
var transientErrnos = map[syscall.Errno]bool{
	syscall.ENOSPC: true, syscall.EDQUOT: true, syscall.EINTR: true,
	syscall.EAGAIN: true, syscall.EBUSY: true, syscall.ETIMEDOUT: true,
	syscall.EMFILE: true, syscall.ENFILE: true, syscall.ENOMEM: true,
	syscall.ESTALE: true, syscall.EIO: true,
}

// permanentErrnos cannot clear by waiting: the path, permissions or
// filesystem itself is wrong.
var permanentErrnos = map[syscall.Errno]bool{
	syscall.EACCES: true, syscall.EPERM: true, syscall.EROFS: true,
	syscall.ENOENT: true, syscall.ENOTDIR: true, syscall.EISDIR: true,
	syscall.EINVAL: true, syscall.ENAMETOOLONG: true, syscall.ENODEV: true,
	syscall.ENXIO: true, syscall.EBADF: true, syscall.EEXIST: true,
}

// Classify maps an error onto its failure class. It unwraps through
// fs.PathError and wrapped chains; an error in the chain with a
// Class() Class method names its own class, and anything else without
// a recognizable errno or CorruptError is Unknown.
func Classify(err error) Class {
	if err == nil {
		return Unknown
	}
	var classed interface{ Class() Class }
	if errors.As(err, &classed) {
		return classed.Class()
	}
	var ce *CorruptError
	if errors.As(err, &ce) {
		return Corrupt
	}
	var errno syscall.Errno
	if errors.As(err, &errno) {
		switch {
		case transientErrnos[errno]:
			return Transient
		case permanentErrnos[errno]:
			return Permanent
		}
		// An errno outside both tables is still a real I/O failure;
		// treat it conservatively as permanent (no retry storm).
		return Permanent
	}
	return Unknown
}

// IsTransient reports whether the error is worth an in-place retry.
func IsTransient(err error) bool { return Classify(err) == Transient }

// Recoverable reports whether a fresh attempt of the whole operation
// (a campaign cell, a job) can succeed: transient conditions clear and
// corrupt artifacts are quarantined and rebuilt.
func Recoverable(err error) bool {
	c := Classify(err)
	return c == Transient || c == Corrupt
}

// errnoNames renders the classified errnos symbolically for Describe.
var errnoNames = map[syscall.Errno]string{
	syscall.ENOSPC: "ENOSPC", syscall.EDQUOT: "EDQUOT", syscall.EINTR: "EINTR",
	syscall.EAGAIN: "EAGAIN", syscall.EBUSY: "EBUSY", syscall.ETIMEDOUT: "ETIMEDOUT",
	syscall.EMFILE: "EMFILE", syscall.ENFILE: "ENFILE", syscall.ENOMEM: "ENOMEM",
	syscall.ESTALE: "ESTALE", syscall.EIO: "EIO",
	syscall.EACCES: "EACCES", syscall.EPERM: "EPERM", syscall.EROFS: "EROFS",
	syscall.ENOENT: "ENOENT", syscall.ENOTDIR: "ENOTDIR", syscall.EISDIR: "EISDIR",
	syscall.EINVAL: "EINVAL", syscall.ENAMETOOLONG: "ENAMETOOLONG",
	syscall.ENODEV: "ENODEV", syscall.ENXIO: "ENXIO", syscall.EBADF: "EBADF",
	syscall.EEXIST: "EEXIST",
}

// Describe renders an error for the CLIs' dedicated I/O failure exit
// path: the error text plus the failing path, the errno and the class,
// e.g. "write /v/.put-1: no space left on device (path=/v/.put-1,
// errno=ENOSPC, transient)".
func Describe(err error) string {
	if err == nil {
		return "<nil>"
	}
	class := Classify(err)
	path := ""
	var pe *fs.PathError
	if errors.As(err, &pe) {
		path = pe.Path
	}
	var ce *CorruptError
	if errors.As(err, &ce) {
		path = ce.Path
	}
	errno := ""
	var en syscall.Errno
	if errors.As(err, &en) {
		if n, ok := errnoNames[en]; ok {
			errno = n
		} else {
			errno = fmt.Sprintf("errno(%d)", int(en))
		}
	}
	detail := ""
	switch {
	case path != "" && errno != "":
		detail = fmt.Sprintf(" (path=%s, errno=%s, %s)", path, errno, class)
	case path != "":
		detail = fmt.Sprintf(" (path=%s, %s)", path, class)
	default:
		detail = fmt.Sprintf(" (%s)", class)
	}
	return err.Error() + detail
}
