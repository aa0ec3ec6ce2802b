package explore

import (
	"os"
	"path/filepath"
	"strings"
)

// GCSpill removes orphaned spill scratch left in dir by a killed
// process — cc-arena-* files, plus the cc-frontier-* segment
// directories that older binaries and bench's open-queue probe leave —
// and returns the number of entries removed. A live run's scratch is
// only at risk if GCSpill races it in the same directory, so callers
// run it at startup only (ccserve, cccheck -cache entry). dir "" means
// the system temp dir, matching the spill default.
func GCSpill(dir string) int {
	if dir == "" {
		dir = os.TempDir()
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	removed := 0
	for _, e := range entries {
		name := e.Name()
		switch {
		case e.IsDir() && strings.HasPrefix(name, "cc-frontier-"):
			if os.RemoveAll(filepath.Join(dir, name)) == nil {
				removed++
			}
		case !e.IsDir() && strings.HasPrefix(name, "cc-arena-"):
			if os.Remove(filepath.Join(dir, name)) == nil {
				removed++
			}
		}
	}
	return removed
}
