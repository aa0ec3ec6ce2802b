package store

import (
	"bytes"
	"testing"

	"repro/internal/explore"
)

// TestLogReadFollowsCompactedRecord: a compaction that runs between a
// read's index lookup and its segment read deletes the segment the
// lookup named; the read follows the key to the record's new location
// instead of reporting a stored verdict as missing.
func TestLogReadFollowsCompactedRecord(t *testing.T) {
	st, err := OpenLog(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st.AutoCompact = false
	defer st.Close()
	spec := JobSpec{Alg: "cc2", Topo: "ring:3", Daemon: "central", Init: "legit"}
	raw, err := st.Put(spec, &explore.Result{Model: "fake", Inits: 1, States: 7, MaxIncorrectDepth: -1})
	if err != nil {
		t.Fatal(err)
	}
	key := spec.Key()
	for _, warm := range []bool{false, true} {
		if warm { // the lookup's segment already has an open read handle
			if _, _, _, ok := st.GetByKey(key); !ok {
				t.Fatal("warm-up read missed")
			}
		}
		loc, ok := st.locate(key)
		if !ok {
			t.Fatal("key not indexed")
		}
		if _, err := st.Compact(); err != nil {
			t.Fatal(err)
		}
		if moved, _ := st.locate(key); moved == loc {
			t.Fatal("compaction did not move the record")
		}
		e, ok := st.fetchAt(key, loc)
		if !ok {
			t.Fatalf("warm=%v: a read racing a compaction reported a stored verdict as missing", warm)
		}
		if _, _, got, ok := matchKey(e, key); !ok || !bytes.Equal(got, raw) {
			t.Fatalf("warm=%v: followed read served the wrong bytes", warm)
		}
	}
	if st.Quarantined() != 0 {
		t.Fatal("a moved record is not damage")
	}
}
