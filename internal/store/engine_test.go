package store_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/chaos"
	"repro/internal/explore"
	"repro/internal/store"
)

// This file runs the store battery against BOTH engines through
// store.Interface: everything the dir engine promised in PRs 4–6
// (byte-identical round trips, corruption-as-miss, retried transient
// faults, GC idempotency) must hold verbatim for the log engine, and
// the two must serve bit-for-bit identical Get bytes for the same
// Puts — including across a log-engine compaction.

// forEachEngine runs the test body against a fresh store of each
// engine.
func forEachEngine(t *testing.T, body func(t *testing.T, st store.Interface)) {
	t.Helper()
	for _, engine := range []string{store.EngineDir, store.EngineLog} {
		t.Run(engine, func(t *testing.T) {
			st := openEngine(t, engine, nil)
			body(t, st)
		})
	}
}

func openEngine(t *testing.T, engine string, fsys chaos.FS) store.Interface {
	t.Helper()
	st, err := store.OpenEngine(engine, t.TempDir(), fsys)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// fakeResult fabricates a small deterministic verdict so engine tests
// do not pay for a real exploration per record.
func fakeResult(states int, truncated bool) *explore.Result {
	return &explore.Result{
		Model: "fake", Inits: 1, States: states,
		Transitions: int64(states) * 3, Depth: 2, MaxIncorrectDepth: -1,
		Truncated: truncated,
	}
}

// seedSpec makes the i-th of a family of distinct content keys.
func seedSpec(i int) store.JobSpec {
	return store.JobSpec{Alg: "cc2", Topo: "ring:3", Daemon: "central", Init: "random", RandomInits: 4, Seed: int64(i + 1)}
}

// TestEngineUnknown: OpenEngine rejects engines it does not have.
func TestEngineUnknown(t *testing.T) {
	if _, err := store.OpenEngine("btree", t.TempDir(), nil); err == nil {
		t.Fatal("unknown engine accepted")
	}
	if _, err := store.OpenEngine(store.EngineLog, "", nil); err == nil {
		t.Fatal("log engine accepted an empty directory")
	}
}

// TestEngineRefusesOtherLayout: a directory holding one engine's
// verdicts does not open under the other (it would read as an empty
// cache and grow a second layout beside the first); the error names
// the engine found on disk. A directory holding only the shared trees
// (manifests, checkpoints) opens under either, but the log engine's
// first open lays down segments/, and from then on the directory is a
// log cache whether or not a verdict has landed.
func TestEngineRefusesOtherLayout(t *testing.T) {
	forEachEngine(t, func(t *testing.T, st store.Interface) {
		other := store.EngineLog
		if st.Engine() == store.EngineLog {
			other = store.EngineDir
		}
		if _, err := st.Put(smallSpec(), fakeResult(7, false)); err != nil {
			t.Fatal(err)
		}
		st.Close()
		_, err := store.OpenEngine(other, st.Dir(), nil)
		if err == nil || !strings.Contains(err.Error(), st.Engine()+"-engine") {
			t.Fatalf("%s opened a %s directory: err = %v", other, st.Engine(), err)
		}
		same, err := store.OpenEngine(st.Engine(), st.Dir(), nil)
		if err != nil {
			t.Fatalf("reopen under the same engine: %v", err)
		}
		defer same.Close()
		if _, _, ok := same.Get(smallSpec()); !ok {
			t.Fatal("entry lost across the refused open")
		}
	})

	dir := t.TempDir()
	shared, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := shared.PutCampaign("c0", []string{smallSpec().Key()}); err != nil {
		t.Fatal(err)
	}
	shared.Close()
	lst, err := store.OpenEngine(store.EngineLog, dir, nil)
	if err != nil {
		t.Fatalf("a manifest-only directory refused under log: %v", err)
	}
	lst.Close()
	if _, err := store.OpenEngine(store.EngineDir, dir, nil); err == nil || !strings.Contains(err.Error(), "log-engine") {
		t.Fatalf("dir opened a verdict-free log cache: err = %v", err)
	}
}

// TestOpenEngineDetects: engine "" — what every CLI passes unless told
// otherwise — opens a cache in the layout it already holds, with the
// entry bytes the writing engine served, and starts an empty directory
// as a dir store (the layout concurrent processes may share).
func TestOpenEngineDetects(t *testing.T) {
	forEachEngine(t, func(t *testing.T, st store.Interface) {
		want, err := st.Put(smallSpec(), fakeResult(7, false))
		if err != nil {
			t.Fatal(err)
		}
		st.Close()
		got, err := store.OpenEngine("", st.Dir(), nil)
		if err != nil {
			t.Fatal(err)
		}
		defer got.Close()
		if got.Engine() != st.Engine() {
			t.Fatalf("a %s cache opened as %s", st.Engine(), got.Engine())
		}
		if _, raw, ok := got.Get(smallSpec()); !ok || !bytes.Equal(raw, want) {
			t.Fatalf("detected open served %q (hit %v), want %q", raw, ok, want)
		}
	})
	fresh, err := store.OpenEngine("", t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if fresh.Engine() != store.EngineDir {
		t.Fatalf("an empty directory opened as %s, want %s", fresh.Engine(), store.EngineDir)
	}
}

// TestEngineRoundTrip: Put → Get byte identity, alias reads, re-Put
// stability and Len — per engine.
func TestEngineRoundTrip(t *testing.T) {
	res, err := campaign.Execute(smallSpec(), 2)
	if err != nil {
		t.Fatal(err)
	}
	forEachEngine(t, func(t *testing.T, st store.Interface) {
		spec := smallSpec()
		raw1, err := st.Put(spec, res)
		if err != nil {
			t.Fatal(err)
		}
		got, raw2, ok := st.Get(spec)
		if !ok || !bytes.Equal(raw1, raw2) {
			t.Fatal("Get bytes differ from Put bytes")
		}
		if got.Verdict() != res.Verdict() || got.States != res.States {
			t.Fatal("decoded result differs")
		}
		raw3, err := st.Put(spec, got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw1, raw3) {
			t.Fatal("re-persisting the decoded result is not byte-identical")
		}
		// Alias spelling hits the same entry.
		if _, raw4, ok := st.Get(store.JobSpec{Alg: "CC2", Topo: " ring:3", Daemon: "Central", Init: "legit", Seed: 9}); !ok || !bytes.Equal(raw1, raw4) {
			t.Fatal("alias spelling missed")
		}
		if st.Len() != 1 {
			t.Fatalf("Len = %d, want 1", st.Len())
		}
		// GetByKey round trip + rejection of unknown keys.
		gotSpec, _, raw5, ok := st.GetByKey(spec.Key())
		if !ok || !bytes.Equal(raw1, raw5) || gotSpec.Key() != spec.Key() {
			t.Fatal("GetByKey did not recover the entry byte-identically")
		}
		if _, _, _, ok := st.GetByKey("deadbeef00"); ok {
			t.Fatal("unknown key served")
		}
		if _, _, _, ok := st.GetByKey(""); ok {
			t.Fatal("empty key served")
		}
	})
}

// TestEngineCampaignManifests: campaign manifests persist and list
// identically under both engines (they share the blob layer).
func TestEngineCampaignManifests(t *testing.T) {
	forEachEngine(t, func(t *testing.T, st store.Interface) {
		keys := []string{seedSpec(0).Key(), seedSpec(1).Key()}
		id := store.CampaignID(keys)
		if err := st.PutCampaign(id, keys); err != nil {
			t.Fatal(err)
		}
		got, ok := st.GetCampaign(id)
		if !ok || len(got) != 2 || got[0] != keys[0] || got[1] != keys[1] {
			t.Fatalf("manifest round trip failed: %v %v", got, ok)
		}
		if _, ok := st.GetCampaign("no-such-campaign"); ok {
			t.Fatal("unknown campaign served")
		}
		if err := st.PutCampaign("../escape", keys); err == nil {
			t.Fatal("path-escaping campaign id accepted")
		}
		if all := st.Campaigns(); len(all) != 1 || all[0] != id {
			t.Fatalf("Campaigns() = %v, want [%s]", all, id)
		}
	})
}

// TestEngineGCIdempotent: the startup hygiene pass collects debris
// once and is a no-op the second time — per engine.
func TestEngineGCIdempotent(t *testing.T) {
	res, err := campaign.Execute(smallSpec(), 1)
	if err != nil {
		t.Fatal(err)
	}
	forEachEngine(t, func(t *testing.T, st store.Interface) {
		if _, err := st.Put(smallSpec(), res); err != nil {
			t.Fatal(err)
		}
		write := func(rel, data string) {
			t.Helper()
			path := filepath.Join(st.Dir(), rel)
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(data), 0o600); err != nil {
				t.Fatal(err)
			}
		}
		write(".put-1234", "torn verdict write")
		write("aa/scratch.tmp", "abandoned")
		write("checkpoints/99/.ckpt-777", "torn save")
		// The verdict above orphans this checkpoint.
		payload(st.Checkpoint(smallSpec().Key()), t, "orphan")
		// Quarantine contents are evidence; no sweep touches them.
		write(filepath.Join(store.QuarantineDir, "evidence.tmp"), "kept")

		if n := st.GCTemp(); n != 3 {
			t.Fatalf("first GCTemp removed %d, want 3", n)
		}
		if n := st.GCCheckpoints(); n != 1 {
			t.Fatalf("first GCCheckpoints removed %d, want 1", n)
		}
		if n := st.GCTemp(); n != 0 {
			t.Fatalf("second GCTemp removed %d, want 0", n)
		}
		if n := st.GCCheckpoints(); n != 0 {
			t.Fatalf("second GCCheckpoints removed %d, want 0", n)
		}
		if quarantineCount(t, st) != 1 {
			t.Fatal("GC swept quarantined evidence")
		}
		if _, _, ok := st.Get(smallSpec()); !ok {
			t.Fatal("GC damaged a live entry")
		}
	})
}

// TestEnginePutRetriesTransient: one injected ENOSPC mid-Put retries
// away under both engines; the entry lands byte-identical.
func TestEnginePutRetriesTransient(t *testing.T) {
	res, err := campaign.Execute(smallSpec(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range []string{store.EngineDir, store.EngineLog} {
		t.Run(engine, func(t *testing.T) {
			ffs := chaos.NewFaultFS(nil, chaos.Faults{FailWriteAt: 2})
			st := openEngine(t, engine, ffs)
			raw, err := st.Put(smallSpec(), res)
			if err != nil {
				t.Fatalf("Put did not retry a transient fault: %v", err)
			}
			if ffs.Stats()["write"] == 0 {
				t.Fatal("fault was not injected — the test exercised nothing")
			}
			if _, raw2, ok := st.Get(smallSpec()); !ok || !bytes.Equal(raw, raw2) {
				t.Fatal("entry not byte-identical after a retried Put")
			}
		})
	}
}

// TestEngineBitFlipQuarantinedOnRead: a silently-corrupted write is
// caught at the next read — miss + quarantine, never a wrong verdict —
// and the repair Put restores the true bytes. Per engine, across five
// fault seeds so the flip lands in different structural regions
// (frame header, checksum, payload).
func TestEngineBitFlipQuarantinedOnRead(t *testing.T) {
	res, err := campaign.Execute(smallSpec(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range []string{store.EngineDir, store.EngineLog} {
		t.Run(engine, func(t *testing.T) {
			for seed := int64(1); seed <= 5; seed++ {
				ffs := chaos.NewFaultFS(nil, chaos.Faults{})
				st := openEngine(t, engine, ffs)
				ffs.SetFaults(chaos.Faults{Seed: seed, BitFlip: 1})
				raw, err := st.Put(smallSpec(), res)
				if err != nil {
					t.Fatalf("seed %d: silent corruption must not error the Put: %v", seed, err)
				}
				if ffs.Stats()["flip"] == 0 {
					t.Fatalf("seed %d: no flip injected", seed)
				}
				ffs.SetFaults(chaos.Faults{}) // heal: the damage is at rest now
				if _, _, ok := st.Get(smallSpec()); ok {
					t.Fatalf("seed %d: bit-flipped entry served as a hit", seed)
				}
				raw2, err := st.Put(smallSpec(), res)
				if err != nil {
					t.Fatalf("seed %d: repair Put: %v", seed, err)
				}
				if !bytes.Equal(raw, raw2) {
					t.Fatalf("seed %d: repair not byte-identical", seed)
				}
				if _, raw3, ok := st.Get(smallSpec()); !ok || !bytes.Equal(raw, raw3) {
					t.Fatalf("seed %d: healed store does not serve the true bytes", seed)
				}
			}
		})
	}
}

// TestEngineDifferentialIdentity is the cross-engine acceptance
// check: the same sequence of Puts (including superseding overwrites)
// into a dir store, a log store, and a log store that then compacts,
// must serve bit-for-bit identical Get bytes for every key — and the
// query plane must aggregate them identically.
func TestEngineDifferentialIdentity(t *testing.T) {
	dir := openEngine(t, store.EngineDir, nil)
	lg, err := store.OpenLogFS(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	lg.AutoCompact = false // compaction is the explicit second act

	const n = 12
	var keys []string
	for i := 0; i < n; i++ {
		spec := seedSpec(i)
		keys = append(keys, spec.Key())
		res := fakeResult(100+i, i%3 == 0)
		for _, st := range []store.Interface{dir, lg} {
			if _, err := st.Put(spec, res); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Supersede a third of them so compaction has garbage to drop.
	for i := 0; i < n; i += 3 {
		res := fakeResult(1000+i, false)
		for _, st := range []store.Interface{dir, lg} {
			if _, err := st.Put(seedSpec(i), res); err != nil {
				t.Fatal(err)
			}
		}
	}

	compare := func(phase string) {
		t.Helper()
		if dir.Len() != lg.Len() {
			t.Fatalf("%s: Len %d (dir) != %d (log)", phase, dir.Len(), lg.Len())
		}
		for i, key := range keys {
			specD, resD, rawD, okD := dir.GetByKey(key)
			specL, resL, rawL, okL := lg.GetByKey(key)
			if !okD || !okL {
				t.Fatalf("%s: key %d missing (dir=%v log=%v)", phase, i, okD, okL)
			}
			if !bytes.Equal(rawD, rawL) {
				t.Fatalf("%s: key %d bytes differ between engines", phase, i)
			}
			if specD.Key() != specL.Key() || resD.States != resL.States {
				t.Fatalf("%s: key %d decoded entry differs", phase, i)
			}
		}
		sumD := store.Summarize(dir, keys)
		sumL := store.Summarize(lg, keys)
		if sumD.Present != sumL.Present || sumD.Verified != sumL.Verified ||
			sumD.Bounded != sumL.Bounded || sumD.Violated != sumL.Violated ||
			sumD.PassRate != sumL.PassRate {
			t.Fatalf("%s: summaries differ: %+v vs %+v", phase, sumD, sumL)
		}
	}
	compare("pre-compaction")

	stats, err := lg.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Live != n {
		t.Fatalf("compaction kept %d live records, want %d", stats.Live, n)
	}
	if stats.BytesAfter >= stats.BytesBefore {
		t.Fatalf("compaction did not shrink the store: %d -> %d", stats.BytesBefore, stats.BytesAfter)
	}
	compare("post-compaction")

	// And across a reopen of the compacted store.
	lgDir := lg.Dir()
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	lg2, err := store.OpenLogFS(lgDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer lg2.Close()
	for i, key := range keys {
		_, _, rawD, _ := dir.GetByKey(key)
		_, _, rawL, ok := lg2.GetByKey(key)
		if !ok || !bytes.Equal(rawD, rawL) {
			t.Fatalf("reopen: key %d bytes differ or missing", i)
		}
	}
	if st := lg2.Stats(); st.GarbageBytes != 0 || st.Entries != n {
		t.Fatalf("reopened compacted store reports %+v", st)
	}
}
