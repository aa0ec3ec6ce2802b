package store_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/campaign"
	"repro/internal/store"
)

func open(t *testing.T) *store.DirStore {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func smallSpec() store.JobSpec {
	return store.JobSpec{Alg: "cc2", Topo: "ring:3", Daemon: "central", Init: "legit"}
}

// TestKeyCanonicalization: every alias and default spelling of the
// same job must share a content key; semantic differences must not.
func TestKeyCanonicalization(t *testing.T) {
	base := smallSpec()
	same := []store.JobSpec{
		{Alg: "CC2", Topo: " ring:3 ", Daemon: "central", Init: "legit"},
		{Alg: "cc2", Topo: "ring:3", Daemon: "Central", Init: "legit", MaxStates: 2_000_000},
		{Alg: "cc2", Topo: "ring:3", Daemon: "central", Init: "legit", MaxBranch: 1 << 16, MaxViolations: 3},
		// Seed and RandomInits are irrelevant off the random families.
		{Alg: "cc2", Topo: "ring:3", Daemon: "central", Init: "legit", Seed: 99, RandomInits: 7},
	}
	for i, s := range same {
		if s.Key() != base.Key() {
			t.Errorf("spec %d: key %s != base %s", i, s.Key(), base.Key())
		}
	}
	aliased := [][2]store.JobSpec{
		{{Alg: "cc2", Topo: "ring:3", Daemon: "sync"}, {Alg: "cc2", Topo: "ring:3", Daemon: "synchronous"}},
		{{Alg: "cc2", Topo: "ring:3", Daemon: "all"}, {Alg: "cc2", Topo: "ring:3", Daemon: "all-subsets"}},
		{{Alg: "cc2", Topo: "ring:3", Daemon: ""}, {Alg: "cc2", Topo: "ring:3", Daemon: "all-subsets"}},
		{{Alg: "cc2", Topo: "figure3", Daemon: "central"}, {Alg: "cc2", Topo: "fig3", Daemon: "central"}},
		{{Alg: "cc2", Topo: "ring:3", Daemon: "central", Init: ""}, {Alg: "cc2", Topo: "ring:3", Daemon: "central", Init: "cc-full"}},
		{{Alg: "dining", Topo: "ring:3", Daemon: "central", Init: ""}, {Alg: "dining", Topo: "ring:3", Daemon: "central", Init: "legit"}},
		{{Alg: "cc2", Topo: "ring:3", Daemon: "central", Mutation: "none"}, {Alg: "cc2", Topo: "ring:3", Daemon: "central"}},
	}
	for i, pair := range aliased {
		if pair[0].Key() != pair[1].Key() {
			t.Errorf("alias pair %d: keys differ:\n%+v\n%+v", i, pair[0].Canonical(), pair[1].Canonical())
		}
	}
	distinct := []store.JobSpec{
		{Alg: "cc1", Topo: "ring:3", Daemon: "central", Init: "legit"},
		{Alg: "cc2", Topo: "ring:4", Daemon: "central", Init: "legit"},
		{Alg: "cc2", Topo: "ring:3", Daemon: "synchronous", Init: "legit"},
		{Alg: "cc2", Topo: "ring:3", Daemon: "central", Init: "cc"},
		{Alg: "cc2", Topo: "ring:3", Daemon: "central", Init: "legit", MaxStates: 100},
		{Alg: "cc2", Topo: "ring:3", Daemon: "central", Init: "legit", Symmetry: true},
		{Alg: "cc2", Topo: "ring:3", Daemon: "central", Init: "legit", Mutation: "leave-early"},
		{Alg: "cc2", Topo: "ring:3", Daemon: "central", Init: "random", Seed: 2},
		{Alg: "cc2", Topo: "ring:3", Daemon: "central", Init: "random", Seed: 3},
	}
	seen := map[string]int{base.Key(): -1}
	for i, s := range distinct {
		k := s.Key()
		if j, dup := seen[k]; dup {
			t.Errorf("distinct specs %d and %d share a key", i, j)
		}
		seen[k] = i
	}
	// Pinned keys, one row per field that reaches the key: existing
	// caches stay valid only while these bytes do not move.
	for _, tc := range []struct {
		spec store.JobSpec
		key  string
	}{
		{store.JobSpec{Alg: "cc2", Topo: "ring:3", Daemon: "central", Init: "random", RandomInits: 16, Seed: 5}, "e58ad74e0e6138e0a28b4c0635d38e63fe3296e5237f5c129e4e5f8076096cf1"},
		{store.JobSpec{Alg: "cc1", Topo: "scenario:8", Daemon: "synchronous", Init: "cc", Seed: 9}, "e743b88cce4f6f7bc16d94aba458f969ea5bcfc3ae6ccffb0f5ddf4fddaa47a2"},
		{store.JobSpec{Alg: "cc2", Topo: "ring:3", Daemon: "central", Init: "legit", MaxStates: -1}, "6c07dc9c0085edac71a610538e24f8514b3d43776a09673ec02ad7d711d316c2"},
		{store.JobSpec{Alg: "cc2", Topo: "ring:3", Daemon: "central", Init: "legit", MaxDepth: 7}, "07753a5462eb7a3040bde4621a8e616081bb427d5b804c4de66243e4f068a583"},
		{store.JobSpec{Alg: "cc2", Topo: "ring:3", Daemon: "central", Init: "legit", MaxBranch: 12}, "6b15bee1cf7266ae801594a43ef53e6335fb39931d150a709dd3cdbf32d25776"},
		{store.JobSpec{Alg: "cc2", Topo: "ring:3", Daemon: "central", Init: "legit", MaxViolations: 9}, "e32ad75143fcaf0d05dd57ec86ca5a4dc49a9355e0aad0bd6026ce12e0ef8de9"},
		{store.JobSpec{Alg: "token-ring", Topo: "ring:4", Daemon: "central", Init: "legit", Symmetry: true}, "179c1e6e9ffb547f62517fc237229aa1e5d469ac567aca22c2ee8672b919f153"},
		{store.JobSpec{Alg: "cc3", Topo: "fig1", Daemon: "all-subsets", Init: "cc", Mutation: "skip-stab"}, "008ae264d5e3f4992da787c5eea9924014faba12e09e0805ba624d214d3df59e"},
		{store.JobSpec{Alg: "cc2", Topo: "ring:3", Daemon: "synchronous", Init: "legit", NoDeadlock: true}, "6b526645f868d13a15e04ab7e3fe9d074f8edba48a5ed3fb28eb8bf7b4bf78cb"},
	} {
		if got := tc.spec.Key(); got != tc.key {
			t.Errorf("%+v: key %s, pinned %s", tc.spec, got, tc.key)
		}
	}
}

// TestAPIDocListsEveryJobField: docs/api.md's job-spec field table
// names exactly JobSpec's JSON fields, in declaration order, so a knob
// cannot be added or dropped without its documented default and
// canonical form moving with it.
func TestAPIDocListsEveryJobField(t *testing.T) {
	doc, err := os.ReadFile("../../docs/api.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n### Job-spec fields\n")
	if !ok {
		t.Fatal("docs/api.md has no Job-spec fields section")
	}
	section, _, _ = strings.Cut(section, "\n#")
	var documented []string
	for _, m := range regexp.MustCompile("(?m)^\\| `([a-z_]+)` \\|").FindAllStringSubmatch(section, -1) {
		documented = append(documented, m[1])
	}
	var fields []string
	typ := reflect.TypeFor[store.JobSpec]()
	for i := range typ.NumField() {
		name, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
		fields = append(fields, name)
	}
	if !slices.Equal(documented, fields) {
		t.Fatalf("docs/api.md job-spec table differs from store.JobSpec:\ndocumented %q\nfields     %q", documented, fields)
	}
}

// TestRoundTripByteIdentical: Put → Get returns the decoded result,
// the exact bytes written, and re-persisting the decoded result writes
// the same bytes again — the property that makes cached verdicts
// indistinguishable from fresh ones on the wire.
func TestRoundTripByteIdentical(t *testing.T) {
	st := open(t)
	spec := smallSpec()
	res, err := campaign.Execute(spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	raw1, err := st.Put(spec, res)
	if err != nil {
		t.Fatal(err)
	}
	got, raw2, ok := st.Get(spec)
	if !ok {
		t.Fatal("miss after Put")
	}
	if !bytes.Equal(raw1, raw2) {
		t.Fatal("Get bytes differ from Put bytes")
	}
	if got.Verdict() != res.Verdict() || got.States != res.States || got.Transitions != res.Transitions {
		t.Fatalf("decoded result differs: %s vs %s", got.Summary(), res.Summary())
	}
	raw3, err := st.Put(spec, got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw1, raw3) {
		t.Fatal("re-persisting the decoded result is not byte-identical")
	}
	// An alias spelling reads the same entry.
	if _, raw4, ok := st.Get(store.JobSpec{Alg: "CC2", Topo: "ring:3", Daemon: "central", Init: "legit", Seed: 42}); !ok || !bytes.Equal(raw1, raw4) {
		t.Fatal("alias spelling missed the cached entry")
	}
}

// TestRoundTripWithTraces: counterexample traces (selections, keys,
// rendered configs) survive the JSON round trip byte-identically.
func TestRoundTripWithTraces(t *testing.T) {
	st := open(t)
	spec := store.JobSpec{Alg: "cc2", Topo: "ring:3", Daemon: "central", Init: "legit", Mutation: "leave-early", MaxViolations: 2}
	res, err := campaign.Execute(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ok() {
		t.Fatal("mutated run found no violations — nothing to round-trip")
	}
	raw1, err := st.Put(spec, res)
	if err != nil {
		t.Fatal(err)
	}
	got, raw2, ok := st.Get(spec)
	if !ok || !bytes.Equal(raw1, raw2) {
		t.Fatal("trace round trip not byte-identical")
	}
	if len(got.Violations) != len(res.Violations) || len(got.Violations[0].Trace) != len(res.Violations[0].Trace) {
		t.Fatal("traces lost in round trip")
	}
}

// TestGetByKey: the key alone recovers the entry (the serving layer's
// eviction/re-hydration path), with the same bytes, and rejects keys
// whose entry does not hash back.
func TestGetByKey(t *testing.T) {
	st := open(t)
	spec := smallSpec()
	res, err := campaign.Execute(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := st.Put(spec, res)
	if err != nil {
		t.Fatal(err)
	}
	gotSpec, gotRes, raw2, ok := st.GetByKey(spec.Key())
	if !ok || !bytes.Equal(raw, raw2) || gotRes.States != res.States {
		t.Fatal("GetByKey did not recover the entry byte-identically")
	}
	if gotSpec.Key() != spec.Key() {
		t.Fatal("GetByKey returned a foreign spec")
	}
	if _, _, _, ok := st.GetByKey("deadbeef00"); ok {
		t.Fatal("unknown key served")
	}
	if _, _, _, ok := st.GetByKey(""); ok {
		t.Fatal("empty key served")
	}
	// An entry copied under the wrong key must not be served.
	wrong := store.JobSpec{Alg: "cc1", Topo: "ring:3", Daemon: "central", Init: "legit"}.Key()
	src, _ := os.ReadFile(entryPath(t, st, spec))
	dst := filepath.Join(st.Dir(), wrong[:2], wrong+".json")
	os.MkdirAll(filepath.Dir(dst), 0o755)
	os.WriteFile(dst, src, 0o644)
	if _, _, _, ok := st.GetByKey(wrong); ok {
		t.Fatal("entry under a mismatched key served")
	}
}

func entryPath(t *testing.T, st store.Interface, spec store.JobSpec) string {
	t.Helper()
	key := spec.Key()
	return filepath.Join(st.Dir(), key[:2], key+".json")
}

// TestVersionInvalidation: an entry written by a different format
// version is a miss, not an error.
func TestVersionInvalidation(t *testing.T) {
	st := open(t)
	spec := smallSpec()
	res, err := campaign.Execute(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Put(spec, res); err != nil {
		t.Fatal(err)
	}
	path := entryPath(t, st, spec)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mangled := bytes.Replace(data, []byte(fmt.Sprintf(`"version":%d`, store.Version)), []byte(`"version":999`), 1)
	if bytes.Equal(mangled, data) {
		t.Fatal("version field not found in entry")
	}
	if err := os.WriteFile(path, mangled, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := st.Get(spec); ok {
		t.Fatal("version-mismatched entry served as a hit")
	}
}

// TestSpecMismatchInvalidation: an entry whose embedded spec is not the
// requested one (hash collision, canonicalization drift) is a miss.
func TestSpecMismatchInvalidation(t *testing.T) {
	st := open(t)
	spec := smallSpec()
	res, err := campaign.Execute(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Put(spec, res); err != nil {
		t.Fatal(err)
	}
	path := entryPath(t, st, spec)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var e map[string]json.RawMessage
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatal(err)
	}
	other := store.JobSpec{Alg: "cc1", Topo: "ring:3", Daemon: "central", Init: "legit"}.Canonical()
	e["spec"], _ = json.Marshal(other)
	mangled, _ := json.Marshal(e)
	if err := os.WriteFile(path, mangled, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := st.Get(spec); ok {
		t.Fatal("spec-mismatched entry served as a hit")
	}
}

// TestCorruptedEntries: garbage, truncation and unparseable results
// all read as misses, and a fresh Put repairs the entry.
func TestCorruptedEntries(t *testing.T) {
	st := open(t)
	spec := smallSpec()
	res, err := campaign.Execute(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := st.Put(spec, res)
	if err != nil {
		t.Fatal(err)
	}
	path := entryPath(t, st, spec)
	good, _ := os.ReadFile(path)
	for name, data := range map[string][]byte{
		"garbage":    []byte("not json at all"),
		"empty":      {},
		"truncated":  good[:len(good)/2],
		"bad-result": []byte(`{"version": 1, "spec": ` + string(mustJSON(spec.Canonical())) + `, "result": {"Violations": "not-an-array"}}`),
	} {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, ok := st.Get(spec); ok {
			t.Fatalf("%s entry served as a hit", name)
		}
	}
	raw2, err := st.Put(spec, res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, raw2) {
		t.Fatal("repair Put not byte-identical")
	}
	if _, _, ok := st.Get(spec); !ok {
		t.Fatal("repaired entry still missing")
	}
}

func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return data
}

// TestMissAndErrors: a fresh store misses; Open rejects an empty dir
// path; no temp files survive Puts.
func TestMissAndErrors(t *testing.T) {
	st := open(t)
	if _, _, ok := st.Get(smallSpec()); ok {
		t.Fatal("fresh store claims a hit")
	}
	if _, err := store.Open(""); err == nil {
		t.Fatal("Open(\"\") should fail")
	}
	res, err := campaign.Execute(smallSpec(), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Concurrent Puts of the same entry must not tear it.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := st.Put(smallSpec(), res); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if _, _, ok := st.Get(smallSpec()); !ok {
		t.Fatal("entry missing after concurrent Puts")
	}
	if st.Len() != 1 {
		t.Fatalf("Len = %d, want 1", st.Len())
	}
	filepath.WalkDir(st.Dir(), func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasPrefix(filepath.Base(path), ".put-") {
			t.Errorf("leftover temp file %s", path)
		}
		return nil
	})
}
