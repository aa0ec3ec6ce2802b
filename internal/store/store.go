// Package store is the content-addressed verdict warehouse shared by
// the CLI (cccheck -cache, every mode) and the ccserve HTTP
// service: one exhaustive-verification job — an (algorithm, topology,
// daemon branching, init family, bounds, symmetry, mutation) tuple —
// is canonicalized into a stable hash key, and its explore.Result
// (verdict, counts, counterexample traces) is persisted as JSON under
// that key. Re-running the same job anywhere — another CLI invocation,
// another process, the server — returns the stored verdict byte for
// byte instead of recomputing it, which is what makes huge campaign
// grids resumable and the service's repeated queries O(1).
//
// Two engines implement the same narrow Interface and persist the
// same entry bytes; OpenEngine opens a directory in the layout it
// already holds and starts a fresh one as a DirStore unless told
// otherwise (ccserve -store-engine log):
//
//   - DirStore (the original, and the differential oracle): one file
//     per verdict at DIR/<kk>/<key>.json where kk is the first two hex
//     digits of the key (fan-out so directories stay small).
//   - LogStore: append-only segment files under DIR/segments/ holding
//     checksummed records, a sparse in-memory index rebuilt from a
//     segment scan on open, and compaction (explicit or background)
//     that drops superseded and corrupted records. Built for campaign
//     fleets that produce millions of small verdicts: a Put is one
//     appended record, not one file.
//
// Each entry embeds the format version, the canonical spec it answers
// and an FNV-64a checksum over spec+result; Get treats a version
// mismatch, a spec mismatch (hash collision or format drift) or a
// corrupted artifact as a miss, never an error — the cache is an
// accelerator, not a source of truth. A corrupted artifact (bad JSON,
// checksum mismatch) is additionally preserved under DIR/quarantine/
// for diagnosis but never consulted again. Writes are atomic or
// append-then-fsync, and transient failures (ENOSPC, EIO) are retried
// under a bounded exponential-backoff policy, so a killed or
// fault-ridden campaign leaves only complete entries behind and a
// concurrent reader never observes a torn verdict. All file I/O goes
// through a chaos.FS, which is how the chaos battery drives this
// package through injected faults (see docs/robustness.md).
//
// On top of the engines sits the query plane (Filter, List, Summarize,
// DiffCampaigns): campaign manifests persisted by PutCampaign make
// pass-rate aggregation and campaign diffing work offline and across
// restarts, exposed through ccserve's /v1/verdicts and /v1/campaigns
// endpoints and cccheck -mode query (see docs/api.md).
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strings"

	"repro/internal/chaos"
	"repro/internal/explore"
)

// Version is the entry-format version. Bump it whenever the JobSpec
// canonicalization or the explore.Result JSON shape changes
// incompatibly: every existing entry then reads as a miss and is
// recomputed rather than served stale.
//
// v2: results persisted by campaign.Execute carry StateBytes == 0
// (the retained-footprint measurement is process-local — it differs
// between a resumed and an uninterrupted run, and between an
// out-of-core and an in-memory one — so it cannot be part of
// byte-identical verdict bytes).
//
// v3: entries carry an FNV-64a checksum over canonical spec + result
// bytes, so silent corruption at rest (a bit flip inside otherwise
// valid JSON) is detected and quarantined instead of served as a
// wrong verdict.
const Version = 3

// QuarantineDir is the subdirectory of the cache root that corrupted
// artifacts are moved into.
const QuarantineDir = "quarantine"

// JobSpec identifies one exhaustive-verification job. The zero value
// of every optional field means "the default"; Canonical resolves
// aliases and fills defaults so that two spellings of the same job
// hash to the same key.
type JobSpec struct {
	// Alg is the algorithm: cc1 | cc2 | cc3 | dining | token-ring.
	Alg string `json:"alg"`
	// Topo is a hypergraph.Parse topology spec (e.g. ring:3, star:4).
	Topo string `json:"topo"`
	// Daemon is the branching mode: central | synchronous (alias sync)
	// | all-subsets (alias all).
	Daemon string `json:"daemon"`
	// Init is the initial-configuration family: legit | cc | cc-full |
	// random. Empty defaults to cc-full for the CC algorithms and legit
	// for the baselines (their only supported family).
	Init string `json:"init"`
	// RandomInits is the configuration count for Init == "random"
	// (default 256; canonicalized to 0 otherwise).
	RandomInits int `json:"random_inits,omitempty"`
	// Seed feeds Init == "random" and the random topology families
	// (default 1; canonicalized to 0 when neither consumes it).
	Seed int64 `json:"seed,omitempty"`
	// MaxStates bounds distinct configurations: 0 = the default
	// (2,000,000), negative = unlimited (canonicalized to -1).
	MaxStates int `json:"max_states"`
	// MaxDepth bounds the BFS depth (0 = unlimited).
	MaxDepth int `json:"max_depth,omitempty"`
	// MaxBranch bounds successors per configuration (default 65536).
	MaxBranch int `json:"max_branch"`
	// MaxViolations stops the run after this many counterexamples
	// (default 3).
	MaxViolations int `json:"max_violations"`
	// Symmetry explores modulo the model's declared automorphism group.
	Symmetry bool `json:"symmetry,omitempty"`
	// Mutation deliberately breaks a guard (leave-early | skip-stab);
	// CC algorithms only.
	Mutation string `json:"mutation,omitempty"`
	// NoDeadlock skips treating terminal configurations as violations.
	NoDeadlock bool `json:"no_deadlock,omitempty"`
}

// DefaultMaxStates is the distinct-configuration bound applied when
// JobSpec.MaxStates is zero (matches the cccheck default).
const DefaultMaxStates = 2_000_000

// randomTopoFamilies are the hypergraph.Parse families that draw from
// the seed; for every other topology the seed is irrelevant to the
// result and canonicalized away.
var randomTopoFamilies = map[string]bool{
	"kuniform": true, "mixed": true, "bipartite": true,
	"density": true, "scenario": true,
}

// topoAliases maps hypergraph.Parse spellings to one canonical form.
var topoAliases = map[string]string{
	"figure1": "fig1", "figure2": "fig2", "figure3": "fig3", "figure4": "fig4",
}

// RandomTopo reports whether the (canonical) topology spec names a
// random family, i.e. consumes the seed.
func RandomTopo(topo string) bool {
	name, _, _ := strings.Cut(topo, ":")
	return randomTopoFamilies[name]
}

// Canonical returns the spec with aliases resolved, defaults filled
// and irrelevant fields zeroed, so that every spelling of the same job
// produces the same Key. It performs no semantic validation (that is
// campaign.Validate's job); canonicalizing garbage yields garbage with
// a stable key.
func (s JobSpec) Canonical() JobSpec {
	c := s
	c.Alg = strings.ToLower(strings.TrimSpace(c.Alg))
	c.Topo = strings.ToLower(strings.TrimSpace(c.Topo))
	if a, ok := topoAliases[c.Topo]; ok {
		c.Topo = a
	}
	c.Daemon = strings.ToLower(strings.TrimSpace(c.Daemon))
	switch c.Daemon {
	case "sync":
		c.Daemon = "synchronous"
	case "all", "":
		c.Daemon = "all-subsets"
	}
	c.Init = strings.ToLower(strings.TrimSpace(c.Init))
	c.Mutation = strings.ToLower(strings.TrimSpace(c.Mutation))
	if c.Mutation == "none" {
		c.Mutation = ""
	}
	if c.Init == "" {
		if c.Alg == "dining" || c.Alg == "token-ring" {
			c.Init = "legit"
		} else {
			c.Init = "cc-full"
		}
	}
	if c.Init == "random" {
		if c.RandomInits <= 0 {
			c.RandomInits = 256
		}
	} else {
		c.RandomInits = 0
	}
	if c.Init == "random" || RandomTopo(c.Topo) {
		if c.Seed == 0 {
			c.Seed = 1
		}
	} else {
		c.Seed = 0
	}
	switch {
	case c.MaxStates == 0:
		c.MaxStates = DefaultMaxStates
	case c.MaxStates < 0:
		c.MaxStates = -1
	}
	if c.MaxDepth < 0 {
		c.MaxDepth = 0
	}
	if c.MaxBranch <= 0 {
		c.MaxBranch = 1 << 16
	}
	if c.MaxViolations <= 0 {
		c.MaxViolations = 3
	}
	return c
}

// Key returns the content address of the canonicalized spec: the hex
// SHA-256 of its canonical JSON. Identical jobs — under any alias or
// default spelling — share a key; any semantic difference changes it.
func (s JobSpec) Key() string {
	data, err := json.Marshal(s.Canonical())
	if err != nil {
		panic(fmt.Sprintf("store: JobSpec marshal cannot fail: %v", err)) // all fields are plain scalars
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// String renders the spec compactly for progress lines and logs.
func (s JobSpec) String() string {
	c := s.Canonical()
	var b strings.Builder
	fmt.Fprintf(&b, "%s/%s/%s/%s", c.Alg, c.Topo, c.Daemon, c.Init)
	if c.Mutation != "" {
		fmt.Fprintf(&b, "+mutate:%s", c.Mutation)
	}
	if c.Symmetry {
		b.WriteString("+sym")
	}
	return b.String()
}

// CampaignID is the content address of a campaign: the hex SHA-256
// over its cell keys in expansion order. ccserve and cccheck campaign
// mode compute the same id for the same grid, so manifests persisted
// by either are queryable by both.
func CampaignID(keys []string) string {
	sum := sha256.New()
	for _, k := range keys {
		sum.Write([]byte(k))
	}
	return hex.EncodeToString(sum.Sum(nil))
}

// entry is the persisted verdict schema — identical bytes in both
// engines (a DirStore file body and a LogStore record payload), which
// is what makes the engines differentially testable and their Get
// results byte-interchangeable.
type entry struct {
	Version int             `json:"version"`
	Spec    JobSpec         `json:"spec"`
	Sum     string          `json:"sum"`
	Result  json.RawMessage `json:"result"`
}

// entrySum is the integrity checksum persisted with every entry:
// FNV-64a over the canonical spec JSON followed by the result bytes.
// It is an anti-corruption seal (one flipped bit anywhere in spec or
// result breaks it), not a cryptographic commitment — the SHA-256
// content key already plays that role for the spec.
func entrySum(specJSON, result []byte) string {
	h := fnv.New64a()
	h.Write(specJSON)
	h.Write(result)
	return hex.EncodeToString(h.Sum(nil))
}

// encodeEntry marshals the canonical spec and its result into the
// exact entry line both engines persist (compact deterministic JSON
// plus a trailing newline — compact so the raw result passes through
// the entry wrapper verbatim) and the raw result bytes every later
// Get returns.
func encodeEntry(c JobSpec, res *explore.Result) (line, raw []byte, err error) {
	raw, err = json.Marshal(res)
	if err != nil {
		return nil, nil, fmt.Errorf("store: marshal result: %v", err)
	}
	specJSON, err := json.Marshal(c)
	if err != nil {
		return nil, nil, fmt.Errorf("store: marshal spec: %v", err)
	}
	line, err = json.Marshal(entry{Version: Version, Spec: c, Sum: entrySum(specJSON, raw), Result: raw})
	if err != nil {
		return nil, nil, fmt.Errorf("store: marshal entry: %v", err)
	}
	return append(line, '\n'), raw, nil
}

// EncodeEntry renders the exact entry line both engines persist for
// (spec, result): compact deterministic JSON carrying the format
// version, the canonical spec, the FNV-64a integrity sum and the raw
// result bytes. Any two stores holding the same verdict hold these
// bytes identically, which is what lets the gossip plane put a
// checksummed, self-validating entry on the wire.
func EncodeEntry(spec JobSpec, res *explore.Result) ([]byte, error) {
	line, _, err := encodeEntry(spec.Canonical(), res)
	return line, err
}

// ErrEntryDrift reports entry bytes written under a different format
// version — a legitimate peer on an older or newer build, not
// corruption. Callers skip such entries without quarantining them.
var ErrEntryDrift = fmt.Errorf("store: entry format version drift")

// DecodeEntry validates entry bytes received over an untrusted
// channel (a gossip transfer) against the content key they claim to
// answer: the JSON must parse, the format version must match, the
// FNV-64a checksum must cover spec+result, and the embedded spec must
// canonicalize back to exactly key. On success it returns the
// canonical spec and decoded result, ready for a local Put (which
// re-encodes the identical bytes). Damage returns a *chaos.CorruptError
// — quarantine material, never ingestible; version drift returns
// ErrEntryDrift.
func DecodeEntry(key string, data []byte) (JobSpec, *explore.Result, error) {
	e, issue, detail := checkEntry(data)
	switch issue {
	case entryDrift:
		return JobSpec{}, nil, ErrEntryDrift
	case entryCorrupt:
		return JobSpec{}, nil, &chaos.CorruptError{Path: "entry " + key, Detail: detail}
	}
	spec, res, _, ok := matchKey(e, key)
	if !ok {
		return JobSpec{}, nil, &chaos.CorruptError{Path: "entry " + key, Detail: "embedded spec does not hash to the claimed key"}
	}
	return spec, res, nil
}

// entryIssue classifies what checkEntry found.
type entryIssue int

const (
	entryOK      entryIssue = iota
	entryDrift              // older/newer format version: a legitimate miss, never quarantined
	entryCorrupt            // undecodable bytes or checksum mismatch: quarantine material
)

// checkEntry structurally validates entry bytes: JSON must parse, the
// version must match and the checksum must cover spec+result. The
// engines share it so a damaged artifact is classified identically
// whether it sits in its own file or inside a segment record.
func checkEntry(data []byte) (entry, entryIssue, string) {
	var e entry
	if err := json.Unmarshal(data, &e); err != nil {
		return entry{}, entryCorrupt, "undecodable entry: " + err.Error()
	}
	if e.Version != Version {
		return entry{}, entryDrift, ""
	}
	specJSON, _ := json.Marshal(e.Spec)
	if entrySum(specJSON, e.Result) != e.Sum {
		return entry{}, entryCorrupt, "checksum mismatch"
	}
	return e, entryOK, ""
}

// matchSpec is the Get tail shared by both engines: the embedded spec
// must canonicalize to exactly the requested spec (anything else is a
// hash collision or stale canonicalization, served as a miss). JobSpec
// holds plain scalars only, so comparing the structs decides what
// comparing their JSON would.
func matchSpec(e entry, c JobSpec) (*explore.Result, []byte, bool) {
	if e.Spec.Canonical() != c {
		return nil, nil, false
	}
	var res explore.Result
	if err := json.Unmarshal(e.Result, &res); err != nil {
		return nil, nil, false
	}
	return &res, []byte(e.Result), true
}

// matchKey is the GetByKey tail shared by both engines: the embedded
// spec must hash back to the key it was found under.
func matchKey(e entry, key string) (JobSpec, *explore.Result, []byte, bool) {
	c := e.Spec.Canonical()
	if c.Key() != key {
		return JobSpec{}, nil, nil, false
	}
	var res explore.Result
	if json.Unmarshal(e.Result, &res) != nil {
		return JobSpec{}, nil, nil, false
	}
	return c, &res, []byte(e.Result), true
}

// scanKeys is the Scan loop shared by both engines: each key's entry
// is read, checked against the key and handed over with its result
// decoded, once.
func scanKeys(keys []string, read func(key string) (entry, bool), fn func(key string, spec JobSpec, res *explore.Result, raw []byte) error) error {
	for _, key := range keys {
		e, ok := read(key)
		if !ok {
			continue
		}
		c, res, raw, ok := matchKey(e, key)
		if !ok {
			continue
		}
		if err := fn(key, c, res, raw); err != nil {
			return err
		}
	}
	return nil
}
