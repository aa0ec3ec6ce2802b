package store

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/explore"
)

// This file is the query plane over the verdict warehouse: list and
// filter stored verdicts, aggregate pass rates per campaign, and diff
// two campaign reports cell by cell. Everything is built on
// Interface.Scan and the persisted campaign manifests, so the same
// answers come back from either engine, from ccserve's /v1/verdicts
// and /v1/campaigns endpoints, and from cccheck -mode query offline.

// Filter selects stored verdicts. Zero-valued fields match
// everything; set fields must equal the entry's canonical spec field
// (or, for Verdict, the result's verdict class).
type Filter struct {
	Alg      string `json:"alg,omitempty"`
	Topo     string `json:"topo,omitempty"`
	Daemon   string `json:"daemon,omitempty"`
	Init     string `json:"init,omitempty"`
	Mutation string `json:"mutation,omitempty"`
	// Verdict selects by result class: verified | bounded | violated.
	Verdict string `json:"verdict,omitempty"`
}

// ParseFilter parses the filter grammar the HTTP API and cccheck
// share: a comma-separated list of key=value pairs over the keys
// alg, topo, daemon, init, mutation, verdict — e.g.
// "alg=cc2,topo=ring:3,verdict=violated". Values take the same
// aliases the spec fields do (they are canonicalized before
// matching). An empty string is the match-all filter.
func ParseFilter(s string) (Filter, error) {
	var f Filter
	if strings.TrimSpace(s) == "" {
		return f, nil
	}
	for _, part := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || v == "" {
			return f, fmt.Errorf("store: bad filter element %q (want key=value)", part)
		}
		v = strings.ToLower(strings.TrimSpace(v))
		switch strings.ToLower(strings.TrimSpace(k)) {
		case "alg":
			f.Alg = v
		case "topo":
			f.Topo = v
		case "daemon":
			f.Daemon = v
		case "init":
			f.Init = v
		case "mutation":
			f.Mutation = v
		case "verdict":
			switch v {
			case "verified", "bounded", "violated":
				f.Verdict = v
			default:
				return f, fmt.Errorf("store: bad verdict %q (verified|bounded|violated)", v)
			}
		default:
			return f, fmt.Errorf("store: unknown filter key %q (alg|topo|daemon|init|mutation|verdict)", k)
		}
	}
	return f, nil
}

// canonicalize runs the filter's spec-shaped fields through the same
// alias resolution specs get, so "daemon=sync" matches entries stored
// as "synchronous".
func (f Filter) canonicalize() Filter {
	c := JobSpec{Alg: f.Alg, Topo: f.Topo, Daemon: f.Daemon, Init: f.Init, Mutation: f.Mutation}.Canonical()
	out := f
	out.Alg = c.Alg
	out.Topo = c.Topo
	if f.Daemon != "" {
		out.Daemon = c.Daemon
	}
	if f.Init != "" {
		out.Init = c.Init
	}
	out.Mutation = c.Mutation
	return out
}

// Match reports whether a canonical spec with the given verdict class
// passes the filter.
func (f Filter) Match(spec JobSpec, verdict string) bool {
	c := f.canonicalize()
	if c.Alg != "" && spec.Alg != c.Alg {
		return false
	}
	if c.Topo != "" && spec.Topo != c.Topo {
		return false
	}
	if c.Daemon != "" && spec.Daemon != c.Daemon {
		return false
	}
	if c.Init != "" && spec.Init != c.Init {
		return false
	}
	if c.Mutation != "" && spec.Mutation != c.Mutation {
		return false
	}
	if c.Verdict != "" && verdict != c.Verdict {
		return false
	}
	return true
}

// VerdictRow is one stored verdict as the query plane renders it.
type VerdictRow struct {
	Key         string  `json:"key"`
	Spec        JobSpec `json:"spec"`
	Verdict     string  `json:"verdict"`
	Inits       int     `json:"inits"`
	States      int     `json:"states"`
	Transitions int64   `json:"transitions"`
	Violations  int     `json:"violations"`
}

func rowFromResult(key string, spec JobSpec, res *explore.Result) VerdictRow {
	return VerdictRow{
		Key:         key,
		Spec:        spec,
		Verdict:     res.Verdict(),
		Inits:       res.Inits,
		States:      res.States,
		Transitions: res.Transitions,
		Violations:  len(res.Violations),
	}
}

// List returns every stored verdict passing the filter, in key order
// — deterministic for a given warehouse content, whichever engine
// holds it and however many workers filled it.
func List(st Interface, f Filter) ([]VerdictRow, error) {
	rows := []VerdictRow{}
	err := scanResults(st, func(key string, spec JobSpec, res *explore.Result, _ []byte) error {
		if f.Match(spec, res.Verdict()) {
			rows = append(rows, rowFromResult(key, spec, res))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// scanResults is Scan with every result decoded once: an engine hands
// over the result its key check already decoded, and any other
// Interface (a wrapper around one) is scanned and decoded here.
func scanResults(st Interface, fn func(key string, spec JobSpec, res *explore.Result, raw []byte) error) error {
	if rs, ok := st.(interface {
		scanResults(func(key string, spec JobSpec, res *explore.Result, raw []byte) error) error
	}); ok {
		return rs.scanResults(fn)
	}
	return st.Scan(func(key string, spec JobSpec, result []byte) error {
		var res explore.Result
		if json.Unmarshal(result, &res) != nil {
			return nil // Scan already validated the checksum; treat residual damage as a miss
		}
		return fn(key, spec, &res, result)
	})
}

// Summary aggregates one campaign's cells (or any key set) by verdict
// class. PassRate is the fraction of present cells that did not
// produce a violation — verified and bounded cells both count as
// passing, matching the exit-code policy (violations outrank bounds).
type Summary struct {
	Campaign string         `json:"campaign,omitempty"`
	Cells    int            `json:"cells"`
	Present  int            `json:"present"`
	Missing  int            `json:"missing"`
	Verified int            `json:"verified"`
	Bounded  int            `json:"bounded"`
	Violated int            `json:"violated"`
	PassRate float64        `json:"pass_rate"`
	ByAlg    map[string]int `json:"by_alg,omitempty"`
	ByTopo   map[string]int `json:"by_topo,omitempty"`
}

// Summarize aggregates the verdicts stored under the given keys.
// Keys without a stored verdict count as missing (the campaign is
// still running, or its cache was wiped); duplicates are counted each
// time, mirroring the manifest.
func Summarize(st Interface, keys []string) Summary {
	s := Summary{Cells: len(keys), ByAlg: map[string]int{}, ByTopo: map[string]int{}}
	for _, key := range keys {
		spec, res, _, ok := st.GetByKey(key)
		if !ok {
			s.Missing++
			continue
		}
		s.Present++
		s.ByAlg[spec.Alg]++
		s.ByTopo[spec.Topo]++
		switch res.Verdict() {
		case "verified":
			s.Verified++
		case "bounded":
			s.Bounded++
		case "violated":
			s.Violated++
		}
	}
	if s.Present > 0 {
		s.PassRate = float64(s.Present-s.Violated) / float64(s.Present)
	}
	if len(s.ByAlg) == 0 {
		s.ByAlg = nil
	}
	if len(s.ByTopo) == 0 {
		s.ByTopo = nil
	}
	return s
}

// CampaignSummary aggregates a persisted campaign manifest.
func CampaignSummary(st Interface, id string) (Summary, error) {
	keys, ok := st.GetCampaign(id)
	if !ok {
		return Summary{}, fmt.Errorf("store: unknown campaign %q", id)
	}
	s := Summarize(st, keys)
	s.Campaign = id
	return s, nil
}

// DiffRow is one cell-by-cell comparison between two campaigns,
// aligned by expansion position. A missing side (shorter campaign, or
// a cell with no stored verdict) has an empty verdict.
type DiffRow struct {
	Index    int     `json:"index"`
	KeyA     string  `json:"key_a,omitempty"`
	KeyB     string  `json:"key_b,omitempty"`
	Spec     JobSpec `json:"spec"`
	VerdictA string  `json:"verdict_a"`
	VerdictB string  `json:"verdict_b"`
	Equal    bool    `json:"equal"`
}

// Diff is the cell-by-cell comparison of two campaigns.
type Diff struct {
	A     string `json:"a"`
	B     string `json:"b"`
	Cells int    `json:"cells"`
	// Equal counts rows where both sides are present with the same
	// verdict; Differing counts everything else (including cells only
	// one side has).
	Equal     int       `json:"equal"`
	Differing int       `json:"differing"`
	Rows      []DiffRow `json:"rows"`
}

// DiffCampaigns compares two persisted campaigns cell by cell in
// expansion order.
func DiffCampaigns(st Interface, a, b string) (*Diff, error) {
	keysA, ok := st.GetCampaign(a)
	if !ok {
		return nil, fmt.Errorf("store: unknown campaign %q", a)
	}
	keysB, ok := st.GetCampaign(b)
	if !ok {
		return nil, fmt.Errorf("store: unknown campaign %q", b)
	}
	return DiffCells(st, a, b, keysA, keysB), nil
}

// DiffCells is DiffCampaigns over explicit key lists — the serving
// tier resolves campaigns from memory or manifests before calling it.
// The spec column comes from whichever side has the cell (A
// preferred) so a human can see what differs, not just that something
// does.
func DiffCells(st Interface, a, b string, keysA, keysB []string) *Diff {
	n := max(len(keysA), len(keysB))
	d := &Diff{A: a, B: b, Cells: n, Rows: make([]DiffRow, 0, n)}
	for i := 0; i < n; i++ {
		row := DiffRow{Index: i}
		var haveSpec bool
		if i < len(keysA) {
			row.KeyA = keysA[i]
			if spec, res, _, ok := st.GetByKey(keysA[i]); ok {
				row.VerdictA = res.Verdict()
				row.Spec, haveSpec = spec, true
			}
		}
		if i < len(keysB) {
			row.KeyB = keysB[i]
			if spec, res, _, ok := st.GetByKey(keysB[i]); ok {
				row.VerdictB = res.Verdict()
				if !haveSpec {
					row.Spec = spec
				}
			}
		}
		row.Equal = row.VerdictA != "" && row.VerdictA == row.VerdictB && row.KeyA != "" && row.KeyB != ""
		if row.Equal {
			d.Equal++
		} else {
			d.Differing++
		}
		d.Rows = append(d.Rows, row)
	}
	return d
}
