package campaign_test

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/campaign"
)

func TestParseBytes(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int64
	}{
		{"", 0},
		{"0", 0},
		{"4096", 4096},
		{"1K", 1 << 10},
		{"256M", 256 << 20},
		{"2G", 2 << 30},
		{"2g", 2 << 30},
		{"512MB", 512 << 20},
		{"  1kb ", 1 << 10},
	} {
		got, err := campaign.ParseBytes("mem-budget", tc.in)
		if err != nil {
			t.Errorf("ParseBytes(%q): %v", tc.in, err)
		} else if got != tc.want {
			t.Errorf("ParseBytes(%q) = %d, want %d", tc.in, got, tc.want)
		}
	}
	for _, bad := range []string{"x", "-1", "1.5G", "99999999999G", "M", "KB"} {
		if _, err := campaign.ParseBytes("mem-budget", bad); err == nil {
			t.Errorf("ParseBytes(%q) accepted", bad)
		}
	}
}

func TestParseSpecStrict(t *testing.T) {
	s, err := campaign.ParseSpec("cc1,cc2", "ring:3", "central,synchronous", "legit", "none,leave-early")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Algs) != 2 || len(s.Daemons) != 2 || len(s.Mutations) != 2 {
		t.Fatalf("unexpected grid: %+v", s)
	}
	// One bad list anywhere fails the whole parse, whichever flag it is.
	for _, tc := range [][5]string{
		{"cc1,,cc2", "ring:3", "", "", ""},
		{"cc1", "ring:3,", "", "", ""},
		{"cc1", "ring:3", " , ", "", ""},
		{"cc1", "ring:3", "", ",legit", ""},
		{"cc1", "ring:3", "", "", "none,"},
	} {
		if _, err := campaign.ParseSpec(tc[0], tc[1], tc[2], tc[3], tc[4]); err == nil {
			t.Errorf("ParseSpec(%q,%q,%q,%q,%q) accepted", tc[0], tc[1], tc[2], tc[3], tc[4])
		}
	}
}

// TestCampaignBodyCompat: POST /v1/campaigns bodies that between them
// set every job field expand to exactly the cells — same content keys,
// same order — that they expanded to when campaign.Spec declared its
// own copy of each scalar. The keys were generated by that earlier
// Spec; a scalar the template failed to carry into the grid would
// change them.
func TestCampaignBodyCompat(t *testing.T) {
	for _, tc := range []struct {
		body string
		keys []string
	}{
		{
			`{"algs":["cc2"],"topos":["disjoint:2,2"],"daemons":["central","sync"],"inits":["cc","legit"],"mutations":["none","leave-early"],` +
				`"random_inits":8,"seed":7,"max_states":1000,"max_depth":5,"max_branch":100,"max_violations":2,"symmetry":true,"no_deadlock":true}`,
			[]string{
				"13a1ae57cf5d927ca3feaa0632851c2ed74420183aba13baac6e5a7266066b0a",
				"189f06c8ffd9cd0fabb343e2e92471a5f47aa7d76e2c276ed09950a0581941c8",
				"0407d519c1f2bf58c9a78f40b7b816f3feb4299ab7a73a866611db174fb62149",
				"29d7c5fa7f7b5edf51a31591f566c476e2917da69f82cb80e7e62b45e5205ded",
				"bcf5adf9f1a80a9351d7157a6e7734129a5dace1e49035f46fcdbd9e79cd4dbf",
				"148b073799d3874080a796fa9c2a93d1723d292cfdd389d51b9db509d82ca746",
				"26c8cd28b5772dfb72f74a132826a8d1e0f65d49d26ab26ec32be7ba94b5ea40",
				"6b5c602a1b8c09598365134fb63a521db6303e2d1c45ce92db808b5b278ed3d3",
			},
		},
		{
			// random_inits and seed only reach the key under -init random
			// (and seed under a random topology family).
			`{"algs":["cc1","cc3"],"topos":["ring:3","scenario:8"],"daemons":["all"],"inits":["random"],` +
				`"random_inits":8,"seed":7,"max_states":-1,"max_depth":9,"max_branch":50,"max_violations":1,"no_deadlock":true}`,
			[]string{
				"f3fc56f77aace4245683d2e9833b6d1908a1a2fe8c40e328397ba6576e2d1881",
				"b4465dd4284395ed319bb746063c34ed28b7528ad455b6a027e39cef75e335b2",
				"9ad916f162baa6d40e213167edc7e3783af939d9967846c34ce8d6d409bc5ba2",
				"b4d9de3a5b671f6a6b7be4d61e637b3f9655229b6824cb10cbcf4ffa857c4549",
			},
		},
	} {
		var s campaign.Spec
		dec := json.NewDecoder(strings.NewReader(tc.body))
		dec.DisallowUnknownFields() // as ccserve decodes it
		if err := dec.Decode(&s); err != nil {
			t.Fatalf("%s: %v", tc.body, err)
		}
		cells, err := s.Expand()
		if err != nil {
			t.Fatalf("%s: %v", tc.body, err)
		}
		var got []string
		for _, c := range cells {
			got = append(got, c.Key())
		}
		if !slices.Equal(got, tc.keys) {
			t.Errorf("%s:\ncell keys %v\nwant      %v", tc.body, got, tc.keys)
		}
	}
}

// TestTemplateRejectsAxisFields: the five axis fields of the template
// are the lists' business; a template that sets one is refused with an
// error naming the list to use.
func TestTemplateRejectsAxisFields(t *testing.T) {
	for field, list := range map[string]string{
		"alg": "algs", "topo": "topos", "daemon": "daemons", "init": "inits", "mutation": "mutations",
	} {
		var s campaign.Spec
		body := fmt.Sprintf(`{"algs":["cc1"],"topos":["ring:3"],%q:"central"}`, field)
		if err := json.Unmarshal([]byte(body), &s); err != nil {
			t.Fatal(err)
		}
		_, err := s.Expand()
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("list it in %q", list)) {
			t.Errorf("template field %q: err = %v, want one pointing at %q", field, err, list)
		}
	}
}
