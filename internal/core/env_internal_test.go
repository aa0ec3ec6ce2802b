package core

import (
	"slices"
	"testing"
)

// TestMaskedForwardsTracking: a Masked env tracks exactly when the Env
// it wraps does, and reports the wrapped Env's flips, so Figure 3's
// runner keeps per-process invalidation instead of a full rescan after
// every step.
func TestMaskedForwardsTracking(t *testing.T) {
	c := NewClient(4, 1, 0, 0, 1)
	m := &Masked{Env: c, Idle: []bool{false, true, false, false}}
	tr := trackerOf(m)
	if tr == nil {
		t.Fatal("Masked over a tracking Client does not track")
	}
	cfg := make([]State, 4)
	for p := range cfg {
		cfg[p] = State{S: Done, P: NoEdge}
	}
	m.Update(cfg, 1)
	if got, want := tr.Changed(), c.Changed(); len(got) == 0 || !slices.Equal(got, want) {
		t.Fatalf("Masked.Changed() = %v, wrapped Client's %v", got, want)
	}
	if trackerOf(&Masked{Env: NewScripted(4), Idle: make([]bool, 4)}) != nil {
		t.Fatal("Masked over a non-tracking Env claims to track")
	}
}
