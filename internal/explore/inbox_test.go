package explore

import (
	"encoding/binary"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/hypergraph"
	"repro/internal/sim"
)

// A cluster peer's frames wait for the stripes' owners: Ingest checks a
// frame whole, queues its probe records in the shard's inbox, and the
// owners probe them at their next barrier (or PendMeta does). These
// tests drive peer 0 of two — hosting shard 0 of cc2/ring:4/cc/central —
// through its seed layer's expansion as a coordinator would, and
// compare it with a twin peer.

// frameRec is one probe record of a hand-built frontier frame.
type frameRec struct {
	shard  uint32
	pos    uint64
	parent int32
	key    []uint64
}

// buildFrame encodes recs as a frontier frame of the given word width.
func buildFrame(words int, recs ...frameRec) []byte {
	buf := append([]byte(nil), frameMagic[:]...)
	buf = append(buf, frameVersion, 0)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(words))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(recs)))
	for _, r := range recs {
		buf = append(buf, recProbe)
		buf = binary.LittleEndian.AppendUint32(buf, r.shard)
		buf = binary.LittleEndian.AppendUint64(buf, r.pos)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(r.parent))
		for _, w := range r.key {
			buf = binary.LittleEndian.AppendUint64(buf, w)
		}
	}
	return buf
}

// inboxPeer builds peer 0 of two and commits its seed layer; gids are
// its local ids, so its layer 0 is items 0, 1, … from gid 0.
func inboxPeer(t *testing.T, workers, flush int) *peerEngine[core.State] {
	t.Helper()
	factory := mustCC(t, core.CC2, hypergraph.CommitteeRing(4), CCOptions{Init: InitCC})
	opts := Options{Mode: sim.SelectCentral, Workers: workers, CheckDeadlock: true, CheckClosure: true}
	e, err := NewPeer(factory, opts, PeerConfig{NShards: 2, Hosted: []int{0}, FlushRecords: flush})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	e.SetSender(func(int, []byte) error { return nil })
	if err := e.Seed(); err != nil {
		t.Fatal(err)
	}
	meta, err := e.PendMeta(0)
	if err != nil {
		t.Fatal(err)
	}
	gids := make([]int32, len(meta))
	for i := range gids {
		gids[i] = int32(i)
	}
	if err := e.Commit(0, len(gids), gids, false); err != nil {
		t.Fatal(err)
	}
	return e.(*peerEngine[core.State])
}

// inboxRecs returns n probe records for shard 0 of two: keys no
// configuration encodes, at positions past any of layer 0's, parent 7.
func inboxRecs(t *testing.T, e *peerEngine[core.State], n int) []frameRec {
	t.Helper()
	var recs []frameRec
	for x := uint64(1); len(recs) < n; x++ {
		key := make([]uint64, e.words)
		for i := range key {
			key[i] = ^x
		}
		if ShardOf(hashWords(key), 2) == 0 {
			recs = append(recs, frameRec{shard: 0, pos: 1<<62 | x, parent: 7, key: key})
		}
	}
	return recs
}

func pendMeta(t *testing.T, e *peerEngine[core.State]) []PendMeta {
	t.Helper()
	meta, err := e.PendMeta(0)
	if err != nil {
		t.Fatal(err)
	}
	return meta
}

// TestPeerIngestWaitsForOwners ingests a frame from inside the peer's
// own expansion (its one worker's send, with every remote successor
// flushed at once): the shard's pending set must not move until the
// fan-out's barrier, must hold every record after it, and must then rank
// exactly what a twin ranks that ingested the same frame after its
// expansion.
func TestPeerIngestWaitsForOwners(t *testing.T) {
	e, twin := inboxPeer(t, 1, 1), inboxPeer(t, 1, 1)
	recs := inboxRecs(t, e, 3)
	frame := buildFrame(e.words, recs...)
	ingested := false
	e.SetSender(func(int, []byte) error {
		if ingested {
			return nil
		}
		ingested = true
		before := e.vs.Pending()
		if err := e.Ingest(frame); err != nil {
			t.Error(err)
		}
		if got := e.vs.Pending(); got != before {
			t.Errorf("ingesting mid-expansion moved the pending count %d → %d before the barrier", before, got)
		}
		return nil
	})
	for _, p := range []*peerEngine[core.State]{e, twin} {
		if _, err := p.Expand(0, 0, false); err != nil {
			t.Fatal(err)
		}
	}
	if !ingested {
		t.Fatal("the expansion sent no frame: the test ingested nothing")
	}
	if got, want := e.vs.Pending(), twin.vs.Pending()+len(recs); got != want {
		t.Fatalf("after the expansion the shard holds %d pending entries, want the twin's %d plus the frame's %d", got, want-len(recs), len(recs))
	}
	if err := twin.Ingest(frame); err != nil {
		t.Fatal(err)
	}
	got, want := pendMeta(t, e), pendMeta(t, twin)
	if !slices.Equal(got, want) {
		t.Fatalf("the peer ranks %d entries, its twin %d, or in another order", len(got), len(want))
	}
	for _, r := range recs {
		if !slices.Contains(got, PendMeta{Pos: r.pos, Parent: r.parent}) {
			t.Fatalf("the ranked entries miss the frame's record at pos %#x", r.pos)
		}
	}
}

// TestPeerIngestRefusesWholeFrame sends frames whose first record is good
// and whose second is not — cut short, or for a shard the peer does not
// host. Each Ingest must fail on the spot and apply nothing, so the
// layer ranks what a twin ranks that never received them.
func TestPeerIngestRefusesWholeFrame(t *testing.T) {
	e, twin := inboxPeer(t, 2, 0), inboxPeer(t, 2, 0)
	for _, p := range []*peerEngine[core.State]{e, twin} {
		if _, err := p.Expand(0, 0, false); err != nil {
			t.Fatal(err)
		}
	}
	recs := inboxRecs(t, e, 2)
	whole := buildFrame(e.words, recs...)
	foreign := recs[1]
	foreign.shard = 1
	for _, tc := range []struct {
		name, frame, err string
	}{
		{"truncated", string(whole[:len(whole)-3]), "truncated frontier frame (record 1)"},
		{"foreign shard", string(buildFrame(e.words, recs[0], foreign)), "frame for shard 1, which peer 0 does not host"},
	} {
		before := e.vs.Pending()
		err := e.Ingest([]byte(tc.frame))
		if err == nil || !strings.Contains(err.Error(), tc.err) {
			t.Fatalf("%s: Ingest returned %v, want %q", tc.name, err, tc.err)
		}
		if got := e.vs.Pending(); got != before {
			t.Fatalf("%s: the refused frame moved the pending count %d → %d", tc.name, before, got)
		}
	}
	if got, want := pendMeta(t, e), pendMeta(t, twin); !slices.Equal(got, want) {
		t.Fatalf("after the refused frames the peer ranks %d entries, the twin %d, or in another order", len(got), len(want))
	}
}
