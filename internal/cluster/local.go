package cluster

import "repro/internal/explore"

// Local is the in-process Transport: each call goes straight to the
// peer's engine, and frames are delivered as synchronous Ingest calls
// on the destination engine. The cluster differential battery and
// bench/'s cluster workload run on it.
type Local struct {
	engines []explore.PeerEngine
}

// LocalConfig assembles a Local transport.
type LocalConfig struct {
	// Engines holds one engine per peer, index = peer id = shard id.
	Engines []explore.PeerEngine
	// Snapshots is ignored: shards are not snapshotted. The field stays
	// because bench/'s cluster workload sets it.
	Snapshots *MemSnapshots
}

// NewLocal builds the transport and installs each engine's frame
// sender.
func NewLocal(cfg LocalConfig) *Local {
	l := &Local{engines: cfg.Engines}
	for _, e := range l.engines {
		e.SetSender(func(dst int, frame []byte) error { return l.engines[dst].Ingest(frame) })
	}
	return l
}

// Peers implements Transport.
func (l *Local) Peers() int { return len(l.engines) }

// Seed implements Transport.
func (l *Local) Seed(p int) error { return l.engines[p].Seed() }

// Expand implements Transport.
func (l *Local) Expand(p int, depth int, firstGid int32, atCap bool) (*explore.LayerReport, error) {
	return l.engines[p].Expand(depth, firstGid, atCap)
}

// FinishLayer implements Transport.
func (l *Local) FinishLayer(p int) (bool, error) { return l.engines[p].FinishLayer(), nil }

// PendMeta implements Transport.
func (l *Local) PendMeta(p, shard int) ([]explore.PendMeta, error) {
	return l.engines[p].PendMeta(shard)
}

// Commit implements Transport.
func (l *Local) Commit(p, shard, keep int, gids []int32, housekeep bool) error {
	return l.engines[p].Commit(shard, keep, gids, housekeep)
}

// Keys implements Transport.
func (l *Local) Keys(p, shard int, gids []int32) ([][]uint64, error) {
	return l.engines[p].Keys(shard, gids)
}

// Snapshot implements Transport as a no-op: see Transport.Snapshot.
func (l *Local) Snapshot(p, shard int) error { return nil }

// Close implements Transport.
func (l *Local) Close() {
	for _, e := range l.engines {
		e.Close()
	}
}
