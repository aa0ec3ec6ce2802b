package cluster

import (
	"fmt"
	"sync"

	"repro/internal/chaos"
	"repro/internal/explore"
)

// Local is HTTP minus the wire: the same request builders, and a call
// that hands each request to the same dispatch (Serve) in-process.
// Frames are delivered as synchronous Ingest calls, shard snapshots go
// through the configured SnapshotStore, and a chaos.PeerLoss plan
// injects mid-layer peer death — the dying peer delivers a bounded
// number of frames (partial delivery, like a real process kill), its
// expansion fails, and every later call to it is refused. The cluster
// differential battery runs on this transport.
type Local struct {
	rpcTransport
	engines []explore.PeerEngine
	snaps   SnapshotStore
	loss    []chaos.PeerLoss

	mu sync.Mutex
	// down holds the peers the loss plan has reached: the frames a dying
	// peer may still deliver, −1 once its expansion has returned.
	down map[int]int
}

// LocalConfig assembles a Local transport.
type LocalConfig struct {
	// Engines holds one engine per peer, index = peer id.
	Engines []explore.PeerEngine
	// Snapshots is the shared shard-snapshot store; nil disables
	// snapshots (and with them, recovery from peer loss).
	Snapshots SnapshotStore
	// Loss is the peer-death injection plan.
	Loss []chaos.PeerLoss
}

// NewLocal builds the transport and installs each engine's frame
// sender.
func NewLocal(cfg LocalConfig) *Local {
	l := &Local{snaps: cfg.Snapshots, loss: cfg.Loss, down: make(map[int]int)}
	l.call = func(p int, req RPCRequest) (RPCResponse, error) {
		l.mu.Lock()
		dead := l.down[p] < 0
		l.mu.Unlock()
		if dead {
			return RPCResponse{}, fmt.Errorf("cluster: peer %d is down", p)
		}
		return Serve(l.engines[p], l.snaps, req)
	}
	for p, e := range cfg.Engines {
		e.SetSender(func(dst int, frame []byte) error { return l.deliver(p, dst, frame) })
		l.engines = append(l.engines, mortalEngine{e, l, p})
	}
	return l
}

func (l *Local) deliver(src, dst int, frame []byte) error {
	l.mu.Lock()
	for _, p := range []int{src, dst} {
		if left, dying := l.down[p]; dying && left <= 0 {
			l.mu.Unlock()
			return fmt.Errorf("cluster: peer %d is down", p)
		}
	}
	if _, dying := l.down[src]; dying {
		l.down[src]--
	}
	l.mu.Unlock()
	return l.engines[dst].Ingest(frame)
}

// mortalEngine is peer p's engine under the loss plan.
type mortalEngine struct {
	explore.PeerEngine
	l *Local
	p int
}

// Expand injects the loss plan: a peer scheduled to die at this depth
// runs its expansion (so its early frames really reach the survivors),
// then reports failure and stays dead.
func (m mortalEngine) Expand(depth int, firstGid int32, atCap bool) (*explore.LayerReport, error) {
	l, p := m.l, m.p
	l.mu.Lock()
	for _, pl := range l.loss {
		if pl.Peer == p && pl.Depth == depth {
			l.down[p] = max(pl.FramesBeforeDeath, 0)
		}
	}
	l.mu.Unlock()
	rep, err := m.PeerEngine.Expand(depth, firstGid, atCap)
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, dying := l.down[p]; dying {
		l.down[p] = -1
		return nil, fmt.Errorf("cluster: peer %d lost mid-layer (injected)", p)
	}
	return rep, err
}

// Peers implements Transport.
func (l *Local) Peers() int { return len(l.engines) }

// Close implements Transport.
func (l *Local) Close() {
	for _, e := range l.engines {
		e.Close()
	}
}
