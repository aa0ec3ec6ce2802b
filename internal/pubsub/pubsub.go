// Package pubsub is the push-based result plane's core: an in-process
// topic broker plus the wire codec its events travel over (Server-Sent
// Events framing, shared by the HTTP watch endpoints and the verdict
// gossip plane).
//
// The broker is built for one asymmetry: publishers are explorations
// and must never block, subscribers are network clients and may be
// arbitrarily slow. Every subscriber therefore owns a bounded queue;
// a publish that finds a queue full evicts that subscriber (closing
// its channel with an eviction mark) instead of waiting. Each topic
// keeps a bounded replay ring of its most recent events, so a client
// reconnecting with the SSE Last-Event-ID header resumes from where
// it dropped — or, past the ring, from the most recent events plus
// the terminal one, which is the part that must never be lost.
//
// Topics are cheap, created on first use, and retired once they are
// done (a terminal-typed event was published) and have no subscriber:
// when the last subscriber detaches, or when the publisher asks
// (Retire) after a terminal event. The serving layer synthesizes
// terminal events for watchers who arrive later than that from the job
// records and the verdict store, so retiring a ring never strands a
// client.
package pubsub

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Canonical event types. The broker itself treats the type as opaque
// except for terminality; these are the vocabulary the serving tier
// publishes and the load harness understands.
const (
	// TypeProgress: a running exploration's counter snapshot
	// (states, frontier, depth, states/sec).
	TypeProgress = "progress"
	// TypeCell: one campaign cell reached a terminal state (per-cell
	// progress on a campaign topic).
	TypeCell = "cell"
	// TypeVerdict: a job completed with a verdict (terminal).
	TypeVerdict = "verdict"
	// TypeFailed: a job or campaign failed (terminal).
	TypeFailed = "failed"
	// TypeDone: a campaign completed all cells (terminal).
	TypeDone = "done"
	// TypeAnnounce: a gossip peer announcing newly committed store
	// keys (the gossip wire reuses the event codec; announcements are
	// not topic traffic and are never terminal).
	TypeAnnounce = "announce"
)

// IsTerminal reports whether an event of this type ends its topic:
// subscribers stop reading after one, and the broker retires the
// topic once its last subscriber detaches.
func IsTerminal(typ string) bool {
	return typ == TypeVerdict || typ == TypeFailed || typ == TypeDone
}

// Event is one message on a topic. Seq is 1-based and per-topic — it
// becomes the SSE id, so Last-Event-ID resume is a per-topic
// watermark. Events synthesized outside the broker (replays of
// already-terminal jobs) carry Seq 0 and are sent without an id line,
// which by the SSE contract leaves the client's Last-Event-ID
// untouched.
type Event struct {
	Seq  uint64          `json:"seq"`
	Type string          `json:"type"`
	Data json.RawMessage `json:"data"`
}

// Options parameterize a Broker. The defaults suit the serving tier:
// a ring deep enough to cover reconnect races, a queue deep enough to
// absorb scheduling jitter but shallow enough that a stuck client is
// evicted within one exploration chunk.
type Options struct {
	// RingSize is the per-topic replay buffer depth (default 128).
	RingSize int
	// QueueSize is the per-subscriber queue depth (default 256). Must
	// be at least RingSize so a Last-Event-ID replay always fits.
	QueueSize int
	// MaxTopics bounds the retained topic count (default 8192): past
	// it, creating a topic retires the oldest subscriber-less one.
	// Topics with live subscribers are never retired.
	MaxTopics int
}

// Broker is the topic fan-out. Safe for concurrent use.
type Broker struct {
	opts Options

	mu     sync.Mutex
	topics map[string]*topic

	published atomic.Int64
	evictions atomic.Int64
}

type topic struct {
	name string
	seq  uint64
	buf  []Event // replay ring, oldest first, len <= RingSize
	subs map[*Sub]struct{}
	done bool
	last time.Time // last publish or subscribe, for cap eviction
}

// Sub is one subscription. Read from Events() until it is closed;
// a closed channel means the topic ended (terminal event delivered),
// the subscription was evicted as a slow consumer (check Evicted), or
// Close was called.
type Sub struct {
	b     *Broker
	t     *topic
	ch    chan Event
	state atomic.Int32 // 0 live, 1 evicted, 2 closed
}

// New builds a Broker.
func New(opts Options) *Broker {
	if opts.RingSize <= 0 {
		opts.RingSize = 128
	}
	if opts.QueueSize < opts.RingSize {
		opts.QueueSize = max(opts.RingSize, 256)
	}
	if opts.MaxTopics <= 0 {
		opts.MaxTopics = 8192
	}
	return &Broker{opts: opts, topics: map[string]*topic{}}
}

// topicLocked returns (creating if needed) the named topic. Caller
// holds b.mu.
func (b *Broker) topicLocked(name string) *topic {
	t := b.topics[name]
	if t == nil {
		if len(b.topics) >= b.opts.MaxTopics {
			b.retireOneLocked()
		}
		t = &topic{name: name, subs: map[*Sub]struct{}{}}
		b.topics[name] = t
	}
	t.last = time.Now()
	return t
}

// retireOneLocked drops the stalest subscriber-less topic (preferring
// done ones) to make room under MaxTopics. If every topic has live
// subscribers the map grows past the cap — subscriber-held topics are
// bounded by the connection count, which the serving tier already
// caps.
func (b *Broker) retireOneLocked() {
	var victim *topic
	for _, t := range b.topics {
		if len(t.subs) > 0 {
			continue
		}
		if victim == nil ||
			(t.done && !victim.done) ||
			(t.done == victim.done && t.last.Before(victim.last)) {
			victim = t
		}
	}
	if victim != nil {
		delete(b.topics, victim.name)
	}
}

// Publish marshals data, assigns the topic's next sequence number and
// fans the event out. It never blocks: a subscriber whose queue is
// full is evicted (channel closed, Evicted() true) rather than
// waited for. A terminal-typed event marks the topic done; a later
// publish on the same topic reopens it (job records can be recreated
// after eviction, and their watchers should keep working).
func (b *Broker) Publish(name, typ string, data any) (Event, error) {
	raw, err := json.Marshal(data)
	if err != nil {
		return Event{}, fmt.Errorf("pubsub: marshal %s event: %v", typ, err)
	}
	b.mu.Lock()
	t := b.topicLocked(name)
	t.seq++
	ev := Event{Seq: t.seq, Type: typ, Data: raw}
	t.buf = append(t.buf, ev)
	if len(t.buf) > b.opts.RingSize {
		t.buf = t.buf[1:]
	}
	t.done = IsTerminal(typ)
	var evicted []*Sub
	for s := range t.subs {
		select {
		case s.ch <- ev:
		default:
			// Slow consumer: drop the subscription, never the publisher.
			delete(t.subs, s)
			evicted = append(evicted, s)
		}
	}
	b.mu.Unlock()
	for _, s := range evicted {
		if s.state.CompareAndSwap(0, 1) {
			close(s.ch)
			b.evictions.Add(1)
		}
	}
	b.published.Add(1)
	return ev, nil
}

// Subscribe attaches to a topic, replaying any buffered events with
// Seq > after into the subscription's queue first (after = 0 replays
// the whole ring; an after beyond the ring's oldest entry resumes
// from what the ring still holds — recent progress plus the terminal
// event, the part that matters).
func (b *Broker) Subscribe(name string, after uint64) *Sub {
	b.mu.Lock()
	defer b.mu.Unlock()
	t := b.topicLocked(name)
	s := &Sub{b: b, t: t, ch: make(chan Event, b.opts.QueueSize)}
	for _, ev := range t.buf {
		if ev.Seq > after {
			s.ch <- ev // fits: QueueSize >= RingSize
		}
	}
	t.subs[s] = struct{}{}
	return s
}

// Events is the subscription's receive channel. It is closed on
// terminal delivery only by the subscriber itself calling Close;
// readers should stop at the first IsTerminal event.
func (s *Sub) Events() <-chan Event { return s.ch }

// Evicted reports whether the broker dropped this subscription as a
// slow consumer (its channel is closed).
func (s *Sub) Evicted() bool { return s.state.Load() == 1 }

// Close detaches the subscription. Idempotent; retires the topic if
// this was the last subscriber and the topic is done or was never
// published to (a watcher that came and went before the first event
// leaves no ring behind).
func (s *Sub) Close() {
	s.b.mu.Lock()
	_, live := s.t.subs[s]
	delete(s.t.subs, s)
	if (s.t.done || s.t.seq == 0) && len(s.t.subs) == 0 {
		// The ring has served its purpose: terminal watchers from here
		// on are synthesized from the job record / verdict store.
		if cur := s.b.topics[s.t.name]; cur == s.t {
			delete(s.b.topics, s.t.name)
		}
	}
	s.b.mu.Unlock()
	if live && s.state.CompareAndSwap(0, 2) {
		close(s.ch)
	}
}

// Retire drops the named topic if it is done and nobody is subscribed;
// otherwise it does nothing. A publisher calls it after a terminal
// event nobody may be watching: the ring of an unwatched, finished
// topic would otherwise stay resident until MaxTopics pushes it out.
func (b *Broker) Retire(name string) {
	b.mu.Lock()
	if t := b.topics[name]; t != nil && t.done && len(t.subs) == 0 {
		delete(b.topics, name)
	}
	b.mu.Unlock()
}

// Topics reports the retained topic count (a /metrics gauge).
func (b *Broker) Topics() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.topics)
}

// Published reports the total events published (a /metrics counter).
func (b *Broker) Published() int64 { return b.published.Load() }

// Evictions reports the slow-consumer subscriptions dropped (a
// /metrics counter).
func (b *Broker) Evictions() int64 { return b.evictions.Load() }
