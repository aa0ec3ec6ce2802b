// The push half of the result plane: SSE watch endpoints over the
// pubsub broker, the gossip mount, and the request-latency histogram.
//
//	GET /v1/jobs/{id}/watch       progress + terminal verdict events
//	GET /v1/campaigns/{id}/watch  per-cell terminal events + campaign done
//
// Both speak text/event-stream and honor Last-Event-ID (or ?after=N)
// for resume. The broker never blocks a publisher: a watcher that
// stops reading is evicted — its stream just ends — and reconnects
// with its watermark. Watchers who arrive after a job is already
// terminal get a synthesized terminal event (Seq 0, so their
// watermark is untouched) built from the job record or the verdict
// store, which is why retiring a topic never strands a client.
package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/explore"
	"repro/internal/pubsub"
)

// progressEvery throttles progress publishes per job: chunk
// boundaries arrive far faster than any dashboard redraws.
const progressEvery = 100 * time.Millisecond

// keepaliveEvery is the SSE comment cadence that holds idle watch
// connections open through proxies.
const keepaliveEvery = 15 * time.Second

// progressView is the data payload of a progress event.
type progressView struct {
	ID           string  `json:"id"`
	States       int     `json:"states"`
	Frontier     int     `json:"frontier"`
	Depth        int     `json:"depth"`
	Transitions  int64   `json:"transitions"`
	StatesPerSec float64 `json:"states_per_sec"`
}

// cellView is the data payload of a campaign cell event.
type cellView struct {
	Campaign string `json:"campaign"`
	Cell     string `json:"cell"`
	Status   string `json:"status"`
	Verdict  string `json:"verdict,omitempty"`
	Done     int    `json:"done"`
	Cells    int    `json:"cells"`
}

func jobTopic(key string) string     { return "job/" + key }
func campaignTopic(id string) string { return "campaign/" + id }
func terminal(status string) bool    { return status == StatusDone || status == StatusFailed }
func terminalType(status string) string {
	if status == StatusFailed {
		return pubsub.TypeFailed
	}
	return pubsub.TypeVerdict
}

// progressFunc builds the explore.Progress hook for one job: a
// time-throttled publish of the counter snapshot. It runs on the
// exploration goroutine at chunk boundaries, so it must stay cheap —
// Publish is non-blocking by construction.
func (s *Server) progressFunc(key string) func(explore.Progress) {
	start := time.Now()
	var last time.Time
	return func(p explore.Progress) {
		now := time.Now()
		if now.Sub(last) < progressEvery {
			return
		}
		last = now
		perSec := 0.0
		if el := now.Sub(start).Seconds(); el > 0 {
			perSec = float64(p.States) / el
		}
		s.broker.Publish(jobTopic(key), pubsub.TypeProgress, progressView{
			ID: key, States: p.States, Frontier: p.Frontier, Depth: p.Depth,
			Transitions: p.Transitions, StatesPerSec: perSec,
		})
	}
}

// publishJobTerminalLocked pushes a job's terminal event to its topic
// and fans per-cell events out to every campaign the cell belongs to.
// Caller holds s.mu.
func (s *Server) publishJobTerminalLocked(j *job) {
	v := s.view(j)
	s.broker.Publish(jobTopic(j.key), terminalType(j.status), v)
	for _, cid := range s.cellCampaigns[j.key] {
		if c := s.campaigns[cid]; c != nil {
			s.publishCellLocked(c, j)
		}
	}
}

// publishCellLocked records one cell's terminal state on its campaign
// topic and, when it is the last, the campaign's done event. Caller
// holds s.mu. Idempotent per (campaign, cell).
func (s *Server) publishCellLocked(c *camp, j *job) {
	if c.doneSent || c.terminal[j.key] {
		return
	}
	c.terminal[j.key] = true
	v := s.view(j)
	s.broker.Publish(campaignTopic(c.id), pubsub.TypeCell, cellView{
		Campaign: c.id, Cell: j.key, Status: j.status, Verdict: v.Verdict,
		Done: len(c.terminal), Cells: len(c.keys),
	})
	if len(c.terminal) == len(c.keys) {
		c.doneSent = true
		s.broker.Publish(campaignTopic(c.id), pubsub.TypeDone, map[string]any{
			"campaign": c.id, "cells": len(c.keys),
		})
	}
}

// GossipIngested is the gossip node's OnIngest hook: a verdict that
// just arrived from a peer resolves any local watchers immediately
// instead of at their next poll.
func (s *Server) GossipIngested(key string) {
	j := s.hydrate(key) // disk read, outside the lock
	if j == nil {
		return
	}
	s.mu.Lock()
	s.publishJobTerminalLocked(j)
	s.mu.Unlock()
	s.logf("job %s verdict arrived via gossip", key[:12])
}

// lastEventID resolves the watch resume watermark: the SSE
// Last-Event-ID header, or ?after=N for plain curl. Unparseable
// values mean "from the start", per the SSE contract.
func lastEventID(r *http.Request) uint64 {
	v := r.Header.Get("Last-Event-ID")
	if v == "" {
		v = r.URL.Query().Get("after")
	}
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return 0
	}
	return n
}

func (s *Server) handleWatchJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j := s.getJob(id)
	if j == nil {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	s.streamTopic(w, r, jobTopic(id), lastEventID(r), func() (pubsub.Event, bool) {
		s.mu.Lock()
		defer s.mu.Unlock()
		cur := s.jobs[id]
		if cur == nil {
			cur = j // hydrated from the store: terminal by construction
		}
		if !terminal(cur.status) {
			return pubsub.Event{}, false
		}
		data, err := json.Marshal(s.view(cur))
		if err != nil {
			return pubsub.Event{}, false
		}
		return pubsub.Event{Type: terminalType(cur.status), Data: data}, true
	})
}

func (s *Server) handleWatchCampaign(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	keys, ok := s.campaignKeys(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown campaign %q", id)
		return
	}
	s.streamTopic(w, r, campaignTopic(id), lastEventID(r), func() (pubsub.Event, bool) {
		cv := s.campaignStatus(id, keys)
		if cv.Status != "done" {
			return pubsub.Event{}, false
		}
		cv.Results = nil // the aggregate, not the whole grid
		data, err := json.Marshal(cv)
		if err != nil {
			return pubsub.Event{}, false
		}
		return pubsub.Event{Type: pubsub.TypeDone, Data: data}, true
	})
}

// streamTopic runs one SSE watch: subscribe (with replay past the
// client's watermark), close the arrived-too-late race with a
// synthesized terminal event, then stream until a terminal event, an
// eviction, or the client hanging up. synth reports the watched
// object's current state: a (terminal event, true) when it is already
// finished.
func (s *Server) streamTopic(w http.ResponseWriter, r *http.Request, topic string, after uint64, synth func() (pubsub.Event, bool)) {
	fl, canFlush := w.(http.Flusher)
	flush := func() {
		if canFlush {
			fl.Flush()
		}
	}
	sub := s.broker.Subscribe(topic, after)
	defer sub.Close()
	s.watchConns.Add(1)
	defer s.watchConns.Add(-1)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	write := func(ev pubsub.Event) bool {
		w.Write(pubsub.AppendSSE(nil, ev))
		flush()
		return pubsub.IsTerminal(ev.Type)
	}

	// Replay whatever the subscription already holds (ring contents
	// past the watermark).
	done := false
	for !done {
		select {
		case ev, ok := <-sub.Events():
			if !ok {
				return
			}
			done = write(ev)
		default:
			// Queue drained. If the watched object went terminal before we
			// subscribed (its topic possibly retired, ring gone), the
			// synthesized event — Seq 0, no id line, watermark untouched —
			// is the terminal the replay could not deliver.
			if ev, isTerm := synth(); isTerm {
				done = write(ev)
			}
			goto live
		}
	}
	return

live:
	if done {
		return
	}
	keepalive := time.NewTicker(keepaliveEvery)
	defer keepalive.Stop()
	for {
		select {
		case ev, ok := <-sub.Events():
			if !ok {
				// Evicted as a slow consumer: end the stream; the client
				// reconnects with Last-Event-ID and resumes from the ring.
				return
			}
			if write(ev) {
				return
			}
		case <-keepalive.C:
			w.Write([]byte(": keepalive\n\n"))
			flush()
		case <-r.Context().Done():
			return
		}
	}
}

// campaignStatus builds the campaign aggregate (the GET body and the
// watch synthesizer share it).
func (s *Server) campaignStatus(id string, keys []string) campaignView {
	s.mu.Lock()
	views := make([]jobView, len(keys))
	for i, k := range keys {
		if j := s.jobs[k]; j != nil {
			views[i] = s.view(j)
		}
	}
	s.mu.Unlock()
	for i, k := range keys {
		if views[i].ID != "" {
			continue
		}
		// Evicted cell: re-hydrate its verdict from the store (disk
		// I/O, hence outside the lock).
		if j := s.hydrate(k); j != nil {
			views[i] = s.view(j)
		} else {
			views[i] = jobView{ID: k, Status: StatusUnknown}
		}
	}

	v := campaignView{ID: id, Cells: len(keys), Results: views}
	for _, jv := range views {
		if jv.Status == StatusDone || jv.Status == StatusFailed {
			v.Done++
		}
		if jv.Cached {
			v.CacheHits++
		}
		switch jv.Verdict {
		case "verified":
			v.Verified++
		case "bounded":
			v.Bounded++
		case "violated":
			v.Violated++
		}
		if jv.Status == StatusFailed {
			v.Failed++
		}
	}
	v.Status = "running"
	if v.Done == v.Cells {
		v.Status = "done"
	}
	return v
}

// latencyBuckets are the histogram's upper bounds in seconds
// (exponential, ~1ms to 10s — verification API calls, not
// exploration runtimes).
const latencyBucketCount = 13

var latencyBuckets = [latencyBucketCount]float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// latencyHist is a lock-free fixed-bucket latency histogram for
// /metrics: one counter per bucket (non-cumulative internally,
// rendered cumulatively the Prometheus way) plus sum and count.
type latencyHist struct {
	counts   [latencyBucketCount + 1]atomic.Int64 // +1 = +Inf
	sumNanos atomic.Int64
	count    atomic.Int64
}

func (h *latencyHist) observe(d time.Duration) {
	sec := d.Seconds()
	i := 0
	for i < len(latencyBuckets) && sec > latencyBuckets[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sumNanos.Add(d.Nanoseconds())
	h.count.Add(1)
}

// render writes the histogram in Prometheus text format under name.
func (h *latencyHist) render(w http.ResponseWriter, name string) {
	cum := int64(0)
	for i, le := range latencyBuckets {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", name, le, cum)
	}
	cum += h.counts[len(latencyBuckets)].Load()
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(w, "%s_sum %g\n", name, float64(h.sumNanos.Load())/1e9)
	fmt.Fprintf(w, "%s_count %d\n", name, h.count.Load())
}
