package main

import (
	"bufio"
	"encoding/json"
	"os"
	"slices"
	"sync"
	"time"
)

// span is one interval at a layer boundary, recorded from the bench's
// side of the call: the bench wraps calls into each layer's public
// functions, it does not reach inside them. Times are nanoseconds
// since the tracer's epoch; Parent is the index of the span that
// caused this one (-1 = none known); Op groups the spans of one
// operation (a repeat, a request, a job).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Op     int64  `json:"op"`
}

// maxSpans bounds the in-memory span log (32 B + name header each);
// past it spans are counted as dropped rather than recorded.
const maxSpans = 4 << 20

// tracer keeps spans in memory and writes them out once, at exit. A
// nil *tracer is valid and records nothing, so the untraced run pays
// one nil check per boundary.
type tracer struct {
	epoch time.Time

	mu      sync.Mutex
	spans   []span
	dropped int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its index, or -1 when not tracing.
func (t *tracer) begin(name string, parent int32, op int64) int32 {
	if t == nil {
		return -1
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: start, End: start, Parent: parent, Op: op})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// add records a span whose interval was measured elsewhere (client
// timestamps, event arrival times).
func (t *tracer) add(name string, start, end time.Time, parent int32, op int64) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{
		Name: name, Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)), Parent: parent, Op: op,
	})
	return int32(len(t.spans) - 1)
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// writeFile dumps the span log as JSON lines.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTime is the per-name aggregate of a span log.
type layerTime struct {
	Count int
	Total int64 // Σ span durations
	Self  int64 // Σ (duration − the part its child spans cover)
}

// selfTimes aggregates spans by name. A span's self time is its
// duration minus the union of its children's intervals clipped to it:
// children that run in parallel (three peers expanding at once) cover
// their overlap once, so a parent that only waits on them has self
// time near zero rather than negative.
func selfTimes(spans []span) map[string]layerTime {
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.Parent >= 0 && int(s.Parent) < len(spans) {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	out := make(map[string]layerTime)
	for i, s := range spans {
		dur := s.End - s.Start
		covered := int64(0)
		if kids := children[int32(i)]; len(kids) > 0 {
			slices.SortFunc(kids, func(a, b int32) int {
				switch {
				case spans[a].Start < spans[b].Start:
					return -1
				case spans[a].Start > spans[b].Start:
					return 1
				}
				return 0
			})
			edge := s.Start // everything before edge is already counted
			for _, k := range kids {
				lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
				if hi > lo {
					covered += hi - lo
					edge = hi
				}
			}
		}
		lt := out[s.Name]
		lt.Count++
		lt.Total += dur
		lt.Self += dur - covered
		out[s.Name] = lt
	}
	return out
}

// durations returns the duration of every span with the given name.
func durations(spans []span, name string) []int64 {
	var out []int64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}
