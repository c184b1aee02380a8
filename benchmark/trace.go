package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one benchmark-side interval around a call into a layer. Spans of
// one request share Request; Parent is the ID of the span that caused this
// one (0 for a root). Times are nanoseconds since the recorder started.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Request string `json:"request"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// spanRecorder keeps spans in memory until the run ends. A nil recorder is
// tracing switched off: every method is a no-op on it.
type spanRecorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{t0: time.Now()} }

// add records a finished span and returns its ID for use as a parent.
func (r *spanRecorder) add(parent int, request, name string, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Request: request, Name: name,
		StartNS: start.Sub(r.t0).Nanoseconds(), EndNS: end.Sub(r.t0).Nanoseconds(),
	})
	return id
}

// time runs fn inside a root span named name and returns fn's duration.
func (r *spanRecorder) time(request, name string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	r.add(0, request, name, start, end)
	return end.Sub(start)
}

func (r *spanRecorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// requestSpans returns the spans of served requests, leaving out the layer
// micro-timings.
func (r *spanRecorder) requestSpans() []span {
	var out []span
	for _, s := range r.snapshot() {
		if s.Request != microRequest {
			out = append(out, s)
		}
	}
	return out
}

// microRequest is the request id every micro-timing span carries.
const microRequest = "micro"

// writeJSONL writes one span per line to path.
func (r *spanRecorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
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

// selfTimes returns, per span ID, the span's duration minus the part of its
// interval that its child spans cover (overlapping children count once,
// children are clipped to the parent).
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered, edge := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, edge), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.EndNS - s.StartNS - covered
	}
	return self
}

// layerSelfNS sums self time per layer, the layer being the span name up to
// its first dot ("core.exec" belongs to "core").
func layerSelfNS(spans []span) map[string]int64 {
	self := selfTimes(spans)
	out := map[string]int64{}
	for _, s := range spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += self[s.ID]
	}
	return out
}
