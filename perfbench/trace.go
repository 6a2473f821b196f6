package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one call into a layer, timed from the benchmark's side of the
// call. Parent is the index of the enclosing span, or -1; Msg ties the
// spans of one ingest message together, or is -1.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Msg    int    `json:"msg"`
}

// tracer keeps spans in memory for the whole run; write puts them on disk
// once measuring is over. A nil *tracer records nothing, so untraced code
// paths call the same methods at the cost of a nil check.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer {
	if !on {
		return nil
	}
	return &tracer{t0: time.Now()}
}

// begin opens a span and returns its index, or -1 when tracing is off.
func (t *tracer) begin(name string, parent, msg int) int {
	if t == nil {
		return -1
	}
	start := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: start, Parent: parent, Msg: msg})
	return len(t.spans) - 1
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id < 0 {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	return time.Duration(now - t.spans[id].Start)
}

// add records an already-measured interval as a span.
func (t *tracer) add(name string, start time.Time, d time.Duration, parent, msg int) int {
	if t == nil {
		return -1
	}
	s := int64(start.Sub(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: s, End: s + int64(d), Parent: parent, Msg: msg})
	return len(t.spans) - 1
}

// durations returns every closed span of the given name, in order.
func (t *tracer) durations(name string) []time.Duration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name && s.End >= s.Start {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// write saves the spans as JSON under path.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	blob, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
