package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed region recorded by the benchmark around its own
// call into a layer. Spans of one operation share Op; Parent is the id
// of the span that caused it (0 for a root). Times are nanoseconds
// since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how untraced runs pay only nil checks.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span at time at and returns its id (0 on a nil tracer).
func (t *tracer) begin(op, parent int, name string, at time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: int64(at.Sub(t.t0))})
	return len(t.spans)
}

func (t *tracer) end(id int, at time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = int64(at.Sub(t.t0))
	t.mu.Unlock()
}

// stage times fn as a child of parent.
func (t *tracer) stage(op, parent int, name string, fn func()) {
	id := t.begin(op, parent, name, time.Now())
	fn()
	t.end(id, time.Now())
}

// selfTimes sums, per span name, each span's duration minus the part
// its children cover, and returns the summed duration of the roots.
// Σ self times equals the root total exactly when the spans tile. spans
// may be any part of a trace that holds whole operations.
func selfTimes(spans []span) (self map[string]int64, roots int64) {
	covered := make(map[int]int64, len(spans))
	for _, s := range spans {
		covered[s.Parent] += s.End - s.Start
	}
	self = make(map[string]int64)
	for _, s := range spans {
		self[s.Name] += s.End - s.Start - covered[s.ID]
		if s.Parent == 0 {
			roots += s.End - s.Start
		}
	}
	return self, roots
}

// checkTiling reports the first span that is unfinished, leaves its
// parent's interval, or whose children overlap it by more than it
// lasts.
func checkTiling(spans []span) error {
	covered := make([]int64, len(spans)+1)
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent != 0 {
			p := spans[s.Parent-1]
			if s.Start < p.Start || s.End > p.End || s.Op != p.Op {
				return fmt.Errorf("span %d (%s) is not inside its parent %d (%s)", s.ID, s.Name, p.ID, p.Name)
			}
		}
		covered[s.Parent] += s.End - s.Start
	}
	for _, s := range spans {
		if covered[s.ID] > s.End-s.Start {
			return fmt.Errorf("children of span %d (%s) cover more than the span", s.ID, s.Name)
		}
	}
	return nil
}

// writeSpans writes the span file, creating its directory.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
