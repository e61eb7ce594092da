package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// operation share Op; Parent is the index of the enclosing span, -1 for
// an operation's root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer keeps spans in memory until the run ends. A nil tracer, or one
// that is switched off, records nothing, so the untraced passes pay one
// branch per call.
type tracer struct {
	mu    sync.Mutex
	on    bool
	epoch time.Time
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// enable switches recording on or off, between passes.
func (t *tracer) enable(on bool) {
	if t != nil {
		t.on = on
	}
}

// newOp hands out the identifier the spans of one operation share.
func (t *tracer) newOp() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// begin opens a span and returns its index, or -1 when tracing is off.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil || !t.on {
		return -1
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Op: op})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// mark is the index the next span will get.
func (t *tracer) mark() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// selfTimes sums, per span name, the self time of spans [lo, hi): a
// span's duration minus its children's. One goroutine drives each
// operation, so the children of a span never overlap and subtracting
// their durations is subtracting the interval they cover. calls counts
// the spans per name.
func (t *tracer) selfTimes(lo, hi int) (self map[string]time.Duration, calls map[string]int) {
	self, calls = map[string]time.Duration{}, map[string]int{}
	if t == nil {
		return self, calls
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make(map[int]int64)
	for _, s := range t.spans[lo:hi] {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range t.spans[lo:hi] {
		d := s.End - s.Start - child[lo+i]
		if d < 0 {
			d = 0
		}
		self[s.Name] += time.Duration(d)
		calls[s.Name]++
	}
	return self, calls
}

// write dumps every span as one JSON array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
