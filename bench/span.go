package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval at a layer boundary, recorded from the
// benchmark's own files around the calls into a layer. Spans of one op share
// its op id; Parent is the index of the causing span, -1 for a root.
type span struct {
	Name    string `json:"name"`
	Op      int    `json:"op"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. It is used from the
// single goroutine that drives the ops.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// start opens a span and returns its index, which is also what children pass
// as parent.
func (r *recorder) start(name string, op, parent int) int {
	r.spans = append(r.spans, span{Name: name, Op: op, Parent: parent,
		StartNS: time.Since(r.epoch).Nanoseconds()})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) { r.spans[id].EndNS = time.Since(r.epoch).Nanoseconds() }

// add records a span whose ends were timed by the caller.
func (r *recorder) add(name string, op, parent int, start, end time.Time) int {
	r.spans = append(r.spans, span{Name: name, Op: op, Parent: parent,
		StartNS: start.Sub(r.epoch).Nanoseconds(), EndNS: end.Sub(r.epoch).Nanoseconds()})
	return len(r.spans) - 1
}

// selfTimes sums, per span name, each span's duration minus the part of it
// its direct children cover.
func selfTimes(spans []span) map[string]time.Duration {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.EndNS - s.StartNS
		if s.Parent >= 0 {
			self[s.Parent] -= s.EndNS - s.StartNS
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range spans {
		out[s.Name] += time.Duration(self[i])
	}
	return out
}

// write stores the spans as JSON at path, creating its directory.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
