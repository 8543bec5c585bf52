package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one query, ingest step or
// set-up share a Trace id; Parent 0 marks a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  int    `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how untraced runs call the same code.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
	traces int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// newTrace returns a fresh trace id (0 on a nil tracer).
func (t *tracer) newTrace() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.traces++
	return t.traces
}

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent, trace int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Trace: trace, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's duration minus the part of it its children
// cover, indexed like spans.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start - covered(s, children[s.ID])
	}
	return self
}

// covered returns the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, v := range iv {
		if open && v[0] <= curHi {
			curHi = max(curHi, v[1])
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = v[0], v[1], true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// checkTree verifies the span forest is well formed: every span closed,
// every child inside its parent and in its parent's trace, self times
// non-negative, and the self times of each trace summing to its root's
// duration (siblings never overlap).
func checkTree(spans []span) error {
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	self := selfTimes(spans)
	sum := make(map[int]int64)
	roots := make(map[int]span)
	for i, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) not closed", s.ID, s.Name)
		}
		if s.Parent >= s.ID {
			return fmt.Errorf("span %d (%s) opened before its parent %d", s.ID, s.Name, s.Parent)
		}
		if self[i] < 0 {
			return fmt.Errorf("span %d (%s) has negative self time", s.ID, s.Name)
		}
		root := s
		for root.Parent != 0 {
			p, ok := byID[root.Parent]
			if !ok {
				return fmt.Errorf("span %d (%s) has unknown parent %d", root.ID, root.Name, root.Parent)
			}
			if p.Trace != root.Trace {
				return fmt.Errorf("span %d (%s) is in trace %d, its parent in %d", root.ID, root.Name, root.Trace, p.Trace)
			}
			if root.Start < p.Start || root.End > p.End {
				return fmt.Errorf("span %d (%s) lies outside its parent %d (%s)", root.ID, root.Name, p.ID, p.Name)
			}
			root = p
		}
		roots[root.ID] = root
		sum[root.ID] += self[i]
	}
	for id, r := range roots {
		if sum[id] != r.End-r.Start {
			return fmt.Errorf("self times under %s (span %d) sum to %d ns, root lasts %d ns", r.Name, id, sum[id], r.End-r.Start)
		}
	}
	return nil
}

// selfByName sums self time in milliseconds per span name.
func selfByName(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := make(map[string]float64)
	for i, s := range spans {
		out[s.Name] += float64(self[i]) / 1e6
	}
	return out
}

// writeSpans stores the spans as JSON under dir.
func writeSpans(dir, name string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	data, err := json.Marshal(spans)
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// allocMeter measures bytes allocated across a call. runtime.ReadMemStats
// stops the world, so only traced runs create one; a nil meter is free.
type allocMeter struct{ ms runtime.MemStats }

func (a *allocMeter) start() uint64 {
	if a == nil {
		return 0
	}
	runtime.ReadMemStats(&a.ms)
	return a.ms.TotalAlloc
}

// since returns the MB allocated since start returned from.
func (a *allocMeter) since(from uint64) float64 {
	if a == nil {
		return 0
	}
	runtime.ReadMemStats(&a.ms)
	return float64(a.ms.TotalAlloc-from) / mb
}
