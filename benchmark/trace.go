package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side of
// the call. Spans of one repetition share Rep; Parent is the span that caused
// this one (0 for a repetition's root).
type span struct {
	ID       int64              `json:"id"`
	Parent   int64              `json:"parent"`
	Workload string             `json:"workload"`
	Rep      int                `json:"rep"`
	Name     string             `json:"name"`
	StartNS  int64              `json:"start_ns"`
	EndNS    int64              `json:"end_ns"`
	Counts   map[string]float64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op, so workloads call it
// unconditionally.
type tracer struct {
	workload string
	t0       time.Time
	nextID   atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// open is a started span; end records it.
type open struct {
	t      *tracer
	id     int64
	parent int64
	rep    int
	name   string
	start  time.Time
}

func (t *tracer) start(parent int64, rep int, name string) open {
	if t == nil {
		return open{}
	}
	return open{t: t, id: t.nextID.Add(1), parent: parent, rep: rep, name: name, start: time.Now()}
}

func (o open) end(counts map[string]float64) {
	if o.t == nil {
		return
	}
	o.t.add(o.id, o.parent, o.rep, o.name, o.start, time.Now(), counts)
}

// add records a span whose interval the caller timed itself.
func (t *tracer) add(id, parent int64, rep int, name string, start, end time.Time, counts map[string]float64) {
	if t == nil {
		return
	}
	if id == 0 {
		id = t.nextID.Add(1)
	}
	s := span{
		ID: id, Parent: parent, Workload: t.workload, Rep: rep, Name: name,
		StartNS: start.Sub(t.t0).Nanoseconds(), EndNS: end.Sub(t.t0).Nanoseconds(),
		Counts: counts,
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// selfTimes derives each layer's self time: a span's duration minus the part
// of its interval that its child spans cover (children of a parallel pool
// overlap, so the covered part is the union of their intervals). It returns
// the summed self time per span name, in seconds, and for each repetition root
// the share of its wall time that its children explain.
func (t *tracer) selfTimes() (self map[string]float64, coverage []float64) {
	self = map[string]float64{}
	if t == nil {
		return self, nil
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()

	children := map[int64][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	for _, s := range spans {
		dur := s.EndNS - s.StartNS
		covered := unionWithin(children[s.ID], s.StartNS, s.EndNS)
		self[s.Name] += float64(dur-covered) / 1e9
		if s.Parent == 0 && dur > 0 && len(children[s.ID]) > 0 {
			coverage = append(coverage, float64(covered)/float64(dur))
		}
	}
	return self, coverage
}

// unionWithin is the length of the union of the spans' intervals clipped to
// [lo, hi].
func unionWithin(spans []span, lo, hi int64) int64 {
	if len(spans) == 0 {
		return 0
	}
	sorted := append([]span(nil), spans...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].StartNS < sorted[j].StartNS })
	var total int64
	curLo, curHi := int64(0), int64(-1)
	for _, s := range sorted {
		a, b := max(s.StartNS, lo), min(s.EndNS, hi)
		if b <= a {
			continue
		}
		if curHi < curLo || a > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
