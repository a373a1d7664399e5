package bench

import (
	"sort"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark's own
// code around the call (the program under test carries no hooks).
// Parent is the span that caused it; 0 marks a root. Spans of one
// statement share its root.
type Span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Class   string `json:"class"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine (the traced pass runs a single client).
type tracer struct {
	t0    time.Time
	spans []Span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id for end and for children.
func (t *tracer) begin(parent int, name, class string) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Class: class, StartNs: int64(time.Since(t.t0))})
	return id
}

func (t *tracer) end(id int) {
	t.spans[id-1].EndNs = int64(time.Since(t.t0))
}

// add records an already-measured interval.
func (t *tracer) add(parent int, name, class string, start time.Time, d time.Duration) int {
	id := len(t.spans) + 1
	s := int64(start.Sub(t.t0))
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Class: class, StartNs: s, EndNs: s + int64(d)})
	return id
}

// SelfTime is the per-span-name summary written beside the spans.
type SelfTime struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// selfTimes returns, per span name, the total duration and the self
// time: each span's duration minus the part of its interval that its
// direct children cover (the union of their intervals, so overlapping
// children are not subtracted twice, clipped to the parent).
func selfTimes(spans []Span) []SelfTime {
	children := map[int][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	agg := map[string]*SelfTime{}
	for _, s := range spans {
		dur := s.EndNs - s.StartNs
		if dur < 0 {
			dur = 0
		}
		self := dur - coveredNs(s, children[s.ID])
		a := agg[s.Name]
		if a == nil {
			a = &SelfTime{Name: s.Name}
			agg[s.Name] = a
		}
		a.Count++
		a.TotalMs += float64(dur) / 1e6
		a.SelfMs += float64(self) / 1e6
	}
	out := make([]SelfTime, 0, len(agg))
	for _, a := range agg {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// coveredNs is the length of the union of the children's intervals
// inside the parent's interval.
func coveredNs(parent Span, kids []Span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := k.StartNs, k.EndNs
		if lo < parent.StartNs {
			lo = parent.StartNs
		}
		if hi > parent.EndNs {
			hi = parent.EndNs
		}
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	started := false
	for _, x := range iv {
		if !started {
			curLo, curHi, started = x[0], x[1], true
			continue
		}
		if x[0] <= curHi {
			if x[1] > curHi {
				curHi = x[1]
			}
			continue
		}
		total += curHi - curLo
		curLo, curHi = x[0], x[1]
	}
	if started {
		total += curHi - curLo
	}
	return total
}
