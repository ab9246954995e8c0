package main

import (
	"sort"
	"time"
)

// span is one timed call into a layer's public functions. Spans of one
// request (or one session turn) share Req; Parent is the index of the
// span that caused this one, -1 for a root. Times are nanoseconds since
// the tracer was created.
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out once, at exit. It
// only ever wraps calls made from the bench's own replay, which is a single
// goroutine, so it needs no lock and the measured end-to-end run carries no
// tracing cost at all.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// start opens a span and returns its index for end and for children.
func (t *tracer) start(name string, req, parent int) int {
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: t.now()})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	t.spans[id].End = t.now()
}

// ms is a finished span's duration in milliseconds.
func (t *tracer) ms(id int) float64 { return float64(t.spans[id].End-t.spans[id].Start) / 1e6 }

// ended records a span reported after the fact by its duration, ending now
// (the shape of the learn.Options.Trace hook).
func (t *tracer) ended(name string, req, parent int, d time.Duration) {
	now := t.now()
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: now - int64(d), End: now})
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its direct children cover. Overlapping children are counted once
// and a child is clipped to its parent.
func selfTimes(spans []span) []int64 {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			p := spans[s.Parent]
			lo, hi := max(s.Start, p.Start), min(s.End, p.End)
			if hi > lo {
				children[s.Parent] = append(children[s.Parent], [2]int64{lo, hi})
			}
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		ivs := children[i]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		covered, edge := int64(0), s.Start
		for _, iv := range ivs {
			if iv[1] > edge {
				covered += iv[1] - max(iv[0], edge)
				edge = iv[1]
			}
		}
		self[i] -= covered
	}
	return self
}

// selfByName sums self times per span name, with the number of spans, over
// the spans recorded from index from on.
func selfByName(spans []span, from int) (total map[string]int64, count map[string]int) {
	total, count = map[string]int64{}, map[string]int{}
	for i, d := range selfTimes(spans) {
		if i >= from {
			total[spans[i].Name] += d
			count[spans[i].Name]++
		}
	}
	return total, count
}
