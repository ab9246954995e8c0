// Package obs is the service's observability substrate: a dependency-free
// metrics registry with Prometheus text-format exposition.
//
// Three instrument kinds cover every telemetry surface of the system:
//
//   - Counter: a monotonically increasing atomic int64 (journal appends,
//     cache hits, HTTP requests);
//   - Gauge: a settable atomic int64, or a GaugeFunc sampled at scrape
//     time (live sessions, queue depth, uptime);
//   - Histogram: fixed upper-bound buckets with atomic counts, an atomic
//     sum and an atomic max — the same lock-free shape the service's
//     latency histogram has always had on the request path. Observations
//     are recorded in a native integer unit (microseconds for latency)
//     and rescaled only at exposition, so the hot path never touches a
//     float.
//
// Pre-existing telemetry that already owns its own atomics (the store
// engines' counter block, the per-graph engine caches) joins the registry
// through SampleFunc: a family whose labelled samples are produced by a
// callback at scrape time, reading the same atomics the JSON /v1/stats
// view reads. The registry is therefore a superset view, not a second
// source of truth.
//
// Registration is idempotent: asking for an instrument that already
// exists under the same name, kind and label set returns the existing
// one, so independently assembled components can share one registry
// without coordination. A name reused with a different kind panics — that
// is a programming error, caught at boot.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Instrument kinds, matching the Prometheus exposition TYPE keywords.
const (
	KindCounter   = "counter"
	KindGauge     = "gauge"
	KindHistogram = "histogram"
)

// Label is one name=value pair attached to an instrument or sample.
type Label struct {
	Name  string
	Value string
}

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// Sample is one labelled value emitted by a SampleFunc family at scrape
// time.
type Sample struct {
	Labels []Label
	Value  float64
}

// Counter is a monotonically increasing value. All methods are safe for
// concurrent use and lock-free.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; negative n is ignored (counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down. All methods are safe for
// concurrent use and lock-free.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the value by n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket distribution. Bounds are inclusive upper
// bounds in the histogram's native integer unit; an implicit overflow
// bucket catches everything above the last bound. Observe is lock-free:
// one bucket increment, a sum add, and a CAS loop for the max. There is no
// separate count: Snapshot derives it from the buckets.
type Histogram struct {
	bounds []int64
	// scale converts the native unit to the exposed unit at render time
	// (1e-6 for microsecond-native, second-exposed latency histograms).
	scale   float64
	buckets []atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
}

// Observe records one value in the histogram's native unit.
func (h *Histogram) Observe(v int64) {
	// Binary search for the first bound >= v; linear would be fine for the
	// typical 7-11 buckets, but this matches sort.Search semantics exactly.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	h.buckets[lo].Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// HistogramSnapshot is a point-in-time view of a histogram. Buckets are
// per-bucket (non-cumulative) counts aligned with Bounds; the final entry
// is the overflow bucket. Count is the sum of the loaded buckets, so the
// bucket counts and Count always agree; Sum and Max are loaded separately
// and may trail or lead them by a concurrent observe, which is fine for
// monitoring.
type HistogramSnapshot struct {
	Bounds  []int64
	Buckets []int64
	Count   int64
	Sum     int64
	Max     int64
}

// Snapshot returns the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds:  h.bounds,
		Buckets: make([]int64, len(h.buckets)),
		Sum:     h.sum.Load(),
		Max:     h.max.Load(),
	}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
		s.Count += s.Buckets[i]
	}
	return s
}

// child is one labelled instrument inside a family.
type child struct {
	labels  []Label // sorted by label name
	counter *Counter
	gauge   *Gauge
	gaugeFn func() float64
	hist    *Histogram
}

// family is one metric name: help text, type, and all labelled children
// (or a scrape-time sample callback).
type family struct {
	name string
	help string
	kind string
	// Histogram families share bucket bounds and the exposition scale.
	bounds []int64
	scale  float64

	mu       sync.Mutex
	children map[string]*child
	sample   func() []Sample
}

// Registry holds the metric families and renders them (expose.go). The
// zero value is not usable; call NewRegistry.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// validName reports whether s is a legal metric or label name
// ([a-zA-Z_:][a-zA-Z0-9_:]*; colons are reserved but legal).
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || r == '_' || r == ':'
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// labelKey renders a sorted label set into the map key (and exposition
// form) used to identify a child within its family.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

// sortLabels returns a copy of labels sorted by name. Label names must be
// unique within one instrument; duplicates panic.
func sortLabels(labels []Label) []Label {
	out := append([]Label(nil), labels...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	for i, l := range out {
		if !validName(l.Name) || l.Name == "le" {
			panic(fmt.Sprintf("obs: invalid label name %q", l.Name))
		}
		if i > 0 && out[i-1].Name == l.Name {
			panic(fmt.Sprintf("obs: duplicate label name %q", l.Name))
		}
	}
	return out
}

// getFamily returns (creating if needed) the family, panicking on a kind
// conflict: two components disagreeing about what a name means is a bug.
func (r *Registry) getFamily(name, help, kind string) *family {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, children: make(map[string]*child)}
		r.families[name] = f
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.kind, kind))
	}
	return f
}

// Counter returns the counter registered under name with the given
// labels, creating it on first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	f := r.getFamily(name, help, KindCounter)
	var out *Counter
	f.child(labels, func(c *child) {
		if c.counter == nil {
			c.counter = &Counter{}
		}
		out = c.counter
	})
	return out
}

// Gauge returns the gauge registered under name with the given labels,
// creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	f := r.getFamily(name, help, KindGauge)
	var out *Gauge
	f.child(labels, func(c *child) {
		if c.gauge == nil {
			c.gauge = &Gauge{}
		}
		out = c.gauge
	})
	return out
}

// GaugeFunc registers a gauge whose value is sampled from fn at scrape
// time. Re-registering the same name and labels replaces the callback
// (last wins), which keeps boot-time registration idempotent.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	f := r.getFamily(name, help, KindGauge)
	f.child(labels, func(c *child) { c.gaugeFn = fn })
}

// Histogram returns the histogram registered under name with the given
// labels, creating it on first use. bounds are inclusive upper bounds in
// the native unit, strictly increasing; scale converts the native unit to
// the exposed one (use 1e-6 for microsecond-native seconds-exposed
// latency). Every child of one family shares the first registration's
// bounds and scale.
func (r *Registry) Histogram(name, help string, bounds []int64, scale float64, labels ...Label) *Histogram {
	if len(bounds) == 0 {
		panic(fmt.Sprintf("obs: histogram %q needs at least one bucket bound", name))
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds must be strictly increasing", name))
		}
	}
	f := r.getFamily(name, help, KindHistogram)
	var out *Histogram
	f.child(labels, func(c *child) {
		if f.bounds == nil {
			f.bounds = append([]int64(nil), bounds...)
			if scale == 0 {
				scale = 1
			}
			f.scale = scale
		}
		if c.hist == nil {
			h := &Histogram{bounds: f.bounds, scale: f.scale}
			h.buckets = make([]atomic.Int64, len(f.bounds)+1)
			c.hist = h
		}
		out = c.hist
	})
	return out
}

// SampleFunc registers a family whose labelled samples are produced by fn
// at scrape time. kind must be KindCounter or KindGauge — dynamic
// histogram families are not supported (use direct Histogram instruments
// instead). Re-registering replaces the callback.
func (r *Registry) SampleFunc(name, help, kind string, fn func() []Sample) {
	if kind != KindCounter && kind != KindGauge {
		panic(fmt.Sprintf("obs: SampleFunc %q kind must be counter or gauge, got %q", name, kind))
	}
	f := r.getFamily(name, help, kind)
	f.mu.Lock()
	f.sample = fn
	f.mu.Unlock()
}

// child looks up (creating if needed) the labelled child of the family
// and runs init on it under the family mutex, so instrument creation is
// race-free. The instrument pointers handed out through init are
// immutable after first publication, so callers may capture them once and
// use them lock-free.
func (f *family) child(labels []Label, init func(*child)) {
	sorted := sortLabels(labels)
	key := labelKey(sorted)
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.children[key]
	if !ok {
		c = &child{labels: sorted}
		f.children[key] = c
	}
	init(c)
}
