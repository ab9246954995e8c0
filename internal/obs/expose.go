package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// ContentType is the Prometheus text exposition content type.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// escapeLabelValue escapes a label value per the exposition format:
// backslash, double-quote and newline.
func escapeLabelValue(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp escapes a HELP string: backslash and newline only.
func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// formatValue renders a float64 sample value.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// writeSample writes one exposition line: name{labels} value.
func writeSample(w *bufio.Writer, name, labels string, v float64) {
	w.WriteString(name)
	if labels != "" {
		w.WriteByte('{')
		w.WriteString(labels)
		w.WriteByte('}')
	}
	w.WriteByte(' ')
	w.WriteString(formatValue(v))
	w.WriteByte('\n')
}

// joinLabels appends extra rendered pairs to an existing rendered label
// string.
func joinLabels(base, extra string) string {
	if base == "" {
		return extra
	}
	if extra == "" {
		return base
	}
	return base + "," + extra
}

// WritePrometheus renders every registered family in Prometheus text
// exposition format 0.0.4: families sorted by name, each preceded by
// exactly one # HELP and # TYPE line, histogram buckets cumulative with
// an explicit le="+Inf" terminal bucket plus _sum and _count series.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	bw := bufio.NewWriter(w)
	for _, f := range fams {
		f.write(bw)
	}
	return bw.Flush()
}

// write renders one family.
func (f *family) write(w *bufio.Writer) {
	f.mu.Lock()
	kids := make([]*child, 0, len(f.children))
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		kids = append(kids, f.children[k])
	}
	sample := f.sample
	scale := f.scale
	f.mu.Unlock()

	var samples []Sample
	if sample != nil {
		samples = sample()
	}
	if len(kids) == 0 && samples == nil {
		// A family with no children and no sampler yet (shouldn't happen,
		// every registration creates one or the other) — skip.
		return
	}

	fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind)

	for _, c := range kids {
		labels := labelKey(c.labels)
		switch {
		case c.counter != nil:
			writeSample(w, f.name, labels, float64(c.counter.Value()))
		case c.gaugeFn != nil:
			writeSample(w, f.name, labels, c.gaugeFn())
		case c.hist != nil:
			writeHistogram(w, f.name, labels, c.hist.Snapshot(), scale)
		}
	}
	for _, s := range samples {
		writeSample(w, f.name, labelKey(sortLabels(s.Labels)), s.Value)
	}
}

// writeHistogram renders one histogram child: cumulative le-labelled
// buckets ending in +Inf, then _sum and _count. Bucket bounds and the sum
// are rescaled from the native unit to the exposed unit.
func writeHistogram(w *bufio.Writer, name, labels string, s HistogramSnapshot, scale float64) {
	if scale == 0 {
		scale = 1
	}
	var cum int64
	for i, bound := range s.Bounds {
		cum += s.Buckets[i]
		le := `le="` + formatValue(float64(bound)*scale) + `"`
		writeSample(w, name+"_bucket", joinLabels(labels, le), float64(cum))
	}
	cum += s.Buckets[len(s.Bounds)]
	writeSample(w, name+"_bucket", joinLabels(labels, `le="+Inf"`), float64(cum))
	writeSample(w, name+"_sum", labels, float64(s.Sum)*scale)
	writeSample(w, name+"_count", labels, float64(s.Count))
}
