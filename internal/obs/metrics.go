// Package obs is the solver's observation substrate: a dependency-free
// metrics registry with Prometheus text exposition, a lightweight span
// tracer recording per-job stage timelines, and a bounded per-iteration
// convergence sampler. The paper's whole method is instrumented measurement
// of an iterative machine — m-step cost models validated against observed
// sweep counts — and this package is what lets the running engine observe
// itself the same way: every counter is an atomic, every histogram a fixed
// bucket array, and the steady-state solve path records without allocating.
//
// The package depends only on the standard library and is imported from
// below (cg defines the Observer interface itself, so the solver kernels
// never see obs); internal/engine wires the three pieces together and
// internal/service exposes them over HTTP.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// MetricType distinguishes the exposition families.
type MetricType int

const (
	TypeCounter MetricType = iota
	TypeGauge
	TypeHistogram
)

func (t MetricType) String() string {
	switch t {
	case TypeCounter:
		return "counter"
	case TypeGauge:
		return "gauge"
	case TypeHistogram:
		return "histogram"
	}
	return "untyped"
}

// Label is one name/value pair attached to a series. Labeled constructors
// take ordered slices rather than maps so exposition is deterministic.
type Label struct {
	Key, Value string
}

// Counter is a monotonically increasing value.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (n < 0 is ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Histogram counts observations into fixed buckets (upper bounds,
// inclusive, ascending; an implicit +Inf bucket catches the rest). All
// updates are atomic — Observe never locks and never allocates.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Int64 // len(bounds)+1; last is the +Inf overflow
	count   atomic.Int64
	sumBits atomic.Uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	// Linear scan: bucket counts are small (≤ ~20) and the scan is
	// branch-predictable; a binary search would not pay for itself.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// series is one exposition line: a concrete instrument or a func-backed
// read-through (queue depth, uptime — values that already live elsewhere
// and must not be double-bookkept).
type series struct {
	labels []Label
	c      *Counter
	h      *Histogram
	fn     func() float64
}

// family groups the series sharing one metric name.
type family struct {
	name, help string
	typ        MetricType
	bounds     []float64 // histogram families only

	mu     sync.Mutex
	series []*series
	byKey  map[string]*series
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. Registration (the Counter, Histogram and *Func calls)
// locks; the returned instruments are lock-free. A Registry is safe for
// concurrent use.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// family returns (creating if needed) the named family, enforcing that
// every registration of a name agrees on type and buckets. Conflicting
// re-registration is a programming error and panics.
func (r *Registry) family(name, help string, typ MetricType, bounds []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, bounds: bounds, byKey: make(map[string]*series)}
		r.families[name] = f
		return f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, typ, f.typ))
	}
	return f
}

// labelKey canonicalizes a label set for series identity.
func labelKey(labels []Label) string {
	var b strings.Builder
	for _, l := range labels {
		b.WriteString(l.Key)
		b.WriteByte(1)
		b.WriteString(l.Value)
		b.WriteByte(2)
	}
	return b.String()
}

// add registers s under its label key, or returns the existing series with
// the same labels (so repeated registration hands back one instrument).
func (f *family) add(s *series) *series {
	key := labelKey(s.labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if old, ok := f.byKey[key]; ok {
		return old
	}
	f.byKey[key] = s
	f.series = append(f.series, s)
	return s
}

// Counter registers (or returns) the unlabeled counter name.
func (r *Registry) Counter(name, help string) *Counter {
	return r.LabeledCounter(name, help)
}

// LabeledCounter registers (or returns) the counter series with the given
// labels.
func (r *Registry) LabeledCounter(name, help string, labels ...Label) *Counter {
	f := r.family(name, help, TypeCounter, nil)
	s := f.add(&series{labels: labels, c: &Counter{}})
	return s.c
}

// CounterFunc registers a func-backed counter series: fn is read at
// exposition time and must be monotonically non-decreasing.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	f := r.family(name, help, TypeCounter, nil)
	f.add(&series{labels: labels, fn: fn})
}

// GaugeFunc registers a func-backed gauge series, read at exposition time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	f := r.family(name, help, TypeGauge, nil)
	f.add(&series{labels: labels, fn: fn})
}

// Histogram registers (or returns) a histogram with the given bucket upper
// bounds (ascending; +Inf is implicit). Re-registrations share the first
// registration's buckets.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q buckets not ascending: %v", name, bounds))
		}
	}
	f := r.family(name, help, TypeHistogram, bounds)
	h := &Histogram{bounds: f.bounds, buckets: make([]atomic.Int64, len(f.bounds)+1)}
	s := f.add(&series{labels: labels, h: h})
	return s.h
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// escapeHelp escapes a help string per the exposition format.
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// renderLabels formats {k="v",...}, with extra appended after the series
// labels (the histogram "le" bound).
func renderLabels(labels []Label, extra ...Label) string {
	all := make([]Label, 0, len(labels)+len(extra))
	all = append(all, labels...)
	all = append(all, extra...)
	if len(all) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range all {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, l.Key, escapeLabel(l.Value))
	}
	b.WriteByte('}')
	return b.String()
}

// formatValue renders a sample value the way Prometheus expects.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return formatFloat(v)
}

// formatFloat prints integers without an exponent and everything else with
// %g precision.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// WriteProm renders every family in Prometheus text exposition format
// (version 0.0.4): families sorted by name, series in registration order,
// histograms as cumulative _bucket/_sum/_count lines.
func (r *Registry) WriteProm(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()

	for _, f := range fams {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, escapeHelp(f.help), f.name, f.typ); err != nil {
			return err
		}
		f.mu.Lock()
		ss := make([]*series, len(f.series))
		copy(ss, f.series)
		f.mu.Unlock()
		for _, s := range ss {
			if err := writeSeries(w, f, s); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, f *family, s *series) error {
	switch {
	case s.h != nil:
		cum := int64(0)
		for i, bound := range s.h.bounds {
			cum += s.h.buckets[i].Load()
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, renderLabels(s.labels, Label{"le", formatValue(bound)}), cum); err != nil {
				return err
			}
		}
		cum += s.h.buckets[len(s.h.bounds)].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, renderLabels(s.labels, Label{"le", "+Inf"}), cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, renderLabels(s.labels), formatValue(s.h.Sum())); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, renderLabels(s.labels), s.h.Count())
		return err
	case s.fn != nil:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, renderLabels(s.labels), formatValue(s.fn()))
		return err
	case s.c != nil:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, renderLabels(s.labels), s.c.Value())
		return err
	}
	return nil
}
