// Package metrics is a small process-wide metrics registry exported in
// the Prometheus text exposition format. It exists so the server (and
// any embedder) can publish query latency histograms, per-operation
// counters and cache/storage gauges over a plain HTTP endpoint without
// pulling in external dependencies.
//
// Instruments are cheap: counters and histograms are lock-free atomics
// on the update path, and gauges are computed lazily at scrape time
// from caller-supplied callbacks. Registration is idempotent — asking a
// registry for an instrument that already exists returns the existing
// one — so independent components (several servers over one process,
// tests) can share the default registry without coordination.
package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d (negative deltas are ignored:
// counters only go up).
func (c *Counter) Add(d int64) {
	if d > 0 {
		c.v.Add(d)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// CounterVec is a family of counters partitioned by one label.
type CounterVec struct {
	mu sync.Mutex
	m  map[string]*Counter
}

// With returns the counter for a label value, creating it on first use.
func (cv *CounterVec) With(value string) *Counter {
	cv.mu.Lock()
	defer cv.mu.Unlock()
	c, ok := cv.m[value]
	if !ok {
		c = &Counter{}
		cv.m[value] = c
	}
	return c
}

// samples returns the family's values sorted by label value.
func (cv *CounterVec) samples() []Sample {
	cv.mu.Lock()
	defer cv.mu.Unlock()
	out := make([]Sample, 0, len(cv.m))
	for k, c := range cv.m {
		out = append(out, Sample{Label: k, Value: float64(c.Value())})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Label < out[j].Label })
	return out
}

// Histogram is a fixed-bucket cumulative histogram of float64
// observations (typically seconds). Observation is lock-free.
type Histogram struct {
	bounds []float64 // upper bounds, ascending; +Inf implicit
	counts []atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
	count  atomic.Int64
}

// DefBuckets are the default latency buckets in seconds: 100µs to 30s,
// roughly ×3 apart — wide enough to cover both cache-hit metadata
// queries and multi-second external-storage scans.
var DefBuckets = []float64{0.0001, 0.0003, 0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1, 3, 10, 30}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i].Add(1)
			break
		}
	}
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations recorded.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Sample is one value of a series: the label value within a labelled
// family ("" for an unlabelled series) and the series value.
type Sample struct {
	Label string
	Value float64
}

// metric is one registered instrument with its metadata. Every
// instrument but a histogram renders through its samples reader; inst
// is the handle Counter, CounterVec or Histogram returned, handed out
// again on re-registration (registering one name as two kinds of
// counter is a programming error and panics).
type metric struct {
	name, help, typ string
	label           string // label name of a labelled family
	samples         func() []Sample
	hist            *Histogram
	inst            any
}

// single adapts a one-series reader to a samples reader.
func single(fn func() float64) func() []Sample {
	return func() []Sample { return []Sample{{Value: fn()}} }
}

// each emits the metric's samples as (series key, value) pairs, the
// key being the name plus any label set. Histogram buckets are emitted
// only when buckets is set; _sum and _count always are.
func (m *metric) each(buckets bool, emit func(key string, v float64)) {
	if h := m.hist; h != nil {
		if buckets {
			cum := int64(0)
			for i, b := range h.bounds {
				cum += h.counts[i].Load()
				emit(labelled(m.name+"_bucket", "le", formatBound(b)), float64(cum))
			}
			emit(labelled(m.name+"_bucket", "le", "+Inf"), float64(h.Count()))
		}
		emit(m.name+"_sum", h.Sum())
		emit(m.name+"_count", float64(h.Count()))
		return
	}
	for _, s := range m.samples() {
		if m.label == "" {
			emit(m.name, s.Value)
		} else {
			emit(labelled(m.name, m.label, s.Label), s.Value)
		}
	}
}

func labelled(name, label, value string) string {
	return fmt.Sprintf("%s{%s=%q}", name, label, value)
}

// Registry holds named instruments and renders them in the Prometheus
// text format. The zero value is not usable; use NewRegistry or
// Default.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
	order   []string
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: map[string]*metric{}}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide default registry.
func Default() *Registry { return defaultRegistry }

func (r *Registry) lookup(name, typ string) *metric {
	m, ok := r.metrics[name]
	if !ok {
		return nil
	}
	if m.typ != typ {
		panic(fmt.Sprintf("metrics: %s re-registered as %s (was %s)", name, typ, m.typ))
	}
	return m
}

// Counter returns the named counter, creating it on first registration.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.lookup(name, "counter"); m != nil {
		return m.inst.(*Counter)
	}
	c := &Counter{}
	r.add(&metric{name: name, help: help, typ: "counter", inst: c,
		samples: single(func() float64 { return float64(c.Value()) })})
	return c
}

// CounterVec returns the named counter family partitioned by label,
// creating it on first registration.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.lookup(name, "counter"); m != nil {
		return m.inst.(*CounterVec)
	}
	cv := &CounterVec{m: map[string]*Counter{}}
	r.add(&metric{name: name, help: help, typ: "counter", label: label, samples: cv.samples, inst: cv})
	return cv
}

// Histogram returns the named histogram, creating it with the given
// bucket upper bounds (nil = DefBuckets) on first registration.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.lookup(name, "histogram"); m != nil {
		return m.inst.(*Histogram)
	}
	if buckets == nil {
		buckets = DefBuckets
	}
	h := &Histogram{bounds: buckets, counts: make([]atomic.Int64, len(buckets))}
	r.add(&metric{name: name, help: help, typ: "histogram", hist: h, inst: h})
	return h
}

// GaugeFunc registers a gauge computed by fn at scrape time. Re-
// registering a name replaces the callback — the natural semantics for
// process-wide state like "triples loaded" when an instance is
// replaced.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(&metric{name: name, help: help, typ: "gauge", samples: single(fn)})
}

// CounterFunc registers a counter whose monotonic value fn reads at
// scrape time from the component that owns it. Re-registering a name
// replaces the callback, as GaugeFunc does.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(&metric{name: name, help: help, typ: "counter", samples: single(fn)})
}

// CounterFuncVec registers a counter family partitioned by label whose
// samples fn reads at scrape time. Re-registering a name replaces the
// callback.
func (r *Registry) CounterFuncVec(name, help, label string, fn func() []Sample) {
	r.register(&metric{name: name, help: help, typ: "counter", label: label, samples: fn})
}

// register adds a scrape-time metric, or swaps the reader of an
// existing one of the same type.
func (r *Registry) register(m *metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if old := r.lookup(m.name, m.typ); old != nil {
		old.label, old.samples = m.label, m.samples
		return
	}
	r.add(m)
}

func (r *Registry) add(m *metric) {
	r.metrics[m.name] = m
	r.order = append(r.order, m.name)
	sort.Strings(r.order)
}

// metricsCopy returns the registered metrics, sorted by name, copied
// under the lock so readers swapped in by a later registration cannot
// race the caller.
func (r *Registry) metricsCopy() []metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	ms := make([]metric, 0, len(r.order))
	for _, name := range r.order {
		ms = append(ms, *r.metrics[name])
	}
	return ms
}

// WritePrometheus renders every registered instrument in the Prometheus
// text exposition format, sorted by metric name.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var sb strings.Builder
	for _, m := range r.metricsCopy() {
		fmt.Fprintf(&sb, "# HELP %s %s\n# TYPE %s %s\n", m.name, m.help, m.name, m.typ)
		m.each(true, func(key string, v float64) { fmt.Fprintf(&sb, "%s %s\n", key, formatValue(v)) })
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// Snapshot returns the current value of every series keyed as in the
// exposition: the metric name, plus its label set for labelled
// families (`ssdm_requests_total{op="query"}`). Histograms contribute
// their _sum and _count series.
func (r *Registry) Snapshot() map[string]float64 {
	out := map[string]float64{}
	for _, m := range r.metricsCopy() {
		m.each(false, func(key string, v float64) { out[key] = v })
	}
	return out
}

// formatValue renders a sample value: integral values as integers (a
// counter of a million is "1000000", not "1e+06"), others in the
// shortest float form.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func formatBound(b float64) string {
	return strconv.FormatFloat(b, 'g', -1, 64)
}

// Handler returns an http.Handler serving the registry as a Prometheus
// scrape target — mount it at /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}
