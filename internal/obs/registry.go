// Package obs is the repo's zero-dependency observability layer: a
// metrics registry (atomic counters, gauges, and log-linear
// histograms with quantile estimation) with Prometheus text-format
// exposition, a span recorder that emits Chrome-trace JSON for offline
// flame views, and the shared phase-breakdown formatter used by both
// the CLI and the serve daemon.
//
// Everything here is instrumentation, and instrumentation must be
// trajectory-neutral: no function in this package draws randomness,
// touches simulation state, or reorders floating-point work. Metric
// updates are single atomic integer operations (allocation-free after
// registration), so they are safe on the submit path and inside round
// loops; the bit-exact parity suites run with this instrumentation
// permanently enabled.
package obs

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Label is one constant name=value pair attached to a metric at
// registration time. Labels never change after registration — dynamic
// label values would allocate on the hot path.
type Label struct {
	Key, Value string
}

// metricKind discriminates exposition TYPE lines.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// metric is one registered series (or histogram family member).
type metric struct {
	name   string
	help   string
	kind   metricKind
	labels []Label
	// scale multiplies the raw integer value at exposition time; 0
	// means 1. It lets nanosecond counters expose as seconds without
	// floating-point work on the update path.
	scale float64

	c  *Counter
	g  *Gauge
	gf func() float64
	h  *Histogram
}

// Registry holds registered metrics and renders them in Prometheus
// text format. Registration takes a lock; updates on the returned
// handles are lock-free atomics.
type Registry struct {
	mu      sync.Mutex
	metrics []*metric
	byKey   map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]*metric)}
}

// seriesKey identifies a metric by name plus its sorted label set.
func seriesKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	k := name
	for _, l := range ls {
		k += "\x00" + l.Key + "\x01" + l.Value
	}
	return k
}

// validName reports whether s is a legal Prometheus metric or label
// name: [a-zA-Z_][a-zA-Z0-9_]* (metric names additionally allow ':',
// which we do not use and therefore do not accept).
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func (r *Registry) register(m *metric) *metric {
	if !validName(m.name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", m.name))
	}
	for _, l := range m.labels {
		if !validName(l.Key) {
			panic(fmt.Sprintf("obs: invalid label name %q on %q", l.Key, m.name))
		}
	}
	key := seriesKey(m.name, m.labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.byKey[key]; ok {
		if prev.kind != m.kind {
			panic(fmt.Sprintf("obs: metric %q re-registered with different type", m.name))
		}
		return prev
	}
	r.byKey[key] = m
	r.metrics = append(r.metrics, m)
	return m
}

// Counter is a monotonically non-decreasing integer series.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Set raises the counter to v; lower values are ignored so the series
// stays monotone. Used for cumulative totals the producer already
// tracks (round number, total moves).
func (c *Counter) Set(v uint64) {
	for {
		cur := c.v.Load()
		if v <= cur || c.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// NewCounter registers (or returns the existing) counter under name.
func (r *Registry) NewCounter(name, help string, labels ...Label) *Counter {
	m := r.register(&metric{name: name, help: help, kind: kindCounter, labels: labels, c: &Counter{}})
	return m.c
}

// NewCounterScaled registers a counter whose raw integer value is
// multiplied by scale at exposition time — e.g. a nanosecond
// accumulator exposed as a `_seconds_total` series with scale 1e-9.
func (r *Registry) NewCounterScaled(name, help string, scale float64, labels ...Label) *Counter {
	m := r.register(&metric{name: name, help: help, kind: kindCounter, labels: labels, scale: scale, c: &Counter{}})
	return m.c
}

// Gauge is a settable float series (value stored as IEEE-754 bits in a
// uint64 atomic).
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// SetMax raises the gauge to v if v is larger — a high-water mark.
func (g *Gauge) SetMax(v float64) {
	for {
		cur := g.bits.Load()
		if v <= math.Float64frombits(cur) || g.bits.CompareAndSwap(cur, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// NewGauge registers (or returns the existing) gauge under name.
func (r *Registry) NewGauge(name, help string, labels ...Label) *Gauge {
	m := r.register(&metric{name: name, help: help, kind: kindGauge, labels: labels, g: &Gauge{}})
	return m.g
}

// NewGaugeFunc registers a gauge whose value is computed by f at
// scrape time. f must be safe to call from the exposition goroutine.
func (r *Registry) NewGaugeFunc(name, help string, f func() float64, labels ...Label) {
	r.register(&metric{name: name, help: help, kind: kindGauge, labels: labels, gf: f})
}

// Histogram is a log-linear integer histogram: every octave [2ᵉ, 2ᵉ⁺¹)
// splits into 2³ equal-width buckets, so a bucket's width is at most
// 1/8 of its lower bound and a quantile read as a bucket's upper bound
// overestimates by at most 12.5%. Values 0..7 get exact buckets,
// negative values count as 0, and values at or above 2^octaves clamp
// into a final overflow bucket. Observe is a two-atomic-add operation
// with an O(1) bucket index.
type Histogram struct {
	buckets []atomic.Uint64
	sum     atomic.Int64
	count   atomic.Uint64
}

// subBits is log₂ of the sub-buckets per octave.
const subBits = 3

// histogramBuckets returns the bucket count of a histogram resolving
// values below 2^octaves: 2³ exact buckets for 0..7, 2³ per octave
// above, and the overflow bucket.
func histogramBuckets(octaves int) int { return (octaves-subBits+1)<<subBits + 1 }

// NewHistogram registers a histogram resolving values below 2^octaves
// with 12.5% relative error; larger values land in its overflow
// bucket.
func (r *Registry) NewHistogram(name, help string, octaves int, labels ...Label) *Histogram {
	if octaves < subBits || octaves > 62 {
		panic(fmt.Sprintf("obs: histogram %q needs %d..62 octaves, got %d", name, subBits, octaves))
	}
	m := r.register(&metric{name: name, help: help, kind: kindHistogram, labels: labels,
		h: &Histogram{buckets: make([]atomic.Uint64, histogramBuckets(octaves))}})
	return m.h
}

// BucketOf returns the log-linear bucket index for v in an n-bucket
// histogram: v itself below 2³, then 2³ buckets per octave, clamped to
// the last bucket.
func BucketOf(v int64, n int) int {
	if v < 1<<subBits {
		return min(int(max(v, 0)), n-1)
	}
	e := bits.Len64(uint64(v)) - 1 // v ∈ [2ᵉ, 2ᵉ⁺¹), e ≥ 3
	sub := int(v>>(e-subBits)) & (1<<subBits - 1)
	return min((e-subBits+1)<<subBits+sub, n-1)
}

// bucketUpper returns bucket k's exclusive upper bound: k+1 for the
// exact buckets, (9+j)·2^(e−3) for sub-bucket j of octave e.
func bucketUpper(k int) int64 {
	if k < 1<<subBits {
		return int64(k) + 1
	}
	e := k>>subBits + subBits - 1
	m := int64(k&(1<<subBits-1)) + 1<<subBits
	return (m + 1) << (e - subBits)
}

// Observe records one value. Allocation-free.
func (h *Histogram) Observe(v int64) {
	h.buckets[BucketOf(v, len(h.buckets))].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// snapshot copies the bucket counts.
func (h *Histogram) snapshot() []uint64 {
	out := make([]uint64, len(h.buckets))
	for k := range h.buckets {
		out[k] = h.buckets[k].Load()
	}
	return out
}

// Quantile returns the upper bound (in the histogram's unit) of the
// bucket where the cumulative count crosses q∈[0,1], or 0 for an
// empty histogram — at most a 12.5% overestimate by construction. A
// quantile in the overflow bucket reads as its lower bound, the
// largest value the histogram resolves.
func (h *Histogram) Quantile(q float64) float64 {
	return QuantileOf(h.snapshot(), q)
}

// QuantileOf is Quantile over an already-snapshotted bucket slice.
func QuantileOf(hist []uint64, q float64) float64 {
	var total uint64
	for _, c := range hist {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := uint64(q * float64(total))
	if target >= total {
		target = total - 1
	}
	k, cum := 0, hist[0]
	for cum <= target {
		k++
		cum += hist[k]
	}
	if k > 0 && k == len(hist)-1 {
		k-- // the overflow bucket: report the lower bound it starts at
	}
	return float64(bucketUpper(k))
}
