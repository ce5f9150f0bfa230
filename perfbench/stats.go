package main

import (
	"math"
	"math/bits"
	"slices"
	"sort"
	"time"
)

// subBits sets the histogram's resolution: every power-of-two octave is
// split into 2^subBits equal buckets, so a bucket's width is at most
// 1/2^subBits of its lower edge. A percentile is placed inside its
// bucket by rank, so its relative error stays below 1/2^subBits ≈ 0.8%,
// inside the 1% the benchmark promises, and it keeps all its digits
// rather than snapping to one of a few bucket values.
const subBits = 7

const subCount = 1 << subBits

// hist is a log-linear latency histogram over nanoseconds. Values below
// subCount ns get exact buckets; above, each octave has subCount
// buckets. Failed operations go to a separate overflow count that sorts
// above every recorded value, so a failure is slower than every
// percentile. The zero value is ready to use.
type hist struct {
	counts []uint64
	n      uint64 // recorded values, failures excluded
	failed uint64
	sum    float64 // ns, for means
	// exact, set before the first add, also keeps every value, and
	// percentiles are then the recorded samples themselves: for the few
	// hint reads of a window, where a bucket's share of a rank would be
	// an estimate from a handful of samples.
	exact   bool
	samples []int64
}

func bucketOf(ns int64) int {
	if ns < subCount {
		if ns < 0 {
			return 0
		}
		return int(ns)
	}
	shift := bits.Len64(uint64(ns)) - subBits - 1
	return (shift+1)*subCount + int(uint64(ns)>>uint(shift)) - subCount
}

// bucketBounds returns bucket b's lower edge and width in nanoseconds;
// the buckets below subCount ns hold one exact value and have width 0.
func bucketBounds(b int) (lo, width float64) {
	if b < subCount {
		return float64(b), 0
	}
	shift := b/subCount - 1
	return float64(uint64(subCount+b%subCount) << uint(shift)), float64(uint64(1) << uint(shift))
}

// bucketMid returns the midpoint of bucket b in nanoseconds.
func bucketMid(b int) float64 {
	lo, width := bucketBounds(b)
	return lo + width/2
}

func (h *hist) add(d time.Duration) {
	b := bucketOf(int64(d))
	if b >= len(h.counts) {
		grown := make([]uint64, b+subCount)
		copy(grown, h.counts)
		h.counts = grown
	}
	h.counts[b]++
	h.n++
	h.sum += float64(d)
	if h.exact {
		h.samples = append(h.samples, int64(d))
	}
}

// addFailed records an operation that failed or was refused.
func (h *hist) addFailed() { h.failed++ }

// merge folds o into h.
func (h *hist) merge(o *hist) {
	if len(o.counts) > len(h.counts) {
		grown := make([]uint64, len(o.counts))
		copy(grown, h.counts)
		h.counts = grown
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.failed += o.failed
	h.sum += o.sum
	h.samples = append(h.samples, o.samples...)
}

// total is the sample count percentiles are taken over.
func (h *hist) total() int64 { return int64(h.n + h.failed) }

// rankOf is the nearest-rank index (1-based) of percentile p among n
// samples: the smallest rank whose share of samples reaches p.
func rankOf(p float64, n int64) int64 {
	// The tolerance keeps decimal percentiles such as 99.9 from rounding
	// up a rank that is exact in decimal (99.9% of 10,000 is 9,990).
	r := int64(math.Ceil(p/100*float64(n) - 1e-6))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond is how many of n samples lie above the p-th percentile.
func beyond(p float64, n int64) int64 {
	if n == 0 {
		return 0
	}
	return n - rankOf(p, n)
}

// quantile returns the p-th percentile in nanoseconds; +Inf when the
// rank falls on a failed operation, NaN with no samples. The c samples
// of the bucket holding the rank are taken as spread evenly across it,
// and the rank's share of them places the value.
func (h *hist) quantile(p float64) float64 {
	n := h.total()
	if n == 0 {
		return math.NaN()
	}
	rank := rankOf(p, n)
	if h.exact {
		if rank > int64(len(h.samples)) {
			return math.Inf(1)
		}
		s := slices.Clone(h.samples)
		slices.Sort(s)
		return float64(s[rank-1])
	}
	var cum uint64
	for b, c := range h.counts {
		if c > 0 && int64(cum+c) >= rank {
			lo, width := bucketBounds(b)
			return lo + width*(float64(rank-int64(cum))-0.5)/float64(c)
		}
		cum += c
	}
	return math.Inf(1)
}

// mean returns the mean of the recorded (non-failed) values in ns.
func (h *hist) mean() float64 {
	if h.n == 0 {
		return math.NaN()
	}
	return h.sum / float64(h.n)
}

// tailPercentiles are the candidates for a reported tail, in ascending
// order.
var tailPercentiles = []float64{50, 90, 99, 99.9, 99.99, 99.999}

// minBeyond is how many samples must lie above a percentile before it
// is reported as a tail.
const minBeyond = 10

// tailPercentile picks the highest candidate percentile with at least
// minBeyond samples above it among n; 0 when even the median has too
// few.
func tailPercentile(n int64) float64 {
	best := 0.0
	for _, p := range tailPercentiles {
		if beyond(p, n) >= minBeyond {
			best = p
		}
	}
	return best
}

// median returns the median of xs (mean of the middle pair for even
// lengths); NaN for none. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func ms(ns float64) float64 { return ns / 1e6 }

// sliceLen is the length of the time slices whose percentiles are
// reduced to a median.
const sliceLen = time.Second

// sliceQuantile is the median over slices of each slice's p-th
// percentile, skipping empty slices.
func sliceQuantile(slices []hist, p float64) float64 {
	var qs []float64
	for i := range slices {
		if slices[i].total() > 0 {
			qs = append(qs, slices[i].quantile(p))
		}
	}
	return median(qs)
}

// minSlice is the smallest sample count among slices.
func minSlice(slices []hist) int64 {
	m := int64(-1)
	for i := range slices {
		if n := slices[i].total(); m < 0 || n < m {
			m = n
		}
	}
	return m
}
