package main

import (
	"math"
	"testing"
	"time"
)

func TestBucketRelativeError(t *testing.T) {
	for v := int64(1); v < 1e12; v = v*11/10 + 1 {
		mid := bucketMid(bucketOf(v))
		if rel := math.Abs(mid-float64(v)) / float64(v); rel > 0.01 {
			t.Fatalf("value %d lands in a bucket with midpoint %g: relative error %.4f > 1%%", v, mid, rel)
		}
	}
}

func TestBucketsAreContiguousAndOrdered(t *testing.T) {
	prev := -1
	for v := int64(0); v < 1<<20; v++ {
		b := bucketOf(v)
		if b < prev || b > prev+1 {
			t.Fatalf("value %d: bucket %d after bucket %d", v, b, prev)
		}
		prev = b
	}
}

func TestQuantileNearestRank(t *testing.T) {
	var h hist
	for i := 1; i <= 1000; i++ {
		h.add(time.Duration(i) * time.Millisecond)
	}
	for _, c := range []struct{ p, want float64 }{{50, 500}, {90, 900}, {99, 990}, {99.9, 999}, {100, 1000}} {
		got := ms(h.quantile(c.p))
		if math.Abs(got-c.want)/c.want > 0.01 {
			t.Errorf("p%g = %g ms, want %g ms within 1%%", c.p, got, c.want)
		}
	}
	if got := ms(h.mean()); math.Abs(got-500.5) > 1e-9 {
		t.Errorf("mean = %g ms, want 500.5", got)
	}
}

func TestFailuresAreSlowerThanEveryPercentile(t *testing.T) {
	var h hist
	for i := 0; i < 99; i++ {
		h.add(time.Millisecond)
	}
	h.addFailed()
	if q := h.quantile(99); math.IsInf(q, 1) {
		t.Fatalf("p99 with 1 failure in 100 is +Inf, want the slowest success")
	}
	if q := h.quantile(100); !math.IsInf(q, 1) {
		t.Fatalf("p100 with a failure = %g, want +Inf", q)
	}
	h.addFailed()
	if q := h.quantile(99); !math.IsInf(q, 1) {
		t.Fatalf("p99 with 2 failures in 101 = %g, want +Inf", q)
	}
	if h.total() != 101 {
		t.Fatalf("total = %d, want 101", h.total())
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int64
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99},
		{10_000, 99.9}, {100_000, 99.99}, {1_500_000, 99.999},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
		if c.want > 0 && beyond(c.want, c.n) < minBeyond {
			t.Errorf("n=%d: p%g has only %d samples beyond", c.n, c.want, beyond(c.want, c.n))
		}
	}
}

func TestSliceQuantileIsMedianOfSlices(t *testing.T) {
	slices := make([]hist, 4)
	for i, v := range []time.Duration{1, 5, 3} {
		slices[i].add(v * time.Millisecond)
	}
	// slices[3] is empty and skipped.
	if got := ms(sliceQuantile(slices, 50)); math.Abs(got-3) > 0.03 {
		t.Fatalf("median of slice medians = %g ms, want 3", got)
	}
	if m := minSlice(slices); m != 0 {
		t.Fatalf("minSlice = %d, want 0", m)
	}
}

func TestMedian(t *testing.T) {
	if !math.IsNaN(median(nil)) {
		t.Fatal("median of nothing should be NaN")
	}
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Fatalf("median = %g, want 2.5", got)
	}
	if xs[0] != 4 {
		t.Fatal("median reordered its input")
	}
}

func TestSelfTimesSubtractChildrenOnce(t *testing.T) {
	var tr tracer
	root := tr.add("root", 0, 100, -1, 1)
	tr.add("a", 10, 40, root, 1)
	tr.add("b", 30, 60, root, 1)  // overlaps a by 10
	tr.add("c", 90, 120, root, 1) // runs past the root's end
	st := selfTimes(tr.spans)
	if got := st["root"]; got.ns != 100-50-10 || got.count != 1 {
		t.Fatalf("root self = %+v, want 40 ns over 1 span", got)
	}
	if got := st["a"].ns; got != 30 {
		t.Fatalf("a self = %d, want 30", got)
	}
}

// Percentiles that fall in one bucket are placed inside it by rank
// instead of all reading the bucket's midpoint.
func TestQuantileInterpolatesWithinBucket(t *testing.T) {
	var h hist
	for i := 0; i < 100; i++ {
		h.add(time.Millisecond)
	}
	lo, width := bucketBounds(bucketOf(int64(time.Millisecond)))
	prev := math.Inf(-1)
	for _, p := range []float64{10, 50, 90} {
		q := h.quantile(p)
		if q < lo || q >= lo+width || q <= prev {
			t.Fatalf("p%g = %g ns, want inside [%g, %g) and above p-lower %g", p, q, lo, lo+width, prev)
		}
		prev = q
	}
}

// An exact histogram's percentiles are recorded samples, merged ones
// included, and a failure still sorts above every value.
func TestExactQuantileIsASample(t *testing.T) {
	a, b := hist{exact: true}, hist{exact: true}
	for i := 1; i <= 5; i++ {
		a.add(time.Duration(i) * time.Millisecond)
		b.add(time.Duration(i+5) * time.Millisecond)
	}
	a.merge(&b)
	a.addFailed()
	for _, c := range []struct{ p, want float64 }{{50, 6e6}, {90, 10e6}} {
		if got := a.quantile(c.p); got != c.want {
			t.Errorf("p%g = %g ns, want the sample %g ns", c.p, got, c.want)
		}
	}
	if got := a.quantile(100); !math.IsInf(got, 1) {
		t.Errorf("p100 = %g, want +Inf for the failed read", got)
	}
}
