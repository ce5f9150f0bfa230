package main

import (
	"testing"
	"time"
)

func TestPacerSchedulesRateTimesWindow(t *testing.T) {
	start := time.Unix(1000, 0)
	for _, c := range []struct {
		rate   float64
		window time.Duration
		want   int64
	}{
		{150_000, 10 * time.Second, 1_500_000},
		{20_000, 10 * time.Second, 200_000},
		{10, 10 * time.Second, 100},
		{3, time.Second, 3},
		{7, 1500 * time.Millisecond, 11}, // k/7 < 1.5 for k = 0..10
	} {
		p := newPacer(start, c.rate, c.window)
		if got := p.total(); got != c.want {
			t.Errorf("rate %g over %v: %d operations, want %d", c.rate, c.window, got, c.want)
		}
		if !p.at(p.total() - 1).Before(p.end) {
			t.Errorf("rate %g: last operation due at or after the window end", c.rate)
		}
	}
}

func TestPacerDueTimesAreAbsolute(t *testing.T) {
	start := time.Unix(1000, 0)
	p := newPacer(start, 150_000, time.Second)
	if got := p.dueBy(start.Add(-time.Nanosecond)); got != 0 {
		t.Fatalf("due before start = %d, want 0", got)
	}
	for _, k := range []int64{0, 1, 2, 149, 150, 74_999, 149_999} {
		at := p.at(k)
		if got := p.dueBy(at); got != k+1 {
			t.Fatalf("dueBy(at(%d)) = %d, want %d", k, got, k+1)
		}
		if got := p.dueBy(at.Add(-time.Nanosecond)); got != k {
			t.Fatalf("dueBy(at(%d) - 1ns) = %d, want %d", k, got, k)
		}
	}
	if got := p.dueBy(start.Add(time.Hour)); got != p.total() {
		t.Fatalf("due after the window = %d, want all %d", got, p.total())
	}
	// Operation k's due time does not depend on when earlier ones were
	// sent: it is start + k/rate.
	if d := p.at(75_000).Sub(start); d != 500*time.Millisecond {
		t.Fatalf("operation 75000 due at %v, want 500ms", d)
	}
}
