package main

import "time"

// pacer is an open-loop schedule: operation k is due at start + k/rate,
// whatever happened to earlier operations. Latencies are measured from
// these due times, so a stall that delays sending is charged to every
// operation it delays (no coordinated omission).
type pacer struct {
	start time.Time
	rate  float64 // operations per second
	end   time.Time
}

func newPacer(start time.Time, rate float64, window time.Duration) pacer {
	return pacer{start: start, rate: rate, end: start.Add(window)}
}

// at returns operation k's due time.
func (p pacer) at(k int64) time.Time {
	return p.start.Add(time.Duration(float64(k) / p.rate * float64(time.Second)))
}

// dueBy returns how many operations are due at or before t and inside
// the window: the schedule's k with at(k) ≤ min(t, end) and at(k) < end.
func (p pacer) dueBy(t time.Time) int64 {
	if t.Before(p.start) {
		return 0
	}
	if !t.Before(p.end) {
		return p.total()
	}
	k := int64(t.Sub(p.start).Seconds()*p.rate) + 1
	for k > 0 && p.at(k-1).After(t) {
		k--
	}
	for !p.at(k).After(t) {
		k++
	}
	return k
}

// total is the number of operations the window schedules: every k with
// at(k) before end.
func (p pacer) total() int64 {
	k := int64(p.end.Sub(p.start).Seconds() * p.rate)
	for k > 0 && !p.at(k-1).Before(p.end) {
		k--
	}
	for p.at(k).Before(p.end) {
		k++
	}
	return k
}
