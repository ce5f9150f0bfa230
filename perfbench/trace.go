package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the call. Times are nanoseconds since the tracer's epoch.
// ID groups the spans of one request: the admission round (serve),
// seed·2³² + round (converge) or the round (cluster).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index of the parent span, -1 for a root
	ID     uint64 `json:"id"`
}

// tracer keeps spans in memory until the run ends. Times are
// nanoseconds since the window's epoch. Only one goroutine adds spans.
type tracer struct {
	spans []span
}

// add records a span and returns its index for use as a parent.
func (t *tracer) add(name string, start, end int64, parent int32, id uint64) int32 {
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: parent, ID: id})
	return int32(len(t.spans) - 1)
}

// selfStat is the summed self time and the number of spans of one name.
type selfStat struct {
	ns    int64
	count int64
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval that its children cover (overlapping children counted
// once).
func selfTimes(spans []span) map[string]selfStat {
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	out := make(map[string]selfStat)
	for i, s := range spans {
		covered := int64(0)
		kids := children[int32(i)]
		if len(kids) > 0 {
			iv := make([][2]int64, 0, len(kids))
			for _, k := range kids {
				lo, hi := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
				if hi > lo {
					iv = append(iv, [2]int64{lo, hi})
				}
			}
			sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
			curLo, curHi := int64(-1), int64(-1)
			for _, x := range iv {
				if x[0] > curHi {
					covered += curHi - curLo
					curLo, curHi = x[0], x[1]
				} else if x[1] > curHi {
					curHi = x[1]
				}
			}
			covered += curHi - curLo
		}
		st := out[s.Name]
		st.ns += (s.End - s.Start) - covered
		st.count++
		out[s.Name] = st
	}
	return out
}

// selfNotes renders per-name mean self times, sorted by name.
func selfNotes(spans []span) []string {
	st := selfTimes(spans)
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Strings(names)
	var out []string
	for _, n := range names {
		s := st[n]
		out = append(out, fmt.Sprintf("self %s = %.4f ms/span over %d spans (%.4f s total)", n, float64(s.ns)/1e6/float64(s.count), s.count, float64(s.ns)/1e9))
	}
	return out
}

// write dumps the spans as JSON lines, one span per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close %s: %w", path, err)
	}
	return nil
}
