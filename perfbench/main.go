// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload per invocation in a single process, through the same
// exported entry points the front ends use (lbd: serve.New, Submit,
// NewHandler, NewJournalSink; lbsim: core.Drive over shard.NewWeighted;
// lbshard: UniformCluster.Drive over StartLocalUniformCluster), checks
// the outputs outside the timed window, prints every metric by name
// with its unit and sample count, and ends with one JSON result line.
//
//	perfbench --workload serve-ingest --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics of an untraced window.
// --trace 1 runs an untraced window and then a traced one, reports the
// per-layer metrics of the traced window and the tracing overhead
// between the two. Every workload reports every metric of the result
// line (endToEnd, perLayer); a workload's own further metrics are
// printed and stored but stay out of it. See README.md for the
// workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// shards is P, the partition size of every engine and cluster: one
// shard per core of the 2-core machine the benchmark was defined on.
// Fixed rather than read from the host so that results from different
// machines run the same trajectory.
const shards = 2

// A window builds its instance at least setupRepeats times and, while
// the builds have taken less than setupBudget in all, up to
// setupMaxRepeats times; setup_s is the median build.
const (
	setupRepeats    = 3
	setupBudget     = time.Second
	setupMaxRepeats = 21
)

// endToEnd and perLayer name the metrics of the result line, as
// BENCHMARK.json lists them: --trace 0 reports endToEnd, --trace 1
// perLayer, and every workload measures each of them (a unit of work,
// "op", is a submission on serve-ingest and a protocol round elsewhere;
// README.md defines each metric per workload).
var (
	endToEnd = []resultMetric{{"setup_s", "s"}, {"peak_rss_mb", "MB"}, {"latency_ms", "ms"}}
	perLayer = []resultMetric{
		{"shard.step_ms", "ms"}, {"shard.snapshot_ms", "ms"}, {"shard.decide_ms", "ms"}, {"shard.commit_ms", "ms"},
		{"shard.cross_flows_per_round", "count"}, {"core.moves_per_round", "count"}, {"core.reference_round_ms", "ms"},
		{"go.alloc_bytes_per_op", "bytes"}, {"go.gc_cpu_share", "fraction"},
		{"setup.graph_s", "s"}, {"setup.instance_s", "s"}, {"setup.engine_s", "s"},
		{"trace.parts_share", "fraction"}, {"trace.overhead_share", "fraction"},
	}
)

type resultMetric struct{ name, unit string }

type config struct {
	seed   uint64
	window time.Duration
	dir    string // per-run scratch directory inside the checkout
	traced bool
}

// metric is one named measurement. N is the sample count behind a
// percentile or median (0 for a ratio of totals).
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	N     int64   `json:"n,omitempty"`
	Note  string  `json:"note,omitempty"`
}

// check is one correctness check run outside the timed window.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// windowOut is everything one measured window produced.
type windowOut struct {
	attempted, failed int64
	checks            []check
	e2e               []metric
	layers            []metric
	// primary is the workload's headline time (lower is better), the
	// quantity tracing overhead is expressed against.
	primary     float64
	primaryName string
	// notes are report lines that are not metrics (self times).
	notes []string
}

func (w *windowOut) check(name string, ok bool, format string, args ...any) {
	w.checks = append(w.checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

func (w *windowOut) e(name, unit string, v float64, n int64, note string) {
	w.e2e = append(w.e2e, metric{Name: name, Unit: unit, Value: v, N: n, Note: note})
}

func (w *windowOut) l(name, unit string, v float64, n int64, note string) {
	w.layers = append(w.layers, metric{Name: name, Unit: unit, Value: v, N: n, Note: note})
}

type benchWorkload struct {
	name string
	run  func(cfg config) (*windowOut, error)
}

var workloads = []benchWorkload{
	{"serve-ingest", runServeIngest},
	{"serve-mixed", runServeMixed},
	{"converge", runConverge},
	{"cluster", runCluster},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: serve-ingest, serve-mixed, converge or cluster")
	seed := fs.Uint64("seed", 1, "workload seed; every input and protocol seed derives from it")
	seconds := fs.Int("seconds", 10, "length of each measured window")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced window")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench-runs"), "directory for journals, checkpoints, spans and results")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var wl *benchWorkload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --seconds ≥ 1 and --trace 0|1\n")
		return 2
	}
	dir := filepath.Join(*out, fmt.Sprintf("%s-seed%d-trace%d", wl.name, *seed, *trace))
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	prov := currentProvenance(wl.name, *seed, *seconds, *trace == 1)
	pj, _ := json.Marshal(prov)
	fmt.Fprintf(stdout, "provenance %s\n", pj)

	cfg := config{seed: *seed, window: time.Duration(*seconds) * time.Second, dir: dir}
	plain, err := wl.run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	windows := []*windowOut{plain}
	report, names := plain.e2e, endToEnd
	if *trace == 1 {
		cfg.traced = true
		traced, err := wl.run(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s (traced): %v\n", wl.name, err)
			return 1
		}
		windows = append(windows, traced)
		names = perLayer
		report = append(traced.layers,
			metric{Name: "trace.overhead_share", Unit: "fraction",
				Value: traced.primary/plain.primary - 1,
				Note:  fmt.Sprintf("%s traced %.4g vs untraced %.4g", plain.primaryName, traced.primary, plain.primary)})
		printMetrics(stdout, wl.name, "untraced", plain.e2e)
		printMetrics(stdout, wl.name, "traced", traced.e2e)
	}

	var attempted, failed int64
	correct := true
	for i, w := range windows {
		for _, n := range w.notes {
			fmt.Fprintf(stdout, "trace %s window=%d %s\n", wl.name, i, n)
		}
		attempted += w.attempted
		failed += w.failed
		for _, c := range w.checks {
			status := "ok"
			if !c.OK {
				status = "FAILED"
				correct = false
			}
			fmt.Fprintf(stdout, "check %s window=%d %s: %s %s\n", wl.name, i, c.Name, status, c.Detail)
		}
	}
	share := 0.0
	if attempted > 0 {
		share = float64(failed) / float64(attempted)
	}
	fmt.Fprintf(stdout, "metric %s failed_share = %.6g fraction (%d failed of %d attempted)\n", wl.name, share, failed, attempted)
	printMetrics(stdout, wl.name, "", report)
	metrics, err := resultMetrics(report, names)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}

	if err := writeRecord(filepath.Join(dir, "result.json"), prov, windows, correct, attempted, failed, share); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		correct = false
	}
	res := struct {
		Correct   bool                      `json:"correct"`
		Attempted int64                     `json:"attempted"`
		Failed    int64                     `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{correct, attempted, failed, metrics}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !correct || failed > 0 {
		return 1
	}
	return 0
}

// resultMetrics picks the listed metrics out of ms for the result line.
// A workload that did not measure one of them, measured no value or
// measured it in another unit is a fault of the benchmark, not of the
// program.
func resultMetrics(ms []metric, want []resultMetric) (map[string]map[string]any, error) {
	out := make(map[string]map[string]any, len(want))
	for _, r := range want {
		for _, m := range ms {
			if m.Name == r.name && m.Unit == r.unit && !math.IsNaN(m.Value) {
				out[r.name] = map[string]any{"value": jsonNumber(m.Value), "unit": m.Unit}
			}
		}
		if out[r.name] == nil {
			return nil, fmt.Errorf("no value for metric %s in %s", r.name, r.unit)
		}
	}
	return out, nil
}

// jsonNumber keeps a non-finite value (a percentile that landed on a
// failed operation) representable in JSON as a very large number.
func jsonNumber(v float64) float64 {
	if math.IsInf(v, 1) || math.IsNaN(v) {
		return math.MaxFloat64
	}
	return v
}

func printMetrics(w io.Writer, workload, label string, ms []metric) {
	if label != "" {
		label = " [" + label + "]"
	}
	for _, m := range ms {
		extra := []string{}
		if m.N > 0 {
			extra = append(extra, fmt.Sprintf("n=%d", m.N))
		}
		if m.Note != "" {
			extra = append(extra, m.Note)
		}
		suffix := ""
		if len(extra) > 0 {
			suffix = " (" + strings.Join(extra, ", ") + ")"
		}
		fmt.Fprintf(w, "metric %s%s %s = %.6g %s%s\n", workload, label, m.Name, m.Value, m.Unit, suffix)
	}
}

// writeRecord stores the run's provenance, checks and every metric of
// every window next to its other artifacts.
func writeRecord(path string, prov provenance, windows []*windowOut, correct bool, attempted, failed int64, share float64) error {
	type rec struct {
		Traced bool     `json:"traced"`
		Checks []check  `json:"checks"`
		E2E    []metric `json:"end_to_end"`
		Layers []metric `json:"per_layer,omitempty"`
	}
	doc := struct {
		Provenance  provenance `json:"provenance"`
		Correct     bool       `json:"correct"`
		Attempted   int64      `json:"attempted"`
		Failed      int64      `json:"failed"`
		FailedShare float64    `json:"failed_share"`
		Windows     []rec      `json:"windows"`
	}{Provenance: prov, Correct: correct, Attempted: attempted, Failed: failed, FailedShare: share}
	for i, w := range windows {
		doc.Windows = append(doc.Windows, rec{Traced: i == 1, Checks: w.checks, E2E: sanitize(w.e2e), Layers: sanitize(w.layers)})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func sanitize(ms []metric) []metric {
	out := make([]metric, len(ms))
	for i, m := range ms {
		m.Value = jsonNumber(m.Value)
		out[i] = m
	}
	return out
}
