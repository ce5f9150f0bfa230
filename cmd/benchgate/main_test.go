package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func bench(name string, procs int, ns float64) Bench {
	return Bench{Name: name, Procs: procs, Iterations: 1, Metrics: map[string]float64{"ns/op": ns}}
}

// TestMatchJoinsOnNameAndProcs pins the join semantics: pairs form on
// name+procs, one-sided benchmarks and entries without ns/op are
// reported as missing rather than judged.
func TestMatchJoinsOnNameAndProcs(t *testing.T) {
	base := []Bench{
		bench("A", 4, 100),
		bench("A", 8, 200), // same name, different procs: distinct key
		bench("OnlyBase", 4, 50),
		{Name: "NoNs", Procs: 4, Metrics: map[string]float64{"allocs/op": 3}},
	}
	fresh := []Bench{
		bench("A", 4, 150),
		bench("A", 8, 100),
		bench("OnlyFresh", 4, 70),
		{Name: "NoNs", Procs: 4, Metrics: map[string]float64{"allocs/op": 3}},
	}
	pairs, missing := match(base, fresh, "t")
	if len(pairs) != 2 {
		t.Fatalf("matched %d pairs, want 2: %+v", len(pairs), pairs)
	}
	if pairs[0].key != "A-4" || math.Abs(pairs[0].ratio-1.5) > 1e-12 {
		t.Errorf("pair 0 = %+v, want A-4 ratio 1.5", pairs[0])
	}
	if pairs[1].key != "A-8" || math.Abs(pairs[1].ratio-0.5) > 1e-12 {
		t.Errorf("pair 1 = %+v, want A-8 ratio 0.5", pairs[1])
	}
	// OnlyBase, OnlyFresh and NoNs must each surface exactly once.
	if len(missing) != 3 {
		t.Fatalf("%d missing reports, want 3: %v", len(missing), missing)
	}
}

// TestNormalizeCancelsMachineSpeed pins the median normalization: a
// uniformly 2x-slower fresh run normalizes every benchmark back to 1,
// and a single outlier above the pack keeps its relative slowdown.
func TestNormalizeCancelsMachineSpeed(t *testing.T) {
	pairs := []pair{
		{key: "a", ratio: 2.0},
		{key: "b", ratio: 2.0},
		{key: "c", ratio: 2.0},
		{key: "d", ratio: 6.0}, // 3x the pack
	}
	normalize(pairs, 3)
	for _, p := range pairs[:3] {
		if math.Abs(p.normed-1) > 1e-12 {
			t.Errorf("%s: normalized %.3f, want 1", p.key, p.normed)
		}
	}
	if math.Abs(pairs[3].normed-3) > 1e-12 {
		t.Errorf("outlier normalized %.3f, want 3", pairs[3].normed)
	}
}

// TestNormalizeBelowMinMatchedKeepsRawRatios pins the small-sample
// fallback: with fewer matches than -min-matched the median is not
// trusted and raw ratios pass through unchanged.
func TestNormalizeBelowMinMatchedKeepsRawRatios(t *testing.T) {
	pairs := []pair{{key: "a", ratio: 1.4}, {key: "b", ratio: 0.9}}
	normalize(pairs, 3)
	for _, p := range pairs {
		if p.normed != p.ratio {
			t.Errorf("%s: normalized %.3f, want raw %.3f", p.key, p.normed, p.ratio)
		}
	}
}

// TestMatchCarriesAllocs pins that pairs pick up allocs/op only when
// both sides report it.
func TestMatchCarriesAllocs(t *testing.T) {
	base := []Bench{
		{Name: "A", Procs: 1, Metrics: map[string]float64{"ns/op": 100, "allocs/op": 10}},
		{Name: "B", Procs: 1, Metrics: map[string]float64{"ns/op": 100, "allocs/op": 10}},
	}
	fresh := []Bench{
		{Name: "A", Procs: 1, Metrics: map[string]float64{"ns/op": 100, "allocs/op": 12}},
		{Name: "B", Procs: 1, Metrics: map[string]float64{"ns/op": 100}}, // fresh side dropped ReportAllocs
	}
	pairs, _ := match(base, fresh, "t")
	if len(pairs) != 2 {
		t.Fatalf("matched %d pairs, want 2", len(pairs))
	}
	if !pairs[0].hasAllocs || pairs[0].baseAllocs != 10 || pairs[0].freshAllocs != 12 {
		t.Errorf("pair A = %+v, want allocs 10 -> 12", pairs[0])
	}
	if pairs[1].hasAllocs {
		t.Errorf("pair B carries allocs despite one-sided reporting: %+v", pairs[1])
	}
}

// TestJudgeAllocsFactorAndSlack pins the two-condition alloc gate: a
// regression needs both the factor exceeded and the absolute growth
// above the slack, so tiny deterministic counts never flap.
func TestJudgeAllocsFactorAndSlack(t *testing.T) {
	pairs := []pair{
		{key: "tiny-jump", hasAllocs: true, baseAllocs: 2, freshAllocs: 50},       // 25x but within slack
		{key: "big-growth", hasAllocs: true, baseAllocs: 1000, freshAllocs: 1500}, // +500 but under factor
		{key: "regression", hasAllocs: true, baseAllocs: 1000, freshAllocs: 3000}, // both tripped
		{key: "no-allocs", baseAllocs: 0, freshAllocs: 0},                         // skipped
	}
	vs := judgeAllocs(pairs, 2.0, 64)
	if len(vs) != 3 {
		t.Fatalf("judged %d pairs, want 3: %+v", len(vs), vs)
	}
	for i, wantFail := range []bool{false, false, true} {
		if vs[i].failed != wantFail {
			t.Errorf("%s: failed=%v, want %v", pairs[i].key, vs[i].failed, wantFail)
		}
	}
}

// TestParseCeilingsSplitsOnLastEquals pins the -max-allocs grammar:
// benchmark names contain '=' (ring-n=1000000), so the limit is the
// text after the final '='.
func TestParseCeilingsSplitsOnLastEquals(t *testing.T) {
	cs, err := parseCeilings("WeightedShardRound/ring-n=1000000/shard=1000,Other=5")
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 2 {
		t.Fatalf("parsed %d ceilings, want 2: %+v", len(cs), cs)
	}
	if cs[0].pattern != "WeightedShardRound/ring-n=1000000/shard" || cs[0].limit != 1000 {
		t.Errorf("ceiling 0 = %+v", cs[0])
	}
	if cs[1].pattern != "Other" || cs[1].limit != 5 {
		t.Errorf("ceiling 1 = %+v", cs[1])
	}
	for _, bad := range []string{"nolimit", "=5", "x=notanumber", "x=-3"} {
		if _, err := parseCeilings(bad); err == nil {
			t.Errorf("parseCeilings(%q) accepted, want error", bad)
		}
	}
}

// TestJudgeCeilings pins the absolute gate: matches at or below the
// limit pass, above fail, and a pattern matching no fresh benchmark
// with allocs/op is an error rather than a silent pass.
func TestJudgeCeilings(t *testing.T) {
	fresh := []Bench{
		{Name: "Round/ring-n=1000000/shard", Procs: 1, Metrics: map[string]float64{"allocs/op": 11}},
		{Name: "Round/ring-n=1000/shard", Procs: 1, Metrics: map[string]float64{"allocs/op": 2000}},
		{Name: "NoAllocs", Procs: 1, Metrics: map[string]float64{"ns/op": 5}},
	}
	vs, err := judgeCeilings(fresh, []ceiling{{pattern: "n=1000000/shard", limit: 1000}})
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 || vs[0].failed {
		t.Fatalf("verdicts = %+v, want one pass", vs)
	}
	vs, err = judgeCeilings(fresh, []ceiling{{pattern: "n=1000/shard", limit: 1000}})
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 || !vs[0].failed {
		t.Fatalf("verdicts = %+v, want one failure", vs)
	}
	if _, err := judgeCeilings(fresh, []ceiling{{pattern: "NoAllocs", limit: 1}}); err == nil {
		t.Error("pattern matching only an allocs-free benchmark accepted, want error")
	}
	if _, err := judgeCeilings(fresh, []ceiling{{pattern: "Renamed", limit: 1}}); err == nil {
		t.Error("pattern matching nothing accepted, want error")
	}
}

// writeBenches stores benches as a benchjson file and returns its path.
func writeBenches(t *testing.T, name string, benches []Bench) string {
	t.Helper()
	data, err := json.Marshal(benches)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// gate runs the command and returns its exit status and output.
func gate(args ...string) (int, string, string) {
	var out, errOut bytes.Buffer
	code := run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func allocBench(name string, procs int, ns, allocs float64) Bench {
	return Bench{Name: name, Procs: procs, Iterations: 1, Metrics: map[string]float64{"ns/op": ns, "allocs/op": allocs}}
}

// TestRunZeroMatchedExitsTwo pins the multi-core failure mode: a
// baseline recorded at GOMAXPROCS 1 (no -N suffix) against a fresh run
// at GOMAXPROCS 2 ("Name-2") matches nothing, and that must fail the
// gate rather than pass it with nothing judged.
func TestRunZeroMatchedExitsTwo(t *testing.T) {
	base := writeBenches(t, "base.json", []Bench{bench("A", 0, 2e7), bench("B", 0, 3e7)})
	fresh := writeBenches(t, "fresh.json", []Bench{bench("A", 2, 2e7), bench("B", 2, 3e7)})
	code, _, errOut := gate(base + "=" + fresh)
	if code != 2 {
		t.Fatalf("exit %d, want 2; stderr:\n%s", code, errOut)
	}
	if !strings.Contains(errOut, "no benchmarks matched") {
		t.Errorf("stderr does not explain the empty match:\n%s", errOut)
	}
}

// TestRunJudgesCeilingsWithoutMatches pins that the absolute
// -max-allocs ceilings are judged even when no pair matched: the
// exceeded ceiling is reported, and a ceiling whose pattern matches no
// fresh benchmark stays a usage error.
func TestRunJudgesCeilingsWithoutMatches(t *testing.T) {
	base := writeBenches(t, "base.json", []Bench{allocBench("Round/n=1000000", 0, 2e7, 11)})
	fresh := writeBenches(t, "fresh.json", []Bench{allocBench("Round/n=1000000", 2, 2e7, 5000)})
	code, out, _ := gate("-max-allocs", "Round/n=1000000=1000", base+"="+fresh)
	if code == 0 {
		t.Fatal("exceeded ceiling with zero matches passed")
	}
	if !strings.Contains(out, "ALLOC CEILING EXCEEDED") {
		t.Errorf("ceiling not judged before the zero-match exit; stdout:\n%s", out)
	}
	if code, _, _ := gate("-max-allocs", "Renamed=1000", base+"="+fresh); code != 2 {
		t.Errorf("ceiling matching no fresh benchmark: exit %d, want 2", code)
	}
}

// TestRunVerdicts pins the exit statuses on matched runs: a uniformly
// slower machine passes, one benchmark regressing against the pack
// fails with 1, and so does an exceeded ceiling alone.
func TestRunVerdicts(t *testing.T) {
	base := writeBenches(t, "base.json", []Bench{
		allocBench("A", 0, 2e7, 10), allocBench("B", 0, 3e7, 10), allocBench("C", 0, 4e7, 10),
	})
	slower := writeBenches(t, "slower.json", []Bench{
		allocBench("A", 0, 4e7, 10), allocBench("B", 0, 6e7, 10), allocBench("C", 0, 8e7, 10),
	})
	if code, out, errOut := gate(base + "=" + slower); code != 0 || !strings.Contains(out, "3 benchmarks within tolerance") {
		t.Fatalf("uniform 2x slowdown: exit %d, want 0\n%s%s", code, out, errOut)
	}
	regressed := writeBenches(t, "regressed.json", []Bench{
		allocBench("A", 0, 2e7, 10), allocBench("B", 0, 3e7, 10), allocBench("C", 0, 4e8, 10),
	})
	if code, out, _ := gate(base + "=" + regressed); code != 1 || !strings.Contains(out, "REGRESSION") {
		t.Fatalf("10x regression of one benchmark: exit %d, want 1\n%s", code, out)
	}
	if code, _, _ := gate("-max-allocs", "A=5", base+"="+slower); code != 1 {
		t.Fatalf("exceeded ceiling on matched run: exit %d, want 1", code)
	}
	if code, _, _ := gate(); code != 2 {
		t.Fatalf("no arguments: exit %d, want 2", code)
	}
}
