package main

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/machine"
)

func TestBuildGraphClasses(t *testing.T) {
	for _, name := range []string{"complete", "ring", "path", "torus", "mesh", "hypercube", "star", "regular"} {
		g, lambda2, err := buildGraph(name, 16, 1)
		if err != nil {
			t.Fatalf("buildGraph(%s): %v", name, err)
		}
		if g == nil || g.N() < 2 {
			t.Fatalf("buildGraph(%s): bad graph", name)
		}
		if lambda2 <= 0 {
			t.Errorf("buildGraph(%s): λ₂ = %g", name, lambda2)
		}
		if !g.IsConnected() {
			t.Errorf("buildGraph(%s): disconnected", name)
		}
	}
	if _, _, err := buildGraph("nope", 16, 1); err == nil {
		t.Error("unknown graph accepted")
	}
}

func TestBuildSpeedsProfiles(t *testing.T) {
	for _, profile := range []string{"uniform", "twoclass", "integers"} {
		s, err := buildSpeeds(profile, 12, 4, 1)
		if err != nil {
			t.Fatalf("buildSpeeds(%s): %v", profile, err)
		}
		if len(s) != 12 {
			t.Fatalf("buildSpeeds(%s): %d speeds", profile, len(s))
		}
		if err := s.Validate(); err != nil {
			t.Errorf("buildSpeeds(%s): %v", profile, err)
		}
	}
	if _, err := buildSpeeds("nope", 12, 4, 1); err == nil {
		t.Error("unknown profile accepted")
	}
}

func TestSqrtSide(t *testing.T) {
	cases := []struct{ n, want int }{{1, 1}, {4, 2}, {5, 3}, {9, 3}, {10, 4}, {64, 8}}
	for _, c := range cases {
		if got := sqrtSide(c.n); got != c.want {
			t.Errorf("sqrtSide(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestRunDynamicSmoke(t *testing.T) {
	g, lambda2, err := buildGraph("torus", 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	speeds, err := buildSpeeds("twoclass", g.N(), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(g, speeds, core.WithLambda2(lambda2))
	if err != nil {
		t.Fatal(err)
	}
	cfg := dynCfg{
		arrivals: 8, departures: 0.5, churn: 20,
		burstEvery: 15, burstSize: 40,
		horizon: 50, eventSeed: 18,
	}
	for _, model := range []string{"uniform", "weighted"} {
		if err := runDynamic(sys, 400, model, "seq", "paper", "corner", 1, cfg, harness.EngineOpts{}); err != nil {
			t.Errorf("runDynamic(%s): %v", model, err)
		}
	}
	if err := runDynamic(sys, 400, "uniform", "cluster", "paper", "random", 1, cfg, harness.EngineOpts{Shards: 2}); err != nil {
		t.Errorf("runDynamic(cluster): %v", err)
	}
	if err := runDynamic(sys, 400, "uniform", "shard", "paper", "random", 1, cfg,
		harness.EngineOpts{Shards: 3, Workers: 2}); err != nil {
		t.Errorf("runDynamic(shard): %v", err)
	}
}

// TestRunFixedSmoke covers the fixed-round scale mode on every uniform
// engine, shard strategies included.
func TestRunFixedSmoke(t *testing.T) {
	g, lambda2, err := buildGraph("ring", 24, 1)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(g, machine.Uniform(g.N()), core.WithLambda2(lambda2))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		engine string
		eo     harness.EngineOpts
	}{
		{"seq", harness.EngineOpts{}},
		{"cluster", harness.EngineOpts{Shards: 2}},
		{"shard", harness.EngineOpts{Shards: 5, Workers: 2}},
		{"shard", harness.EngineOpts{Shards: 3, Strategy: "degree"}},
	} {
		if err := runFixed(sys, 24*64, tc.engine, "corner", 1, 30, 0, tc.eo); err != nil {
			t.Errorf("runFixed(%s %+v): %v", tc.engine, tc.eo, err)
		}
	}
	if err := runFixed(sys, 24*64, "shard", "corner", 1, 10, 0,
		harness.EngineOpts{Strategy: "warp"}); err == nil {
		t.Error("unknown shard strategy accepted")
	}
}

func TestInitialCounts(t *testing.T) {
	g, lambda2, err := buildGraph("ring", 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(g, machine.Uniform(g.N()), core.WithLambda2(lambda2))
	if err != nil {
		t.Fatal(err)
	}
	for _, placement := range []string{"corner", "random", "proportional"} {
		counts, err := initialCounts(sys, 80, placement, 1)
		if err != nil {
			t.Fatalf("initialCounts(%s): %v", placement, err)
		}
		sum := int64(0)
		for _, c := range counts {
			sum += c
		}
		if sum != 80 {
			t.Errorf("initialCounts(%s): sum %d, want 80", placement, sum)
		}
	}
	if _, err := initialCounts(sys, 80, "nope", 1); err == nil {
		t.Error("unknown placement accepted")
	}
}

// TestFixedReportSubMillisecond pins the report-line bugfix: a
// sub-millisecond run must print its real duration, not "0s" (the old
// code rounded the total to milliseconds).
func TestFixedReportSubMillisecond(t *testing.T) {
	line := fixedReport(5, 110*time.Microsecond, 42)
	if !strings.Contains(line, "5 rounds in 110µs") {
		t.Errorf("report %q does not show the µs-rounded total", line)
	}
	if strings.Contains(line, "in 0s") {
		t.Errorf("report %q truncates to 0s", line)
	}
	if !strings.Contains(line, "22µs/round") {
		t.Errorf("report %q does not show the per-round time", line)
	}
	if !strings.Contains(line, "42 moves") {
		t.Errorf("report %q does not show moves", line)
	}
	// Longer runs still read naturally.
	if line := fixedReport(100, 377*time.Millisecond, 7); !strings.Contains(line, "100 rounds in 377ms") {
		t.Errorf("report %q mangles a millisecond-scale total", line)
	}
}

// TestFixedHeaderResolved pins the header bugfix: the banner reports
// the resolved execution parameters, never the raw zero-valued flags,
// and shard fields appear only for the shard engine.
func TestFixedHeaderResolved(t *testing.T) {
	eo := harness.EngineOpts{}.Resolved("shard", 1000)
	line := fixedHeader(100, "weighted", "shard", eo)
	if strings.Contains(line, "workers=0") || strings.Contains(line, "shards=0") {
		t.Errorf("header %q reports unresolved flag values", line)
	}
	if !strings.Contains(line, "model=weighted") || !strings.Contains(line, "(contiguous)") {
		t.Errorf("header %q missing model or resolved strategy", line)
	}
	seqLine := fixedHeader(30, "uniform", "seq", harness.EngineOpts{}.Resolved("seq", 24))
	if strings.Contains(seqLine, "shards=") {
		t.Errorf("header %q shows shard fields for the seq engine", seqLine)
	}
	if !strings.Contains(seqLine, "workers=1") {
		t.Errorf("header %q does not resolve seq to one worker", seqLine)
	}
}

// TestRunFixedWeightedSmoke covers the weighted fixed-round scale mode
// on every weighted engine, strategies and placements included.
func TestRunFixedWeightedSmoke(t *testing.T) {
	g, lambda2, err := buildGraph("ring", 24, 1)
	if err != nil {
		t.Fatal(err)
	}
	speeds, err := buildSpeeds("twoclass", g.N(), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(g, speeds, core.WithLambda2(lambda2))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		engine    string
		placement string
		eo        harness.EngineOpts
	}{
		{"seq", "corner", harness.EngineOpts{}},
		{"cluster", "random", harness.EngineOpts{Shards: 2}},
		{"shard", "proportional", harness.EngineOpts{Shards: 5, Workers: 2}},
		{"shard", "corner", harness.EngineOpts{Shards: 3, Strategy: "degree"}},
	} {
		if err := runFixedWeighted(sys, 24*16, tc.engine, "paper", tc.placement, 1, 20, 0, tc.eo); err != nil {
			t.Errorf("runFixedWeighted(%s %s %+v): %v", tc.engine, tc.placement, tc.eo, err)
		}
	}
	if err := runFixedWeighted(sys, 24*16, "shard", "baseline", "corner", 1, 5, 0,
		harness.EngineOpts{}); err == nil {
		t.Error("shard accepted the baseline protocol")
	}
	if err := runFixedWeighted(sys, 24*16, "seq", "paper", "nope", 1, 5, 0,
		harness.EngineOpts{}); err == nil {
		t.Error("unknown placement accepted")
	}
}
