package main

import (
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/testutil"
)

// TestRunDropSmoke pins the drop CSV, the output of
// `sweep -experiment drop -n 16 -taskspernode 64 -seed 1 -workers 2`.
func TestRunDropSmoke(t *testing.T) {
	out := testutil.CaptureStdout(t, func() error { return runDrop(16, 64, 1, 2) })
	testutil.Golden(t, "testdata/drop.golden", out)
}

func TestRunGranularitySmoke(t *testing.T) {
	out := testutil.CaptureStdout(t, func() error { return runGranularity(4, 16, 3, 1, 2) })
	if !strings.HasPrefix(out, "epsilon,alpha,mean_rounds,stderr,theory_bound") {
		t.Errorf("missing CSV header:\n%s", out)
	}
	if got := strings.Count(strings.TrimSpace(out), "\n"); got != 3 {
		t.Errorf("want 3 data rows (ε = 1, 0.5, 0.25), got %d:\n%s", got, out)
	}
}

func TestRunWeightedComparisonSmoke(t *testing.T) {
	out := testutil.CaptureStdout(t, func() error { return runWeightedComparison(8, 16, 1, 1, 2, "shard") })
	if !strings.HasPrefix(out, "class,n,m,alg2_rounds") {
		t.Errorf("missing CSV header:\n%s", out)
	}
	if !strings.Contains(out, "torus,") {
		t.Errorf("missing torus row:\n%s", out)
	}
}

// TestRunDiffusionSmoke pins the diffusion CSV, the output of
// `sweep -experiment diffusion -n 8 -taskspernode 16 -seed 1 -workers 2`.
func TestRunDiffusionSmoke(t *testing.T) {
	out := testutil.CaptureStdout(t, func() error { return runDiffusion(8, 16, 1, 2) })
	testutil.Golden(t, "testdata/diffusion.golden", out)
}

// TestSweepWorkerCountInvariance checks the orchestrator determinism
// promise end to end on a real experiment: the same matrix and seed
// produce byte-identical CSV whether the repetitions run on one worker
// or many.
func TestSweepWorkerCountInvariance(t *testing.T) {
	run := func(workers int) string {
		return testutil.CaptureStdout(t, func() error { return runGranularity(4, 16, 3, 2, workers) })
	}
	if seq, par := run(1), run(8); seq != par {
		t.Errorf("granularity output differs by worker count:\n-- workers=1 --\n%s-- workers=8 --\n%s", seq, par)
	}
	runW := func(workers int, engine string) string {
		return testutil.CaptureStdout(t, func() error { return runWeightedComparison(8, 16, 1, 2, workers, engine) })
	}
	if seq, par := runW(1, "seq"), runW(8, "seq"); seq != par {
		t.Errorf("weighted output differs by worker count:\n-- workers=1 --\n%s-- workers=8 --\n%s", seq, par)
	}
	// Engines execute identical trajectories, so the weighted comparison
	// CSV is engine-invariant too (the baseline protocol falls back to
	// seq on engines that cannot run it).
	if seq, shard := runW(2, "seq"), runW(2, "shard"); seq != shard {
		t.Errorf("weighted output differs by engine:\n-- seq --\n%s-- shard --\n%s", seq, shard)
	}
}

func TestRunDynamicSmoke(t *testing.T) {
	if err := runDynamic(experiments.DynamicConfig{
		N: 8, TasksPerNode: 16, Horizon: 40, ChurnEvery: 15,
		Repeats: 1, Seed: 5, Engine: "seq", Workers: 2,
	}); err != nil {
		t.Fatal(err)
	}
}
