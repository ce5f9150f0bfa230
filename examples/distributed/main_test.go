package main

import (
	"strings"
	"testing"

	"repro/internal/testutil"
)

// TestRunSmoke executes the cluster example end to end. Its output is
// itself an acceptance check for the cluster: the sequential replay of
// the distributed run must match exactly.
func TestRunSmoke(t *testing.T) {
	out := testutil.CaptureStdout(t, run)
	for _, want := range []string{
		"shard workers on net.Pipe",
		"exact NE after",
		"sequential engine reproduced the distributed trajectory exactly",
		"NE=true",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "unexpected!") {
		t.Errorf("distributed and sequential trajectories diverged:\n%s", out)
	}
}
