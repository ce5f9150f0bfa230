package main

import (
	"testing"

	"repro/internal/testutil"
)

// TestRunSmoke executes the diffusion comparison end to end and pins
// its whole stdout (`go run ./examples/diffusion`).
func TestRunSmoke(t *testing.T) {
	out := testutil.CaptureStdout(t, run)
	testutil.Golden(t, "testdata/stdout.golden", out)
}
