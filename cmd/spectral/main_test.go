package main

import (
	"math"
	"slices"
	"testing"

	"repro/internal/instance"
	"repro/internal/spectral"
)

func TestBuildGraphAllFamilies(t *testing.T) {
	for _, name := range []string{"complete", "ring", "path", "torus", "mesh", "hypercube", "star", "regular", "barbell"} {
		g, closed, hasClosed, err := buildGraph(instance.Spec{Graph: name, N: 12, Seed: 1})
		if err != nil {
			t.Fatalf("buildGraph(%s): %v", name, err)
		}
		if !g.IsConnected() {
			t.Errorf("%s: disconnected", name)
		}
		if hasClosed {
			num, err := spectral.Lambda2(g)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(num-closed)/closed > 1e-5 {
				t.Errorf("%s: closed %g vs numeric %g", name, closed, num)
			}
		}
	}
	if _, _, _, err := buildGraph(instance.Spec{Graph: "nope", N: 12}); err == nil {
		t.Error("unknown family accepted")
	}
}

// TestDescribesLbsimInstance: for every family lbsim shares, spectral
// describes the graph and speeds that Spec.Build gives lbsim for the
// same flags — the torus side rounds the same way (n = 50 is 7×7, and
// n = 4 still builds 3×3) and -speeds integers draws the same stream.
func TestDescribesLbsimInstance(t *testing.T) {
	for _, name := range []string{"complete", "ring", "path", "torus", "mesh", "hypercube", "star", "regular"} {
		for _, n := range []int{4, 12, 50} {
			if name == "regular" && n == 4 {
				continue // a 4-regular graph needs at least 5 nodes
			}
			spec := instance.Spec{Graph: name, N: n, Seed: 3, Speeds: "integers", SMax: 4, Model: "uniform", Placement: "corner"}
			g, _, _, err := buildGraph(spec)
			if err != nil {
				t.Fatalf("%s n=%d: %v", name, n, err)
			}
			inst, err := spec.Build()
			if err != nil {
				t.Fatalf("%s n=%d: Build: %v", name, n, err)
			}
			if want := inst.Sys.Graph(); g.String() != want.String() || g.N() != want.N() {
				t.Errorf("%s n=%d: spectral describes %s, lbsim runs %s", name, n, g, want)
			}
			speeds, err := spec.BuildSpeeds(g.N())
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(speeds, inst.Sys.Speeds()) {
				t.Errorf("%s n=%d: speeds %v, lbsim runs %v", name, n, speeds, inst.Sys.Speeds())
			}
		}
	}
}
