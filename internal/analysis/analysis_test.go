package analysis

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/spectral"
)

func ringState(t *testing.T, counts []int64) *core.UniformState {
	t.Helper()
	n := len(counts)
	g, err := graph.Ring(n)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(g, machine.Uniform(n), core.WithLambda2(spectral.Lambda2Ring(n)))
	if err != nil {
		t.Fatal(err)
	}
	st, err := core.NewUniformState(sys, counts)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestAnalyzeBalanced(t *testing.T) {
	st := ringState(t, []int64{5, 5, 5, 5})
	rep := Analyze(st, 0)
	if !rep.IsNash {
		t.Error("balanced state not NE")
	}
	if rep.NonNashEdges != 0 || rep.TotalFlow != 0 {
		t.Errorf("balanced state has flow: %+v", rep)
	}
	if rep.DirectedEdge != 8 {
		t.Errorf("directed edges %d, want 8", rep.DirectedEdge)
	}
	if rep.MaxGap != 0 {
		t.Errorf("max gap %g", rep.MaxGap)
	}
}

func TestAnalyzeImbalanced(t *testing.T) {
	st := ringState(t, []int64{40, 0, 0, 0})
	rep := Analyze(st, 0)
	if rep.IsNash {
		t.Error("imbalanced state reported NE")
	}
	// Node 0 exceeds both neighbors: 2 non-Nash directed edges.
	if rep.NonNashEdges != 2 {
		t.Errorf("non-Nash edges %d, want 2", rep.NonNashEdges)
	}
	if rep.MaxGap != 40 {
		t.Errorf("max gap %g, want 40", rep.MaxGap)
	}
	// f over each of the two edges: 40/(4·2·2) = 2.5, total 5.
	if math.Abs(rep.TotalFlow-5) > 1e-9 {
		t.Errorf("total flow %g, want 5", rep.TotalFlow)
	}
	// All of Ψ₀ is on 1 node out of ceil(4/10)=1 top nodes: 30²/... top
	// share must be dominated by node 0's contribution.
	if rep.Psi0TopShare < 0.7 {
		t.Errorf("top share %g too low for a point-mass imbalance", rep.Psi0TopShare)
	}
}

func TestFlowsSorted(t *testing.T) {
	st := ringState(t, []int64{40, 10, 0, 10})
	flows := Flows(st, 0)
	if len(flows) == 0 {
		t.Fatal("no flows on imbalanced state")
	}
	for i := 1; i < len(flows); i++ {
		if flows[i].Flow > flows[i-1].Flow {
			t.Fatal("flows not sorted descending")
		}
	}
	// The largest flow must leave node 0.
	if flows[0].From != 0 {
		t.Errorf("largest flow from node %d, want 0", flows[0].From)
	}
}

func TestFormat(t *testing.T) {
	st := ringState(t, []int64{40, 0, 0, 0})
	out := Format(Analyze(st, 0))
	for _, want := range []string{"nodes=4", "non-Nash edges", "Nash equilibrium: false"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted report missing %q:\n%s", want, out)
		}
	}
}
