package core

import (
	"errors"
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/spectral"
)

// testSystem builds a small ring system with uniform speeds.
func testSystem(t *testing.T, n int) *System {
	t.Helper()
	g, err := graph.Ring(n)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(g, machine.Uniform(n), WithLambda2(spectral.Lambda2Ring(n)))
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// speedSystem builds a ring system with the given speeds.
func speedSystem(t *testing.T, speeds machine.Speeds) *System {
	t.Helper()
	g, err := graph.Ring(len(speeds))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(g, speeds, WithLambda2(spectral.Lambda2Ring(len(speeds))))
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestNewSystemValidation(t *testing.T) {
	g, err := graph.Ring(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSystem(nil, machine.Uniform(4)); !errors.Is(err, ErrNilGraph) {
		t.Errorf("nil graph: %v", err)
	}
	if _, err := NewSystem(g, machine.Uniform(3)); !errors.Is(err, ErrSpeedMismatch) {
		t.Errorf("mismatched speeds: %v", err)
	}
	if _, err := NewSystem(g, machine.Speeds{2, 2, 2, 2}); err == nil {
		t.Error("unscaled speeds accepted")
	}
	disc, err := graph.FromEdges("two", 4, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSystem(disc, machine.Uniform(4)); !errors.Is(err, ErrDisconnected) {
		t.Errorf("disconnected: %v", err)
	}
}

func TestNewSystemComputesLambda2(t *testing.T) {
	g, err := graph.Complete(8)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(g, machine.Uniform(8))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sys.Lambda2()-8) > 1e-6 {
		t.Errorf("λ₂(K_8) = %g, want 8", sys.Lambda2())
	}
}

func TestSystemAccessors(t *testing.T) {
	speeds := machine.Speeds{1, 2, 4, 1, 1}
	sys := speedSystem(t, speeds)
	if sys.N() != 5 || sys.SMax() != 4 || sys.SMin() != 1 || sys.STotal() != 9 {
		t.Errorf("accessors: n=%d smax=%g smin=%g S=%g", sys.N(), sys.SMax(), sys.SMin(), sys.STotal())
	}
	if sys.MaxDegree() != 2 {
		t.Errorf("Δ = %d", sys.MaxDegree())
	}
	if sys.Speed(2) != 4 {
		t.Errorf("Speed(2) = %g", sys.Speed(2))
	}
	cp := sys.Speeds()
	cp[0] = 99
	if sys.Speed(0) == 99 {
		t.Error("Speeds() aliases internal storage")
	}
	if sys.DefaultAlpha() != 16 {
		t.Errorf("default α = %g, want 4·s_max = 16", sys.DefaultAlpha())
	}
	a, err := sys.AlphaForGranularity(0.5)
	if err != nil || a != 32 {
		t.Errorf("α(ε̄=0.5) = %g err=%v, want 32", a, err)
	}
	if _, err := sys.AlphaForGranularity(0); err == nil {
		t.Error("zero granularity accepted")
	}
}

func TestTheoryQuantities(t *testing.T) {
	sys := testSystem(t, 8)
	l2 := spectral.Lambda2Ring(8)
	wantGamma := 32 * 2 / l2 // Δ=2, s_max=1
	if g := sys.Gamma(); math.Abs(g-wantGamma) > 1e-9 {
		t.Errorf("γ = %g, want %g", g, wantGamma)
	}
	wantPsiC := 16 * 8 * 2 / l2
	if p := sys.PsiCritical(); math.Abs(p-wantPsiC) > 1e-9 {
		t.Errorf("ψ_c = %g, want %g", p, wantPsiC)
	}
	if p := sys.PsiCriticalWeighted(); math.Abs(p-wantPsiC) > 1e-9 {
		t.Errorf("weighted ψ_c = %g, want %g for unit speeds", p, wantPsiC)
	}
	// T = 2γ·ln(m/n).
	m := int64(800)
	want := 2 * wantGamma * math.Log(100)
	if got := sys.ApproxPhaseRounds(m); math.Abs(got-want) > 1e-9 {
		t.Errorf("T = %g, want %g", got, want)
	}
	// Exact bound: 607·Δ²·s⁴/ε̄²·n/λ₂.
	wantExact := 607 * 4 * float64(8) / l2
	if got := sys.ExactPhaseRounds(1); math.Abs(got-wantExact) > 1e-6 {
		t.Errorf("exact bound %g, want %g", got, wantExact)
	}
	// Smaller granularity → larger bound, quadratically.
	if r := sys.ExactPhaseRounds(0.5) / sys.ExactPhaseRounds(1); math.Abs(r-4) > 1e-9 {
		t.Errorf("granularity scaling %g, want 4", r)
	}
}

func TestApproxNEThresholds(t *testing.T) {
	sys := testSystem(t, 4)
	// m ≥ 8·δ·s_max·S·n² with s_max=1, S=4, n=4: 8δ·64.
	if got := sys.ApproxNETaskThreshold(2); math.Abs(got-8*2*4*16) > 1e-9 {
		t.Errorf("task threshold %g", got)
	}
	if got := sys.WeightedApproxNEWeightThreshold(2); math.Abs(got-8*2*4*16) > 1e-9 {
		t.Errorf("weight threshold %g", got)
	}
	if eps := EpsilonForDelta(3); math.Abs(eps-0.5) > 1e-12 {
		t.Errorf("ε(δ=3) = %g, want 0.5", eps)
	}
}

func TestBlocksForConfidence(t *testing.T) {
	if b := BlocksForConfidence(16, 2); b != 2*2+1 {
		t.Errorf("blocks(16, 2) = %d, want 5 (⌈2·log₄16⌉+1)", b)
	}
	if b := BlocksForConfidence(1, 2); b != 1 {
		t.Errorf("blocks(1) = %d", b)
	}
	if b := BlocksForConfidence(100, 0); b != 1 {
		t.Errorf("blocks(c=0) = %d", b)
	}
}

func TestLDeltaBoundFromPsi0(t *testing.T) {
	if got := LDeltaBoundFromPsi0(49); got != 7 {
		t.Errorf("L_Δ bound %g, want 7", got)
	}
}
