package core

import (
	"errors"
	"testing"

	"repro/internal/task"
	"repro/internal/workload"
)

func TestRunUniformStopsImmediatelyAtNE(t *testing.T) {
	sys := testSystem(t, 4)
	st, err := NewUniformState(sys, []int64{5, 5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunUniform(st, Algorithm1{}, StopAtNash(), RunOpts{MaxRounds: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 0 || !res.Converged {
		t.Errorf("expected zero-round convergence, got %+v", res)
	}
}

func TestRunUniformMaxRoundsError(t *testing.T) {
	sys := testSystem(t, 4)
	st, err := NewUniformState(sys, []int64{400, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunUniform(st, Algorithm1{}, StopAtNash(), RunOpts{MaxRounds: 1, Seed: 1})
	if !errors.Is(err, ErrMaxRounds) {
		t.Fatalf("want ErrMaxRounds, got %v", err)
	}
}

func TestRunUniformValidatesOpts(t *testing.T) {
	sys := testSystem(t, 4)
	st, err := NewUniformState(sys, []int64{1, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunUniform(st, Algorithm1{}, nil, RunOpts{}); err == nil {
		t.Error("MaxRounds=0 accepted")
	}
	if _, err := RunUniform(nil, Algorithm1{}, nil, RunOpts{MaxRounds: 1}); err == nil {
		t.Error("nil state accepted")
	}
	if _, err := RunUniform(st, nil, nil, RunOpts{MaxRounds: 1}); err == nil {
		t.Error("nil protocol accepted")
	}
}

func TestRunUniformNilStopRunsAllRounds(t *testing.T) {
	sys := testSystem(t, 4)
	st, err := NewUniformState(sys, []int64{100, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunUniform(st, Algorithm1{}, nil, RunOpts{MaxRounds: 25, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 25 || !res.Converged {
		t.Errorf("nil stop: %+v", res)
	}
}

func TestRunUniformTrace(t *testing.T) {
	sys := testSystem(t, 4)
	counts, err := workload.AllOnOne(4, 400, 0)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewUniformState(sys, counts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunUniform(st, Algorithm1{}, nil, RunOpts{MaxRounds: 50, Seed: 3, TraceEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) < 6 { // round 0 plus 5 samples
		t.Fatalf("trace too short: %d points", len(res.Trace))
	}
	if res.Trace[0].Round != 0 {
		t.Errorf("first trace point at round %d", res.Trace[0].Round)
	}
	// Ψ₀ should broadly decrease from the adversarial start.
	first, last := res.Trace[0].Psi0, res.Trace[len(res.Trace)-1].Psi0
	if last >= first {
		t.Errorf("Ψ₀ did not decrease over the trace: %g → %g", first, last)
	}
}

// TestRunTraceIncludesFinalRound pins the RunOpts.TraceEvery contract
// ("round 0 and the final round are always included") on every exit
// path: nil-stop completion, the ErrMaxRounds exit, and convergence at
// a round that is not a sampling multiple.
func TestRunTraceIncludesFinalRound(t *testing.T) {
	sys := testSystem(t, 4)
	mkState := func() *UniformState {
		counts, err := workload.AllOnOne(4, 400, 0)
		if err != nil {
			t.Fatal(err)
		}
		st, err := NewUniformState(sys, counts)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	lastRound := func(res RunResult) int {
		if len(res.Trace) == 0 {
			t.Fatal("empty trace")
		}
		return res.Trace[len(res.Trace)-1].Round
	}

	// nil stop, MaxRounds not a multiple of TraceEvery.
	res, err := RunUniform(mkState(), Algorithm1{}, nil, RunOpts{MaxRounds: 25, Seed: 3, TraceEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	if got := lastRound(res); got != 25 {
		t.Errorf("nil stop: last trace point at round %d, want 25", got)
	}

	// Never-true stop: the ErrMaxRounds exit must still trace round 25.
	res, err = RunUniform(mkState(), Algorithm1{}, func(*UniformState) bool { return false },
		RunOpts{MaxRounds: 25, Seed: 3, TraceEvery: 10})
	if !errors.Is(err, ErrMaxRounds) {
		t.Fatalf("want ErrMaxRounds, got %v", err)
	}
	if got := lastRound(res); got != 25 {
		t.Errorf("ErrMaxRounds: last trace point at round %d, want 25", got)
	}

	// MaxRounds a multiple of TraceEvery: exactly one point for the
	// final round, not a duplicate.
	res, err = RunUniform(mkState(), Algorithm1{}, nil, RunOpts{MaxRounds: 20, Seed: 3, TraceEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	if got := lastRound(res); got != 20 {
		t.Errorf("multiple: last trace point at round %d, want 20", got)
	}
	for i := 1; i < len(res.Trace); i++ {
		if res.Trace[i].Round == res.Trace[i-1].Round {
			t.Errorf("duplicate trace point at round %d", res.Trace[i].Round)
		}
	}

	// Convergence at a round between sampling multiples still records it.
	res, err = RunUniform(mkState(), Algorithm1{}, StopAtNash(),
		RunOpts{MaxRounds: 100_000, Seed: 5, TraceEvery: 1_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	if got := lastRound(res); got != res.Rounds {
		t.Errorf("convergence: last trace point at round %d, want %d", got, res.Rounds)
	}
}

func TestRunUniformCheckEvery(t *testing.T) {
	sys := testSystem(t, 4)
	counts, err := workload.AllOnOne(4, 200, 0)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewUniformState(sys, counts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunUniform(st, Algorithm1{}, StopAtNash(), RunOpts{MaxRounds: 100_000, Seed: 4, CheckEvery: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds%7 != 0 {
		t.Errorf("converged at round %d which is not a multiple of CheckEvery=7", res.Rounds)
	}
}

// TestDriveBlocksWithinCorollaryBudget runs the amplification scheme
// of Corollary 3.18 through the driver: blocks of T = 2γ·ln(m/n) rounds,
// the stop condition checked after each (CheckEvery = T), reach
// Ψ₀ ≤ 4ψ_c within BlocksForConfidence(n, 3) blocks whp.
func TestDriveBlocksWithinCorollaryBudget(t *testing.T) {
	sys := testSystem(t, 8)
	m := int64(1600)
	counts, err := workload.AllOnOne(8, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewUniformState(sys, counts)
	if err != nil {
		t.Fatal(err)
	}
	blockRounds := int(sys.ApproxPhaseRounds(m)) + 1
	maxBlocks := BlocksForConfidence(8, 3)
	res, err := RunUniform(st, Algorithm1{}, StopAtPsi0Below(4*sys.PsiCritical()),
		RunOpts{MaxRounds: blockRounds * maxBlocks, Seed: 9, CheckEvery: blockRounds})
	if err != nil {
		t.Fatalf("did not reach Ψ₀ ≤ 4ψ_c within %d blocks of %d rounds: %v", maxBlocks, blockRounds, err)
	}
	if res.Rounds == 0 || res.Rounds%blockRounds != 0 {
		t.Errorf("stopped at round %d, not at the end of a block of %d rounds", res.Rounds, blockRounds)
	}
}

func TestStopAtPsi0Below(t *testing.T) {
	sys := testSystem(t, 8)
	counts, err := workload.AllOnOne(8, 800, 0)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewUniformState(sys, counts)
	if err != nil {
		t.Fatal(err)
	}
	threshold := 4 * sys.PsiCritical()
	res, err := RunUniform(st, Algorithm1{}, StopAtPsi0Below(threshold), RunOpts{MaxRounds: 100_000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if Psi0(st) > threshold {
		t.Errorf("stopped with Ψ₀ = %g > %g", Psi0(st), threshold)
	}
	if res.Rounds == 0 {
		t.Error("converged instantly from the adversarial start")
	}
}

func TestRunWeightedBasics(t *testing.T) {
	sys := testSystem(t, 4)
	weights, err := task.UniformWeights(100, 1)
	if err != nil {
		t.Fatal(err)
	}
	perNode, err := workload.WeightedAllOnOne(4, weights, 0)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewWeightedState(sys, perNode)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunWeighted(st, Algorithm2{}, StopAtWeightedThreshold(), RunOpts{MaxRounds: 100_000, Seed: 6, TraceEvery: 25})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || !IsWeightedThresholdNE(st) {
		t.Error("did not converge to threshold NE")
	}
	if len(res.Trace) == 0 {
		t.Error("no trace recorded")
	}
}

func TestRunWeightedValidates(t *testing.T) {
	sys := testSystem(t, 4)
	st, err := NewWeightedState(sys, []task.Weights{nil, nil, nil, nil})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunWeighted(st, Algorithm2{}, nil, RunOpts{}); err == nil {
		t.Error("MaxRounds=0 accepted")
	}
	if _, err := RunWeighted(nil, Algorithm2{}, nil, RunOpts{MaxRounds: 1}); err == nil {
		t.Error("nil state accepted")
	}
}

func TestRunnerSeedsProduceDifferentTrajectories(t *testing.T) {
	sys := testSystem(t, 8)
	counts, err := workload.AllOnOne(8, 1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	run := func(seed uint64) []int64 {
		st, err := NewUniformState(sys, counts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := RunUniform(st, Algorithm1{}, nil, RunOpts{MaxRounds: 30, Seed: seed}); err != nil {
			t.Fatal(err)
		}
		return st.Counts()
	}
	a, b := run(1), run(2)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical trajectories")
	}
}
