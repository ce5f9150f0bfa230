// Engine acceptance tests for the sharded engine: bit-identical
// RunResult + trace + final counts versus the sequential reference on
// every Table-1 class, statically and under dynamic workloads
// (arrivals, departures, bursts, churn), for shard counts P ∈ {1, 2, 7}
// and both partition strategies — the package's determinism contract,
// exercised under -race in CI. The tests live in an external package so
// they can reuse the experiment classes and the harness dispatch.
package shard_test

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dynamics"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/rng"
	"repro/internal/shard"
	"repro/internal/task"
	"repro/internal/workload"
)

// shardCounts is the P matrix the satellite task demands: degenerate
// (sequential-equivalent), even, and an odd count that never divides
// the instance sizes.
var shardCounts = []int{1, 2, 7}

// buildInstance constructs a Table-1 instance with two-class speeds and
// an adversarial two-corner start.
func buildInstance(t *testing.T, class experiments.GraphClass, n int) (*core.System, []int64) {
	t.Helper()
	g, err := class.Build(n)
	if err != nil {
		t.Fatal(err)
	}
	actualN := g.N()
	speeds, err := machine.TwoClass(actualN, 0.25, 2)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(g, speeds, core.WithLambda2(class.Lambda2(g)))
	if err != nil {
		t.Fatal(err)
	}
	counts, err := workload.TwoCorners(actualN, int64(50*actualN), 0, actualN-1)
	if err != nil {
		t.Fatal(err)
	}
	return sys, counts
}

// sameRun demands exact RunResult equality, trace floats included.
func sameRun(t *testing.T, label string, want, got core.RunResult) {
	t.Helper()
	if got.Rounds != want.Rounds || got.Converged != want.Converged || got.Moves != want.Moves {
		t.Fatalf("%s: RunResult (rounds=%d conv=%v moves=%d), want (rounds=%d conv=%v moves=%d)",
			label, got.Rounds, got.Converged, got.Moves, want.Rounds, want.Converged, want.Moves)
	}
	if len(got.Trace) != len(want.Trace) {
		t.Fatalf("%s: %d trace points, want %d", label, len(got.Trace), len(want.Trace))
	}
	for k := range want.Trace {
		if got.Trace[k] != want.Trace[k] {
			t.Fatalf("%s: trace[%d] = %+v, want %+v", label, k, got.Trace[k], want.Trace[k])
		}
	}
}

func sameCounts(t *testing.T, label string, want, got []int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d counts, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: node %d count %d, want %d", label, i, got[i], want[i])
		}
	}
}

// TestShardParityStatic: seq vs shard on every Table-1 class with a
// stop condition, tracing, a CheckEvery that does not divide
// TraceEvery, every P and both strategies.
func TestShardParityStatic(t *testing.T) {
	for _, class := range experiments.Table1Classes() {
		class := class
		t.Run(class.Key, func(t *testing.T) {
			t.Parallel()
			sys, counts := buildInstance(t, class, 16)
			stop := core.StopAtPsi0Below(4 * sys.PsiCritical())
			opts := core.RunOpts{MaxRounds: 200_000, Seed: 11, TraceEvery: 7, CheckEvery: 3}
			ref, refCounts, err := harness.RunUniformEngine(harness.EngineSeq, sys, core.Algorithm1{}, counts, stop, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !ref.Converged || ref.Rounds == 0 {
				t.Fatalf("reference run did not converge meaningfully: %+v", ref)
			}
			for _, p := range shardCounts {
				for _, strategy := range []string{"contiguous", "degree"} {
					label := harness.EngineShard + "/" + strategy
					res, gotCounts, err := harness.RunUniformEngineOpts(harness.EngineShard, sys,
						core.Algorithm1{}, counts, stop, opts,
						harness.EngineOpts{Shards: p, Workers: 2, Strategy: strategy})
					if err != nil {
						t.Fatalf("%s P=%d: %v", label, p, err)
					}
					sameRun(t, label, ref, res)
					sameCounts(t, label, refCounts, gotCounts)
				}
			}
		})
	}
}

// TestShardParityDynamic: the full dynamic scenario — continuous
// arrivals, speed-proportional completions, bursts and alternating node
// churn — must be bit-identical to the sequential engine for every P.
func TestShardParityDynamic(t *testing.T) {
	for _, class := range experiments.Table1Classes() {
		class := class
		t.Run(class.Key, func(t *testing.T) {
			t.Parallel()
			sys, counts := buildInstance(t, class, 16)
			opts := harness.DynamicOpts{
				MaxRounds: 200,
				Seed:      31,
				Workload: dynamics.Workload{
					Seed:        1031,
					ArrivalRate: 12,
					ServiceRate: 0.5,
					BurstEvery:  40,
					BurstSize:   150,
				},
				Churn: dynamics.AlternatingChurn(200, 60),
			}
			ref, err := harness.RunUniformDynamic(harness.EngineSeq, sys, core.Algorithm1{}, counts, opts)
			if err != nil {
				t.Fatal(err)
			}
			if ref.Ledger.Arrived == 0 || ref.Ledger.Departed == 0 || ref.Epochs < 2 {
				t.Fatalf("scenario not exercising events/churn: %+v %+v", ref.Ledger, ref)
			}
			for _, p := range shardCounts {
				sopts := opts
				sopts.Engine = harness.EngineOpts{Shards: p, Workers: 2}
				res, err := harness.RunUniformDynamic(harness.EngineShard, sys, core.Algorithm1{}, counts, sopts)
				if err != nil {
					t.Fatalf("P=%d: %v", p, err)
				}
				if res.Rounds != ref.Rounds || res.Epochs != ref.Epochs || res.Moves != ref.Moves ||
					res.FinalN != ref.FinalN || res.Ledger != ref.Ledger || res.Metrics != ref.Metrics {
					t.Fatalf("P=%d: result %+v, want %+v", p, res, ref)
				}
				if len(res.Trace) != len(ref.Trace) {
					t.Fatalf("P=%d: %d trace points, want %d", p, len(res.Trace), len(ref.Trace))
				}
				for k := range ref.Trace {
					if res.Trace[k] != ref.Trace[k] {
						t.Fatalf("P=%d: trace[%d] = %+v, want %+v", p, k, res.Trace[k], ref.Trace[k])
					}
				}
				sameCounts(t, "dynamic", ref.FinalCounts, res.FinalCounts)
			}
		})
	}
}

// stepCase is one instance of the step-by-step tests: a graph family,
// a speed profile, the protocol seed and the number of rounds.
type stepCase struct {
	name   string
	build  func() (*graph.Graph, error)
	speeds func(n int) (machine.Speeds, error)
	seed   uint64
	rounds uint64
}

func uniformSpeeds(n int) (machine.Speeds, error) { return machine.Uniform(n), nil }

func twoClassSpeeds(n int) (machine.Speeds, error) { return machine.TwoClass(n, 0.25, 2) }

func randomSpeeds(n int) (machine.Speeds, error) {
	return machine.RandomIntegers(n, 3, rng.New(uint64(n)))
}

// stepCases crosses several graph families with the speed profiles.
var stepCases = []stepCase{
	{"ring16-uniform", func() (*graph.Graph, error) { return graph.Ring(16) }, uniformSpeeds, 1, 60},
	{"torus4x4-twoclass", func() (*graph.Graph, error) { return graph.Torus(4, 4) }, twoClassSpeeds, 2, 60},
	{"torus6x6-twoclass", func() (*graph.Graph, error) { return graph.Torus(6, 6) }, twoClassSpeeds, 5, 40},
	{"hypercube4-random", func() (*graph.Graph, error) { return graph.Hypercube(4) }, randomSpeeds, 3, 50},
	{"complete12-random", func() (*graph.Graph, error) { return graph.Complete(12) }, randomSpeeds, 4, 40},
	{"mesh3x5-twoclass", func() (*graph.Graph, error) { return graph.Mesh(3, 5) }, twoClassSpeeds, 5, 60},
}

// system builds the case's graph and speeds.
func (tc stepCase) system(t *testing.T) *core.System {
	t.Helper()
	g, err := tc.build()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := tc.speeds(g.N())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(g, sp)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// twoCorners is the adversarial start with tasksPerNode·n tasks split
// between the first and the last node.
func twoCorners(t *testing.T, n int, tasksPerNode int64) []int64 {
	t.Helper()
	counts, err := workload.TwoCorners(n, tasksPerNode*int64(n), 0, n-1)
	if err != nil {
		t.Fatal(err)
	}
	return counts
}

// stepUniform drives eng and the sequential protocol round by round
// and demands identical move totals and counts after every round, plus
// conservation.
func stepUniform(t *testing.T, sys *core.System, proto core.UniformNodeProtocol, counts []int64, eng *shard.Engine, seed, rounds uint64) {
	t.Helper()
	total := int64(0)
	for _, c := range counts {
		total += c
	}
	st, err := core.NewUniformState(sys, counts)
	if err != nil {
		t.Fatal(err)
	}
	seqBase, shardBase := rng.New(seed), rng.New(seed)
	for r := uint64(1); r <= rounds; r++ {
		wantMoves := proto.Step(st, r, seqBase)
		gotMoves, err := eng.Step(r, shardBase)
		if err != nil {
			t.Fatal(err)
		}
		if gotMoves != wantMoves {
			t.Fatalf("round %d: %d moves, want %d", r, gotMoves, wantMoves)
		}
		got := eng.Counts()
		sum := int64(0)
		for i := range got {
			if got[i] != st.Count(i) {
				t.Fatalf("round %d node %d: count %d, want %d", r, i, got[i], st.Count(i))
			}
			sum += got[i]
		}
		if sum != total {
			t.Fatalf("round %d: conservation broken, %d tasks, want %d", r, sum, total)
		}
	}
}

// TestShardStepByStep drives the engine directly (no harness) on every
// step case and checks per-round move totals and counts against the
// sequential protocol, plus conservation after every round.
func TestShardStepByStep(t *testing.T) {
	for _, tc := range stepCases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			sys := tc.system(t)
			counts := twoCorners(t, sys.N(), 50)
			eng, err := shard.New(sys, core.Algorithm1{}, counts, shard.Options{Shards: 7, Workers: 3})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			stepUniform(t, sys, core.Algorithm1{}, counts, eng, tc.seed, tc.rounds)
		})
	}
}

// TestShardPerTaskProtocol runs the literal per-task formulation of
// Algorithm 1 on the shard engine round by round: the engine is generic
// over core.UniformNodeProtocol, not tied to the batched decide.
func TestShardPerTaskProtocol(t *testing.T) {
	g, err := graph.Ring(12)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(g, machine.Uniform(g.N()))
	if err != nil {
		t.Fatal(err)
	}
	counts := twoCorners(t, sys.N(), 20)
	eng, err := shard.New(sys, core.Algorithm1PerTask{}, counts, shard.Options{Shards: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	stepUniform(t, sys, core.Algorithm1PerTask{}, counts, eng, 9, 25)
}

// TestShardApplyEvents checks dynamic event application parity against
// the state mutator, including departure clamping.
func TestShardApplyEvents(t *testing.T) {
	class, err := experiments.ClassByKey("ring")
	if err != nil {
		t.Fatal(err)
	}
	sys, counts := buildInstance(t, class, 12)
	st, err := core.NewUniformState(sys, counts)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := shard.New(sys, core.Algorithm1{}, counts, shard.Options{Shards: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	batch := &core.EventBatch{
		Arrivals:   make([]int64, sys.N()),
		Departures: make([]int64, sys.N()),
	}
	batch.Arrivals[3] = 17
	batch.Departures[0] = 1 << 40 // clamped to the queue
	batch.Departures[5] = 2
	wantLed, err := st.ApplyEvents(batch)
	if err != nil {
		t.Fatal(err)
	}
	gotLed, err := eng.ApplyEvents(batch)
	if err != nil {
		t.Fatal(err)
	}
	if gotLed != wantLed {
		t.Fatalf("ledger %+v, want %+v", gotLed, wantLed)
	}
	sameCounts(t, "events", st.Counts(), eng.Counts())
}

// TestShardLifecycle covers construction validation and the closed
// state.
func TestShardLifecycle(t *testing.T) {
	class, err := experiments.ClassByKey("ring")
	if err != nil {
		t.Fatal(err)
	}
	sys, counts := buildInstance(t, class, 8)
	if _, err := shard.New(nil, core.Algorithm1{}, counts, shard.Options{}); err == nil {
		t.Error("nil system accepted")
	}
	if _, err := shard.New(sys, nil, counts, shard.Options{}); err == nil {
		t.Error("nil protocol accepted")
	}
	if _, err := shard.New(sys, core.Algorithm1{}, counts[:3], shard.Options{}); err == nil {
		t.Error("short counts accepted")
	}
	if _, err := shard.New(sys, core.Algorithm1{}, counts, shard.Options{Strategy: "warp"}); err == nil {
		t.Error("unknown strategy accepted")
	}
	eng, err := shard.New(sys, core.Algorithm1{}, counts, shard.Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Footprint() <= 0 {
		t.Error("zero footprint")
	}
	if _, err := eng.Step(1, nil); err == nil {
		t.Error("nil base stream accepted")
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal("Close not idempotent")
	}
	if _, err := eng.Step(1, rng.New(1)); !errors.Is(err, shard.ErrClosed) {
		t.Errorf("Step after Close: %v, want ErrClosed", err)
	}
	if _, err := eng.ApplyEvents(&core.EventBatch{}); !errors.Is(err, shard.ErrClosed) {
		t.Errorf("ApplyEvents after Close: %v, want ErrClosed", err)
	}
	if _, err := eng.State(); !errors.Is(err, shard.ErrClosed) {
		t.Errorf("State after Close: %v, want ErrClosed", err)
	}
	// The weighted dispatcher validates its inputs too: a perNode
	// vector of the wrong length must be rejected, not mis-run.
	if _, _, err := harness.RunWeightedEngine(harness.EngineShard, sys, core.Algorithm2{}, nil, nil,
		core.RunOpts{MaxRounds: 1, Seed: 1}); err == nil {
		t.Error("weighted shard dispatch accepted nil perNode")
	}
}

// TestNoGoroutineLeak builds, steps and closes both in-process engines
// and both in-process clusters three times and checks that the
// goroutine count settles back: every worker pool, every cluster worker
// and every pipe goroutine exits on Close.
func TestNoGoroutineLeak(t *testing.T) {
	g, err := graph.Torus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(g, machine.Uniform(g.N()))
	if err != nil {
		t.Fatal(err)
	}
	counts := twoCorners(t, sys.N(), 20)
	weights, err := task.RandomWeights(100, 0.1, 1, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	perNode, err := workload.WeightedAllOnOne(sys.N(), weights, 0)
	if err != nil {
		t.Fatal(err)
	}
	opts := shard.Options{Shards: 3, Workers: 2}
	before := runtime.NumGoroutine()
	for rep := 0; rep < 3; rep++ {
		eng, err := shard.New(sys, core.Algorithm1{}, counts, opts)
		if err != nil {
			t.Fatal(err)
		}
		weng, err := shard.NewWeighted(sys, core.Algorithm2{}, perNode, opts)
		if err != nil {
			t.Fatal(err)
		}
		cl, err := shard.StartLocalUniformCluster(sys, core.Algorithm1{}, counts, opts)
		if err != nil {
			t.Fatal(err)
		}
		wcl, err := shard.StartLocalWeightedCluster(sys, core.Algorithm2{}, perNode, opts)
		if err != nil {
			t.Fatal(err)
		}
		engines := []interface {
			Step(uint64, *rng.Stream) (int64, error)
			Close() error
		}{eng, weng, cl, wcl}
		base := rng.New(uint64(rep))
		for r := uint64(1); r <= 5; r++ {
			for _, e := range engines {
				if _, err := e.Step(r, base); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, e := range engines {
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Goroutines unwind asynchronously after Close returns.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after close", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestShardWorkerStriping pins worker/shard interaction: more shards
// than workers, more workers than shards, and the P > n clamp all
// produce the reference trajectory.
func TestShardWorkerStriping(t *testing.T) {
	class, err := experiments.ClassByKey("hypercube")
	if err != nil {
		t.Fatal(err)
	}
	sys, counts := buildInstance(t, class, 16)
	opts := core.RunOpts{MaxRounds: 60, Seed: 9, TraceEvery: 10}
	ref, refCounts, err := harness.RunUniformEngine(harness.EngineSeq, sys, core.Algorithm1{}, counts, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, eo := range []harness.EngineOpts{
		{Shards: 16, Workers: 3},   // striped: worker 0 runs shards 0,3,6,...
		{Shards: 2, Workers: 8},    // workers clamped to shards
		{Shards: 1000, Workers: 4}, // shards clamped to n
		{Shards: 5, Workers: 1},    // single worker, many shards
		{Workers: 2},               // shards default to workers
		{Shards: 4, Strategy: "degree"},
	} {
		res, gotCounts, err := harness.RunUniformEngineOpts(harness.EngineShard, sys,
			core.Algorithm1{}, counts, nil, opts, eo)
		if err != nil {
			t.Fatalf("%+v: %v", eo, err)
		}
		sameRun(t, "striping", ref, res)
		sameCounts(t, "striping", refCounts, gotCounts)
	}
}

// TestPhasesReportShardBusy: both in-process engines report each
// shard's decide and commit busy time, which lies inside the phase's
// barrier-to-barrier time, and the phases line prints it.
func TestPhasesReportShardBusy(t *testing.T) {
	class, err := experiments.ClassByKey("torus")
	if err != nil {
		t.Fatal(err)
	}
	sys, counts := buildInstance(t, class, 64)
	ue, err := shard.New(sys, core.Algorithm1{}, counts, shard.Options{Shards: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer ue.Close()
	_, perNode := buildWeighted(t, class, 64, 8)
	we, err := shard.NewWeighted(sys, core.Algorithm2{}, perNode, shard.Options{Shards: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer we.Close()
	for _, eng := range []interface {
		Step(uint64, *rng.Stream) (int64, error)
		Phases() shard.PhaseTimes
	}{ue, we} {
		base := rng.New(4)
		for r := uint64(1); r <= 5; r++ {
			if _, err := eng.Step(r, base); err != nil {
				t.Fatal(err)
			}
		}
		ph := eng.Phases()
		if len(ph.Shards) != 3 {
			t.Fatalf("%d shard times for 3 shards", len(ph.Shards))
		}
		for s, st := range ph.Shards {
			if st.Decide <= 0 || st.Decide > ph.Decide || st.Commit < 0 || st.Commit > ph.Commit {
				t.Errorf("shard %d busy %+v outside the phases' decide %v and commit %v", s, st, ph.Decide, ph.Commit)
			}
		}
		if !strings.Contains(ph.String(), "; shard busy decide ") {
			t.Errorf("phases line %q prints no shard busy times", ph)
		}
	}
}
