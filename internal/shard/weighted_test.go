// Weighted-engine acceptance tests: bit-identical RunResult + trace +
// final task multisets versus the sequential reference on every Table-1
// class, statically and under dynamic workloads (arrivals, bursts,
// completions, churn), for shard counts P ∈ {1, 2, 7} and both
// partition strategies, plus the P ≥ n clamp and the periodic
// weight-recompute crossing — the package's weighted determinism
// contract, exercised under -race in CI.
package shard_test

import (
	"errors"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/dynamics"
	"repro/internal/experiments"
	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/rng"
	"repro/internal/shard"
	"repro/internal/task"
	"repro/internal/workload"
)

// buildWeighted constructs a Table-1 instance with two-class speeds and
// the adversarial all-on-one weighted start.
func buildWeighted(t *testing.T, class experiments.GraphClass, n, tasksPerNode int) (*core.System, []task.Weights) {
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
	weights, err := task.RandomWeights(tasksPerNode*actualN, 0.1, 1, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	perNode, err := workload.WeightedAllOnOne(actualN, weights, 0)
	if err != nil {
		t.Fatal(err)
	}
	return sys, perNode
}

// sameWeightedState demands exact equality of the cached weight sums
// and the task multisets, order included — the order is part of the
// determinism contract (Drain removes most-recent first).
func sameWeightedState(t *testing.T, label string, want, got *core.WeightedState) {
	t.Helper()
	n := want.System().N()
	for i := 0; i < n; i++ {
		if got.NodeWeight(i) != want.NodeWeight(i) {
			t.Fatalf("%s: node %d weight %g, want %g", label, i, got.NodeWeight(i), want.NodeWeight(i))
		}
		gw, rw := got.TaskWeights(i), want.TaskWeights(i)
		if len(gw) != len(rw) {
			t.Fatalf("%s: node %d has %d tasks, want %d", label, i, len(gw), len(rw))
		}
		for k := range gw {
			if gw[k] != rw[k] {
				t.Fatalf("%s: node %d task %d: %g, want %g", label, i, k, gw[k], rw[k])
			}
		}
	}
	if got.TotalWeight() != want.TotalWeight() {
		t.Fatalf("%s: total weight %g, want %g", label, got.TotalWeight(), want.TotalWeight())
	}
	if got.TaskCount() != want.TaskCount() {
		t.Fatalf("%s: %d tasks, want %d", label, got.TaskCount(), want.TaskCount())
	}
}

// TestWeightedShardParityStatic: seq vs weighted shard on every Table-1
// class with a stop condition, tracing, a CheckEvery that does not
// divide TraceEvery, every P and both strategies.
func TestWeightedShardParityStatic(t *testing.T) {
	for _, class := range experiments.Table1Classes() {
		class := class
		t.Run(class.Key, func(t *testing.T) {
			t.Parallel()
			sys, perNode := buildWeighted(t, class, 16, 60)
			stop := core.StopAtWeightedPsi0Below(4 * sys.PsiCriticalWeighted())
			opts := core.RunOpts{MaxRounds: 300_000, Seed: 21, TraceEvery: 5, CheckEvery: 2}
			ref, refState, err := harness.RunWeightedEngine(harness.EngineSeq, sys, core.Algorithm2{}, perNode, stop, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !ref.Converged || ref.Rounds == 0 {
				t.Fatalf("reference run did not converge meaningfully: %+v", ref)
			}
			for _, p := range shardCounts {
				for _, strategy := range []string{"contiguous", "degree"} {
					label := "weighted-shard/" + strategy
					res, gotState, err := harness.RunWeightedEngineOpts(harness.EngineShard, sys,
						core.Algorithm2{}, perNode, stop, opts,
						harness.EngineOpts{Shards: p, Workers: 2, Strategy: strategy})
					if err != nil {
						t.Fatalf("%s P=%d: %v", label, p, err)
					}
					sameRun(t, label, ref, res)
					sameWeightedState(t, label, refState, gotState)
				}
			}
		})
	}
}

// TestWeightedShardParityDynamic: the full weighted dynamic scenario —
// weighted arrivals, speed-proportional completions, bursts and
// alternating node churn — must be bit-identical to the sequential
// engine for every P, final task multisets included.
func TestWeightedShardParityDynamic(t *testing.T) {
	for _, class := range experiments.Table1Classes() {
		class := class
		t.Run(class.Key, func(t *testing.T) {
			t.Parallel()
			sys, perNode := buildWeighted(t, class, 16, 30)
			opts := harness.DynamicOpts{
				MaxRounds: 200,
				Seed:      77,
				Workload: dynamics.Workload{
					Seed:        1077,
					ArrivalRate: 12,
					ServiceRate: 0.5,
					BurstEvery:  40,
					BurstSize:   150,
				},
				Churn: dynamics.AlternatingChurn(200, 60),
			}
			ref, err := harness.RunWeightedDynamic(harness.EngineSeq, sys, core.Algorithm2{}, perNode, opts)
			if err != nil {
				t.Fatal(err)
			}
			if ref.Ledger.ArrivedTasks == 0 || ref.Ledger.DepartedTasks == 0 || ref.Epochs < 2 {
				t.Fatalf("scenario not exercising events/churn: %+v %+v", ref.Ledger, ref)
			}
			for _, p := range shardCounts {
				sopts := opts
				sopts.Engine = harness.EngineOpts{Shards: p, Workers: 2}
				res, err := harness.RunWeightedDynamic(harness.EngineShard, sys, core.Algorithm2{}, perNode, sopts)
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
				sameWeightedState(t, "dynamic", ref.FinalState, res.FinalState)
			}
		})
	}
}

// TestWeightedShardStepByStep drives the engine directly (no harness)
// and checks per-round move totals, cached weight sums and weight
// conservation against the sequential protocol.
func TestWeightedShardStepByStep(t *testing.T) {
	class, err := experiments.ClassByKey("torus")
	if err != nil {
		t.Fatal(err)
	}
	sys, perNode := buildWeighted(t, class, 36, 40)
	st, err := core.NewWeightedState(sys, perNode)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := shard.NewWeighted(sys, core.Algorithm2{}, perNode, shard.Options{Shards: 7, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	total := st.TotalWeight()
	seqBase, shardBase := rng.New(5), rng.New(5)
	proto := core.Algorithm2{}
	for r := uint64(1); r <= 40; r++ {
		wantMoves := int64(proto.Step(st, r, seqBase))
		gotMoves, err := eng.Step(r, shardBase)
		if err != nil {
			t.Fatal(err)
		}
		if gotMoves != wantMoves {
			t.Fatalf("round %d: %d moves, want %d", r, gotMoves, wantMoves)
		}
		nw := eng.NodeWeights()
		sum := 0.0
		for i := range nw {
			if nw[i] != st.NodeWeight(i) {
				t.Fatalf("round %d node %d: weight %g, want %g", r, i, nw[i], st.NodeWeight(i))
			}
			sum += nw[i]
		}
		if rel := (sum - total) / total; rel > 1e-9 || rel < -1e-9 {
			t.Fatalf("round %d: conservation broken, total %g, want %g", r, sum, total)
		}
	}
	got, err := eng.State()
	if err != nil {
		t.Fatal(err)
	}
	sameWeightedState(t, "step-by-step", st, got)
}

// TestWeightedShardApplyEvents checks dynamic event application parity
// against the state mutator, including departure clamping, on a
// multi-shard engine.
func TestWeightedShardApplyEvents(t *testing.T) {
	class, err := experiments.ClassByKey("ring")
	if err != nil {
		t.Fatal(err)
	}
	sys, perNode := buildWeighted(t, class, 12, 20)
	st, err := core.NewWeightedState(sys, perNode)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := shard.NewWeighted(sys, core.Algorithm2{}, perNode, shard.Options{Shards: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	n := sys.N()
	batch := &core.EventBatch{
		WeightArrivals:   make([][]float64, n),
		WeightDepartures: make([]int64, n),
	}
	batch.WeightArrivals[3] = []float64{0.5, 0.25, 1}
	batch.WeightArrivals[n-1] = []float64{0.125}
	batch.WeightDepartures[0] = 1 << 40 // clamped to the queue
	batch.WeightDepartures[3] = 2
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
	got, err := eng.State()
	if err != nil {
		t.Fatal(err)
	}
	sameWeightedState(t, "events", st, got)
	// A protocol round after the mutation must still track seq exactly.
	proto := core.Algorithm2{}
	proto.Step(st, 1, rng.New(8))
	if _, err := eng.Step(1, rng.New(8)); err != nil {
		t.Fatal(err)
	}
	got, err = eng.State()
	if err != nil {
		t.Fatal(err)
	}
	sameWeightedState(t, "events+round", st, got)
}

// TestWeightedShardRecomputeCrossing pins the rarest path: a run whose
// cumulative task moves cross the periodic weight-recompute threshold,
// where the sequential engine rebuilds its cached sums mid-round. The
// shard engine must fire the identical recompute at the identical move
// — the cache bits are observable through loads — so the final states
// must still match exactly. The threshold is lowered to 2²⁰ for the
// test (core.WeightRecomputeEvery is a var for exactly this purpose)
// so the scenario stays small; both engines read the same value, so
// the parity property under test is unchanged.
func TestWeightedShardRecomputeCrossing(t *testing.T) {
	if testing.Short() {
		t.Skip("2²⁰-move run in -short mode")
	}
	saved := core.WeightRecomputeEvery
	core.WeightRecomputeEvery = 1 << 20
	defer func() { core.WeightRecomputeEvery = saved }()
	class, err := experiments.ClassByKey("complete")
	if err != nil {
		t.Fatal(err)
	}
	g, err := class.Build(8)
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	sys, err := core.NewSystem(g, machine.Uniform(n), core.WithLambda2(class.Lambda2(g)))
	if err != nil {
		t.Fatal(err)
	}
	weights, err := task.RandomWeights(2_500_000, 0.1, 1, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	perNode, err := workload.WeightedAllOnOne(n, weights, 0)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.RunOpts{MaxRounds: 30, Seed: 13, TraceEvery: 10}
	ref, refState, err := harness.RunWeightedEngine(harness.EngineSeq, sys, core.Algorithm2{}, perNode, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Moves < int64(core.WeightRecomputeEvery) {
		t.Fatalf("scenario too small to cross the recompute threshold: %d moves", ref.Moves)
	}
	res, gotState, err := harness.RunWeightedEngineOpts(harness.EngineShard, sys, core.Algorithm2{}, perNode, nil, opts,
		harness.EngineOpts{Shards: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	sameRun(t, "crossing", ref, res)
	sameWeightedState(t, "crossing", refState, gotState)
}

// TestWeightedShardPartitionClamp is the P ≥ n regression test: shard
// counts at and far above the node count are clamped to n (NewPartition
// never runs with empty shards) and still reproduce the reference
// trajectory bit-for-bit.
func TestWeightedShardPartitionClamp(t *testing.T) {
	class, err := experiments.ClassByKey("hypercube")
	if err != nil {
		t.Fatal(err)
	}
	sys, perNode := buildWeighted(t, class, 16, 30)
	n := sys.N()
	opts := core.RunOpts{MaxRounds: 50, Seed: 9, TraceEvery: 10}
	ref, refState, err := harness.RunWeightedEngine(harness.EngineSeq, sys, core.Algorithm2{}, perNode, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{n, n + 1, 1000} {
		eng, err := shard.NewWeighted(sys, core.Algorithm2{}, perNode, shard.Options{Shards: p, Workers: 4})
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		if got := eng.Partition().P(); got != n {
			t.Errorf("P=%d: partition has %d shards, want clamp to %d", p, got, n)
		}
		eng.Close()
		res, gotState, err := harness.RunWeightedEngineOpts(harness.EngineShard, sys, core.Algorithm2{}, perNode, nil, opts,
			harness.EngineOpts{Shards: p, Workers: 4})
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		sameRun(t, "clamp", ref, res)
		sameWeightedState(t, "clamp", refState, gotState)
	}
}

// TestWeightedStateViewAllocs pins State() as a view rather than a
// copy: once the first call has allocated the engine's slice-header
// buffer, a call costs the same constant number of allocations, and
// under a kilobyte, whether the engine holds 10³ or 10⁶ tasks.
func TestWeightedStateViewAllocs(t *testing.T) {
	class, err := experiments.ClassByKey("ring")
	if err != nil {
		t.Fatal(err)
	}
	var allocs []float64
	for _, perNode := range []int{1, 1000} {
		sys, tasks := buildWeighted(t, class, 1000, perNode)
		eng, err := shard.NewWeighted(sys, core.Algorithm2{}, tasks, shard.Options{Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		base := rng.New(3)
		for r := uint64(1); r <= 5; r++ {
			if _, err := eng.Step(r, base); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := eng.State(); err != nil {
			t.Fatal(err)
		}
		call := func() {
			if _, err := eng.State(); err != nil {
				t.Fatal(err)
			}
		}
		allocs = append(allocs, testing.AllocsPerRun(20, call))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for k := 0; k < 20; k++ {
			call()
		}
		runtime.ReadMemStats(&after)
		if b := (after.TotalAlloc - before.TotalAlloc) / 20; b >= 1024 {
			t.Errorf("%d tasks: State() allocates %d bytes per call, want < 1 KiB", eng.TaskCount(), b)
		}
	}
	if allocs[0] != allocs[1] || allocs[1] > 2 {
		t.Fatalf("State() allocs at 10³ / 10⁶ tasks: %v / %v, want the same constant ≤ 2", allocs[0], allocs[1])
	}
}

// TestWeightedStateViewClone pins the view contract: the view tracks
// the live engine (it is invalidated by the next Step), while a Clone
// taken from it is independent storage that the Step leaves untouched.
func TestWeightedStateViewClone(t *testing.T) {
	class, err := experiments.ClassByKey("torus")
	if err != nil {
		t.Fatal(err)
	}
	sys, perNode := buildWeighted(t, class, 64, 30)
	eng, err := shard.NewWeighted(sys, core.Algorithm2{}, perNode, shard.Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	base := rng.New(4)
	for r := uint64(1); r <= 3; r++ {
		if _, err := eng.Step(r, base); err != nil {
			t.Fatal(err)
		}
	}
	view, err := eng.State()
	if err != nil {
		t.Fatal(err)
	}
	kept := view.Clone()
	want := view.Clone()
	moves, err := eng.Step(4, base)
	if err != nil {
		t.Fatal(err)
	}
	if moves == 0 {
		t.Fatal("round 4 moved nothing; the scenario cannot tell a view from a copy")
	}
	sameWeightedState(t, "clone after Step", want, kept)
	// The view itself aliases the engine's weight sums, so the Step
	// shows through it — which is why the contract ends at the Step.
	live := eng.NodeWeights()
	changed := false
	for i, w := range live {
		if view.NodeWeight(i) != w {
			t.Fatalf("node %d: view weight %g, engine %g", i, view.NodeWeight(i), w)
		}
		changed = changed || w != want.NodeWeight(i)
	}
	if !changed {
		t.Fatal("a round with moves left every node weight unchanged")
	}
}

// TestWeightedShardLifecycle covers construction validation and the
// closed state.
func TestWeightedShardLifecycle(t *testing.T) {
	class, err := experiments.ClassByKey("ring")
	if err != nil {
		t.Fatal(err)
	}
	sys, perNode := buildWeighted(t, class, 8, 10)
	if _, err := shard.NewWeighted(nil, core.Algorithm2{}, perNode, shard.Options{}); err == nil {
		t.Error("nil system accepted")
	}
	if _, err := shard.NewWeighted(sys, nil, perNode, shard.Options{}); err == nil {
		t.Error("nil protocol accepted")
	}
	if _, err := shard.NewWeighted(sys, core.Algorithm2{}, perNode[:3], shard.Options{}); err == nil {
		t.Error("short perNode accepted")
	}
	bad := append([]task.Weights(nil), perNode...)
	bad[2] = task.Weights{1.5}
	if _, err := shard.NewWeighted(sys, core.Algorithm2{}, bad, shard.Options{}); err == nil {
		t.Error("out-of-range weight accepted")
	}
	if _, err := shard.NewWeighted(sys, core.Algorithm2{}, perNode, shard.Options{Strategy: "warp"}); err == nil {
		t.Error("unknown strategy accepted")
	}
	eng, err := shard.NewWeighted(sys, core.Algorithm2{}, perNode, shard.Options{Shards: 3})
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
	// The dispatcher rejects protocols that cannot decide against flat
	// state (the [6] baseline does not factorize into per-node
	// decisions at all).
	if _, _, err := harness.RunWeightedEngine(harness.EngineShard, sys, core.BaselineWeighted{}, perNode, nil,
		core.RunOpts{MaxRounds: 1, Seed: 1}); err == nil {
		t.Error("shard accepted a non-flat weighted protocol")
	}
}
