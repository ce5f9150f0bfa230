package core

import (
	"math"
	"testing"

	"repro/internal/task"
)

// TestWeightedCloneKeepsRecomputeSchedule guards against clones silently
// resetting the FP-drift recompute counter: a cloned state must rebuild
// its cached weights on the same schedule as the original.
func TestWeightedCloneKeepsRecomputeSchedule(t *testing.T) {
	sys := testSystem(t, 4)
	st, err := NewWeightedState(sys, []task.Weights{{0.5, 0.25}, {0.75}, nil, nil})
	if err != nil {
		t.Fatal(err)
	}
	st.moveTask(0, 0, 2)
	st.moveTask(1, 0, 3)
	if st.sinceRecompute != 2 {
		t.Fatalf("sinceRecompute = %d after two moves, want 2", st.sinceRecompute)
	}
	cp := st.Clone()
	if cp.sinceRecompute != st.sinceRecompute {
		t.Errorf("Clone dropped sinceRecompute: got %d, want %d", cp.sinceRecompute, st.sinceRecompute)
	}
}

func TestUniformStateBasics(t *testing.T) {
	sys := testSystem(t, 4)
	st, err := NewUniformState(sys, []int64{3, 1, 0, 4})
	if err != nil {
		t.Fatal(err)
	}
	if st.Total() != 8 {
		t.Errorf("total %d", st.Total())
	}
	if st.Count(3) != 4 || st.Load(3) != 4 {
		t.Errorf("count/load of node 3: %d/%g", st.Count(3), st.Load(3))
	}
	if got := st.AverageLoad(); got != 2 {
		t.Errorf("average load %g", got)
	}
	if got := st.Deviation(0); got != 1 {
		t.Errorf("deviation(0) = %g", got)
	}
	loads := st.Loads()
	if len(loads) != 4 || loads[0] != 3 {
		t.Errorf("loads %v", loads)
	}
	counts := st.Counts()
	counts[0] = 99
	if st.Count(0) == 99 {
		t.Error("Counts() aliases internal storage")
	}
}

func TestUniformStateValidation(t *testing.T) {
	sys := testSystem(t, 4)
	if _, err := NewUniformState(sys, []int64{1, 2}); err == nil {
		t.Error("wrong-length counts accepted")
	}
	if _, err := NewUniformState(sys, []int64{1, -2, 0, 0}); err == nil {
		t.Error("negative count accepted")
	}
}

func TestUniformStateClone(t *testing.T) {
	sys := testSystem(t, 4)
	st, err := NewUniformState(sys, []int64{5, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	cp := st.Clone()
	cp.applyDelta([]int64{-1, 1, 0, 0})
	if st.Count(0) != 5 || cp.Count(0) != 4 {
		t.Error("clone shares storage with original")
	}
}

func TestApplyDeltaPanicsOnNegative(t *testing.T) {
	sys := testSystem(t, 4)
	st, err := NewUniformState(sys, []int64{1, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative count did not panic")
		}
	}()
	st.applyDelta([]int64{-2, 2, 0, 0})
}

func TestWeightedStateBasics(t *testing.T) {
	sys := testSystem(t, 4)
	st, err := NewWeightedState(sys, []task.Weights{{0.5, 0.5}, {1}, nil, nil})
	if err != nil {
		t.Fatal(err)
	}
	if st.TaskCount() != 3 {
		t.Errorf("task count %d", st.TaskCount())
	}
	if math.Abs(st.TotalWeight()-2) > 1e-12 {
		t.Errorf("total weight %g", st.TotalWeight())
	}
	if st.NodeTaskCount(0) != 2 || math.Abs(st.NodeWeight(0)-1) > 1e-12 {
		t.Errorf("node 0: %d tasks, weight %g", st.NodeTaskCount(0), st.NodeWeight(0))
	}
	if math.Abs(st.AverageLoad()-0.5) > 1e-12 {
		t.Errorf("average load %g", st.AverageLoad())
	}
	tw := st.TaskWeights(0)
	tw[0] = 0.9
	if st.tasks[0][0] == 0.9 {
		t.Error("TaskWeights aliases internal storage")
	}
}

func TestWeightedStateValidation(t *testing.T) {
	sys := testSystem(t, 4)
	if _, err := NewWeightedState(sys, []task.Weights{{1}}); err == nil {
		t.Error("wrong-length placement accepted")
	}
	if _, err := NewWeightedState(sys, []task.Weights{{2}, nil, nil, nil}); err == nil {
		t.Error("weight > 1 accepted")
	}
}

func TestMoveTask(t *testing.T) {
	sys := testSystem(t, 4)
	st, err := NewWeightedState(sys, []task.Weights{{0.3, 0.7}, nil, nil, nil})
	if err != nil {
		t.Fatal(err)
	}
	st.moveTask(0, 0, 1) // move the 0.3 task
	if st.NodeTaskCount(0) != 1 || st.NodeTaskCount(1) != 1 {
		t.Fatalf("counts after move: %d/%d", st.NodeTaskCount(0), st.NodeTaskCount(1))
	}
	if math.Abs(st.NodeWeight(0)-0.7) > 1e-12 || math.Abs(st.NodeWeight(1)-0.3) > 1e-12 {
		t.Errorf("weights after move: %g/%g", st.NodeWeight(0), st.NodeWeight(1))
	}
	if math.Abs(st.TotalWeight()-1) > 1e-12 {
		t.Errorf("total drifted: %g", st.TotalWeight())
	}
}

func TestRecomputeWeights(t *testing.T) {
	sys := testSystem(t, 4)
	st, err := NewWeightedState(sys, []task.Weights{{0.25, 0.75}, {0.5}, nil, nil})
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the cache, then recompute.
	st.nodeWeight[0] = 123
	st.RecomputeWeights()
	if math.Abs(st.NodeWeight(0)-1) > 1e-12 {
		t.Errorf("recomputed weight %g, want 1", st.NodeWeight(0))
	}
	if math.Abs(st.TotalWeight()-1.5) > 1e-12 {
		t.Errorf("recomputed total %g, want 1.5", st.TotalWeight())
	}
}

func TestWeightedClone(t *testing.T) {
	sys := testSystem(t, 4)
	st, err := NewWeightedState(sys, []task.Weights{{0.5}, nil, nil, nil})
	if err != nil {
		t.Fatal(err)
	}
	cp := st.Clone()
	cp.moveTask(0, 0, 2)
	if st.NodeTaskCount(0) != 1 || cp.NodeTaskCount(0) != 0 {
		t.Error("weighted clone shares storage")
	}
}

// TestWeightedStateFromSegmentsAdopts pins the segment-adopting
// constructor: cached sums and counters are taken verbatim (not
// re-summed), the storage is shared rather than copied, and the pinned
// segment capacities make an append copy the node out instead of
// overwriting the next node's weights in a shared pool.
func TestWeightedStateFromSegmentsAdopts(t *testing.T) {
	sys := testSystem(t, 4)
	pool := []float64{0.5, 0.25, 0.75, 1}
	segs := [][]float64{pool[0:2], pool[2:3], pool[3:3], pool[3:4]}
	nw := []float64{0.75, 0.75, 0, 1.0000001} // last entry deliberately not Σ
	st, err := NewWeightedStateFromSegments(sys, segs, nw, 2.5, 7)
	if err != nil {
		t.Fatal(err)
	}
	if st.TaskCount() != 4 || st.TotalWeight() != 2.5 || st.SinceRecompute() != 7 || st.NodeWeight(3) != 1.0000001 {
		t.Fatalf("adopted (m=%d, W=%g, since=%d, W3=%g), want (4, 2.5, 7, 1.0000001)",
			st.TaskCount(), st.TotalWeight(), st.SinceRecompute(), st.NodeWeight(3))
	}
	pool[2] = 0.125
	nw[1] = 0.125
	if st.TaskWeights(1)[0] != 0.125 || st.NodeWeight(1) != 0.125 {
		t.Error("state copied its storage instead of adopting it")
	}
	if err := st.Inject(0, []float64{0.5}); err != nil {
		t.Fatal(err)
	}
	if pool[2] != 0.125 || st.NodeTaskCount(1) != 1 || st.NodeTaskCount(0) != 3 {
		t.Errorf("append on node 0 ran into node 1's segment: pool %v", pool)
	}
	if _, err := NewWeightedStateFromSegments(sys, segs[:3], nw, 0, 0); err == nil {
		t.Error("short segment list accepted")
	}
	if _, err := NewWeightedStateFromSegments(sys, segs, nw[:2], 0, 0); err == nil {
		t.Error("short node-weight vector accepted")
	}
}

// TestRecomputeAtRoundEnd pins the rebuild schedule of the cached
// weight sums at a lowered threshold: an event batch that takes the
// update count past it only counts, so the sums stay incremental, and
// the next round's moves end with the rebuild: the sums then equal a
// fresh RecomputeWeights fold bit for bit and the count reads 0.
func TestRecomputeAtRoundEnd(t *testing.T) {
	saved := WeightRecomputeEvery
	WeightRecomputeEvery = 8
	defer func() { WeightRecomputeEvery = saved }()
	sys := testSystem(t, 4)
	st, err := NewWeightedState(sys, []task.Weights{{0.1, 0.2, 0.3}, {0.7}, nil, {0.4}})
	if err != nil {
		t.Fatal(err)
	}
	batch := &EventBatch{
		WeightArrivals:   [][]float64{{0.1, 0.7}, {0.3, 0.6}, {0.15, 0.25, 0.35}, nil},
		WeightDepartures: []int64{1, 0, 0, 1},
	}
	if _, err := st.ApplyEvents(batch); err != nil {
		t.Fatal(err)
	}
	if got := st.SinceRecompute(); got != 9 {
		t.Fatalf("after a batch of 9 updates the count reads %d, want 9: the batch rebuilt the sums", got)
	}
	fresh := st.Clone()
	fresh.RecomputeWeights()
	if math.Float64bits(st.TotalWeight()) == math.Float64bits(fresh.TotalWeight()) {
		t.Fatal("the incremental total already equals the fold; the scenario cannot tell the schedules apart")
	}
	ApplyMoves(st, []TaskMove{{From: 0, Idx: 1, To: 3}, {From: 2, Idx: 0, To: 1}})
	if got := st.SinceRecompute(); got != 0 {
		t.Fatalf("after the round the count reads %d, want 0", got)
	}
	fresh = st.Clone()
	fresh.RecomputeWeights()
	for i := 0; i < sys.N(); i++ {
		if math.Float64bits(st.NodeWeight(i)) != math.Float64bits(fresh.NodeWeight(i)) {
			t.Errorf("node %d: sum %v after the round, fold %v", i, st.NodeWeight(i), fresh.NodeWeight(i))
		}
	}
	if math.Float64bits(st.TotalWeight()) != math.Float64bits(fresh.TotalWeight()) {
		t.Errorf("total %v after the round, fold %v", st.TotalWeight(), fresh.TotalWeight())
	}
}
