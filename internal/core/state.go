package core

import (
	"fmt"

	"repro/internal/task"
)

// UniformState is the task distribution for the uniform-task model of
// Section 3: wᵢ(x) indivisible unit-weight tasks on each processor i.
// The load of processor i is ℓᵢ = wᵢ/sᵢ.
type UniformState struct {
	sys    *System
	counts []int64
	total  int64
}

// NewUniformState creates a state with the given per-node task counts.
func NewUniformState(sys *System, counts []int64) (*UniformState, error) {
	if len(counts) != sys.N() {
		return nil, fmt.Errorf("core: %d counts for %d processors", len(counts), sys.N())
	}
	for i, c := range counts {
		if c < 0 {
			return nil, fmt.Errorf("core: negative task count %d at processor %d", c, i)
		}
	}
	total, err := AddTasks(0, counts)
	if err != nil {
		return nil, err
	}
	cp := make([]int64, len(counts))
	copy(cp, counts)
	return &UniformState{sys: sys, counts: cp, total: total}, nil
}

// System returns the underlying instance.
func (st *UniformState) System() *System { return st.sys }

// Count returns wᵢ, the number of tasks on processor i.
func (st *UniformState) Count(i int) int64 { return st.counts[i] }

// Counts returns a copy of the task vector.
func (st *UniformState) Counts() []int64 {
	out := make([]int64, len(st.counts))
	copy(out, st.counts)
	return out
}

// Total returns m, the number of tasks. It is invariant under protocol
// rounds (migrations conserve tasks); under dynamic workloads it moves
// with Inject/Drain/ApplyEvents and is conserved only net of the
// EventLedger.
func (st *UniformState) Total() int64 { return st.total }

// Load returns ℓᵢ = wᵢ/sᵢ.
func (st *UniformState) Load(i int) float64 {
	return float64(st.counts[i]) / st.sys.speeds[i]
}

// Loads returns the load vector ℓ(x).
func (st *UniformState) Loads() []float64 {
	out := make([]float64, len(st.counts))
	for i := range out {
		out[i] = st.Load(i)
	}
	return out
}

// AverageLoad returns m/S, the load of the completely balanced state.
func (st *UniformState) AverageLoad() float64 {
	return float64(st.total) / st.sys.sSum
}

// Deviation returns eᵢ = wᵢ − m·sᵢ/S.
func (st *UniformState) Deviation(i int) float64 {
	return float64(st.counts[i]) - st.AverageLoad()*st.sys.speeds[i]
}

// Clone returns an independent deep copy.
func (st *UniformState) Clone() *UniformState {
	cp, _ := NewUniformState(st.sys, st.counts)
	return cp
}

// applyDelta applies a migration delta vector; callers must guarantee the
// vector sums to zero and never drives a count negative.
func (st *UniformState) applyDelta(delta []int64) {
	for i, d := range delta {
		st.counts[i] += d
		if st.counts[i] < 0 {
			panic(fmt.Sprintf("core: task count at node %d went negative", i))
		}
	}
}

// WeightRecomputeEvery is the number of incremental weight updates
// (task moves, injections, drains) after which the cached per-node
// weight sums are rebuilt from the task multisets, bounding accumulated
// floating-point drift. The rebuild is a round-end event: updates only
// count, and a protocol round ends with one check (RecomputeDue) that
// rebuilds once the count has reached the threshold. Event batches
// never rebuild, so between rebuilds there are at most
// WeightRecomputeEvery − 1 updates plus one round's moves and the
// events admitted before that round. Every engine (package shard, the
// cluster included) applies the same rule at the same round end: the
// cache bits are observable through loads and potentials.
//
// The interval was raised from 2^20 to 2^24 when the decide path moved
// to aggregated binomial flow sampling (trajectory version bump): at
// corner starts with tens of millions of tasks every round crossed the
// old threshold, so the O(total tasks) refold dominated the round. The
// drift bound is unchanged in kind — float64 summation error grows as
// O(sqrt(ops))·ulp, so 16× more ops between rebuilds costs 4× the
// bound, still ~1e-9 relative at 2^24 updates of unit-scale weights.
//
// Declared as a var (not const) solely so tests can lower the
// threshold instead of generating a 2^24-update scenario; production
// code must treat it as a constant and never write to it.
var WeightRecomputeEvery = 1 << 24

// WeightedState is the task distribution for the weighted model of
// Section 4: each processor holds a multiset of task weights wℓ ∈ (0,1];
// Wᵢ(x) = Σ_{ℓ∈x(i)} wℓ and ℓᵢ = Wᵢ/sᵢ.
type WeightedState struct {
	sys        *System
	tasks      [][]float64
	nodeWeight []float64
	totalW     float64
	count      int
	// sinceRecompute counts incremental weight updates; the cached node
	// weights are recomputed from scratch periodically to bound FP drift.
	sinceRecompute int
}

// NewWeightedState creates a state from per-node weight multisets.
func NewWeightedState(sys *System, perNode []task.Weights) (*WeightedState, error) {
	if len(perNode) != sys.N() {
		return nil, fmt.Errorf("core: %d nodes of tasks for %d processors", len(perNode), sys.N())
	}
	st := &WeightedState{
		sys:        sys,
		tasks:      make([][]float64, sys.N()),
		nodeWeight: make([]float64, sys.N()),
	}
	for i, ws := range perNode {
		if err := ws.Validate(); err != nil {
			return nil, fmt.Errorf("node %d: %w", i, err)
		}
		st.tasks[i] = append([]float64(nil), ws...)
		st.nodeWeight[i] = ws.Total()
		st.totalW += st.nodeWeight[i]
		st.count += len(ws)
	}
	return st, nil
}

// System returns the underlying instance.
func (st *WeightedState) System() *System { return st.sys }

// NodeWeight returns Wᵢ.
func (st *WeightedState) NodeWeight(i int) float64 { return st.nodeWeight[i] }

// NodeTaskCount returns |x(i)|.
func (st *WeightedState) NodeTaskCount(i int) int { return len(st.tasks[i]) }

// TaskWeights returns a copy of the weight multiset on node i.
func (st *WeightedState) TaskWeights(i int) task.Weights {
	return append(task.Weights(nil), st.tasks[i]...)
}

// TotalWeight returns W = Σ wℓ.
func (st *WeightedState) TotalWeight() float64 { return st.totalW }

// TaskCount returns m, the number of tasks.
func (st *WeightedState) TaskCount() int { return st.count }

// SinceRecompute returns the count of weight updates (moves, arrivals,
// departures) since the cached sums were last rebuilt. The parity tests
// compare it across engines.
func (st *WeightedState) SinceRecompute() int { return st.sinceRecompute }

// Load returns ℓᵢ = Wᵢ/sᵢ.
func (st *WeightedState) Load(i int) float64 {
	return st.nodeWeight[i] / st.sys.speeds[i]
}

// Loads returns the load vector.
func (st *WeightedState) Loads() []float64 {
	out := make([]float64, st.sys.N())
	for i := range out {
		out[i] = st.Load(i)
	}
	return out
}

// AverageLoad returns W/S.
func (st *WeightedState) AverageLoad() float64 { return st.totalW / st.sys.sSum }

// Deviation returns eᵢ = Wᵢ − W·sᵢ/S.
func (st *WeightedState) Deviation(i int) float64 {
	return st.nodeWeight[i] - st.AverageLoad()*st.sys.speeds[i]
}

// Clone returns an independent deep copy.
func (st *WeightedState) Clone() *WeightedState {
	cp := &WeightedState{
		sys:            st.sys,
		tasks:          make([][]float64, len(st.tasks)),
		nodeWeight:     append([]float64(nil), st.nodeWeight...),
		totalW:         st.totalW,
		count:          st.count,
		sinceRecompute: st.sinceRecompute,
	}
	for i, ts := range st.tasks {
		cp.tasks[i] = append([]float64(nil), ts...)
	}
	return cp
}

// moveTask moves the task at position idx of node i to node j, updating
// the cached node weights incrementally.
func (st *WeightedState) moveTask(i, idx, j int) {
	w := st.tasks[i][idx]
	last := len(st.tasks[i]) - 1
	st.tasks[i][idx] = st.tasks[i][last]
	st.tasks[i] = st.tasks[i][:last]
	st.tasks[j] = append(st.tasks[j], w)
	st.nodeWeight[i] -= w
	st.nodeWeight[j] += w
	st.sinceRecompute++
}

// RecomputeDue reports whether a round that ends with since weight
// updates counted must rebuild the cached sums: the one round-end
// check of WeightRecomputeEvery, shared by every engine.
func RecomputeDue(since int64) bool { return since >= int64(WeightRecomputeEvery) }

// endRound is the round-end check: it rebuilds the cached sums once the
// update count has reached WeightRecomputeEvery.
func (st *WeightedState) endRound() {
	if RecomputeDue(int64(st.sinceRecompute)) {
		st.RecomputeWeights()
	}
}

// NewWeightedStateFromSegments builds a WeightedState over storage an
// engine with its own task layout already holds (package shard): segs[i]
// is node i's task weights, and nodeWeight, totalW and sinceRecompute
// are adopted verbatim rather than recomputed. The verbatim adoption is
// the point: the cached weight sums are observable through loads and
// potentials, so an engine that maintains them with the exact
// floating-point operation order of the sequential mutators must be
// able to expose a state with identical bits — re-summing here would
// destroy that.
//
// Nothing is copied: the state keeps segs as its per-node task lists
// and nodeWeight as its cached sums. Each segment's capacity is pinned
// to its length in place, so an append (Inject, an arriving move)
// copies the node out instead of running into whatever storage follows
// it; in-place mutation still writes through. A state built over an
// engine's live storage is therefore a read-only view, and a caller
// that keeps or mutates it Clone()s it first (see Engine).
func NewWeightedStateFromSegments(sys *System, segs [][]float64, nodeWeight []float64, totalW float64, sinceRecompute int) (*WeightedState, error) {
	n := sys.N()
	if len(segs) != n {
		return nil, fmt.Errorf("core: %d task segments for %d processors", len(segs), n)
	}
	if len(nodeWeight) != n {
		return nil, fmt.Errorf("core: %d node weights for %d processors", len(nodeWeight), n)
	}
	count := 0
	for i, seg := range segs {
		if cap(seg) != len(seg) {
			segs[i] = seg[:len(seg):len(seg)]
		}
		count += len(seg)
	}
	return &WeightedState{
		sys:            sys,
		tasks:          segs,
		nodeWeight:     nodeWeight,
		totalW:         totalW,
		count:          count,
		sinceRecompute: sinceRecompute,
	}, nil
}

// RecomputeWeights rebuilds the cached node weight sums from the task
// multisets, eliminating accumulated floating-point drift.
func (st *WeightedState) RecomputeWeights() {
	total := 0.0
	for i, ts := range st.tasks {
		w := 0.0
		for _, v := range ts {
			w += v
		}
		st.nodeWeight[i] = w
		total += w
	}
	st.totalW = total
	st.sinceRecompute = 0
}
