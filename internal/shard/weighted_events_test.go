package shard

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/rng"
	"repro/internal/task"
	"repro/internal/workload"
)

// Tests of the weighted fast event path: a batch changes only the nodes
// it touches, in place, at a cost proportional to the batch rather than
// to the tasks, and leaves every segment, weight sum and ledger equal to
// the sequential mutator's.

// placement is one in-place case of the event path.
type placement int

const (
	placeSlotSlack      placement = iota // surviving arrivals fit the pool slot's slack
	placeSlotOverflow                    // they overflow a full pool slot: the node is privatized
	placePrivOverflow                    // they overflow a private segment: it is regrown
	placeDrainArrivals                   // a drain that removes only arrivals
	placeDrainOld                        // a drain that cuts into the old tasks
	placeArriveAndDrain                  // arrivals and a drain at one node
	numPlacements
)

var placementNames = [numPlacements]string{
	"arrivals into slot slack",
	"arrivals overflowing a pool slot",
	"arrivals overflowing a private segment",
	"drain removing only arrivals",
	"drain cutting into old tasks",
	"arrivals and a drain at one node",
}

// eventCases classifies node i's share of batch against e's layout
// before the batch is applied.
func eventCases(e *WeightedEngine, i int, batch *core.EventBatch) []placement {
	a := int64(len(batch.WeightArrivals[i]))
	k := e.drainCount(i, batch)
	var out []placement
	if a > 0 && k > 0 {
		out = append(out, placeArriveAndDrain)
	}
	if k > 0 && k <= a {
		out = append(out, placeDrainArrivals)
	}
	if k > a {
		out = append(out, placeDrainOld)
	}
	if keep := a - k; keep > 0 {
		s := int(e.part.shardOf[i])
		lo, _ := e.part.Range(s)
		kk := i - lo
		need := e.segLen[s][kk] + keep
		switch pv := e.priv[s][kk]; {
		case pv != nil && int64(cap(pv)) < need:
			out = append(out, placePrivOverflow)
		case pv == nil && e.off[s][kk+1]-e.off[s][kk] < need:
			out = append(out, placeSlotOverflow)
		case pv == nil:
			out = append(out, placeSlotSlack)
		}
	}
	return out
}

// storage is the address of node i's storage — its private segment,
// or its pool slot — or nil for an empty slot: equal addresses before
// and after a batch mean the node was not moved.
func storage(e *WeightedEngine, i int) *float64 {
	s := int(e.part.shardOf[i])
	lo, _ := e.part.Range(s)
	k := i - lo
	if pv := e.priv[s][k]; pv != nil {
		return &pv[:1][0]
	}
	if o := e.off[s]; o[k+1] > o[k] {
		return &e.pool[s][o[k]]
	}
	return nil
}

// sameAsSequential requires e's segments (in order), node weights,
// total and count to equal st's bit for bit.
func sameAsSequential(t *testing.T, label string, st *core.WeightedState, e *WeightedEngine) {
	t.Helper()
	for i := range st.System().N() {
		got, want := e.nodeSegment(i), st.TaskWeights(i)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: node %d tasks %v, want %v", label, i, got, want)
		}
		if math.Float64bits(e.nodeWeight[i]) != math.Float64bits(st.NodeWeight(i)) {
			t.Fatalf("%s: node %d weight %v, want %v", label, i, e.nodeWeight[i], st.NodeWeight(i))
		}
	}
	if math.Float64bits(e.totalW) != math.Float64bits(st.TotalWeight()) {
		t.Fatalf("%s: total weight %v, want %v", label, e.totalW, st.TotalWeight())
	}
	if e.count != int64(st.TaskCount()) {
		t.Fatalf("%s: %d tasks, want %d", label, e.count, st.TaskCount())
	}
}

// randomEventBatch draws a batch over n nodes: arrivals at about a
// third of them (now and then a burst that outgrows a private
// segment's headroom), drains at about a third, some clamped.
func randomEventBatch(r *rng.Stream, n int) *core.EventBatch {
	b := &core.EventBatch{WeightArrivals: make([][]float64, n), WeightDepartures: make([]int64, n)}
	for i := range n {
		if r.Intn(3) == 0 {
			m := 1 + r.Intn(4)
			if r.Intn(5) == 0 {
				m = 10 + r.Intn(12)
			}
			for range m {
				b.WeightArrivals[i] = append(b.WeightArrivals[i], 0.1+0.9*r.Float64())
			}
		}
		if r.Intn(3) == 0 {
			b.WeightDepartures[i] = int64(1 + r.Intn(5))
			if r.Intn(8) == 0 {
				b.WeightDepartures[i] = 1 << 40
			}
		}
	}
	return b
}

// TestWeightedEventsInPlace interleaves event batches with rounds on a
// weighted shard engine at P ∈ {1, 2, 3} and checks, after every batch
// and every round, each node's task sequence, weight bits, the total
// and the ledger against core.WeightedState.ApplyEvents and
// core.RunWeighted. Around every batch it also checks the layout: a
// node the batch does not touch keeps its storage, a node whose
// surviving arrivals fit its slot stays in the pool, and one whose
// arrivals overflow is privatized or regrown. Every in-place case must
// occur at every P.
func TestWeightedEventsInPlace(t *testing.T) {
	const n = 12
	g, err := graph.Ring(n)
	if err != nil {
		t.Fatal(err)
	}
	speeds, err := machine.TwoClass(n, 0.25, 2)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(g, speeds)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := task.RandomWeights(5*n, 0.1, 1, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	perNode, err := workload.WeightedProportional(sys.Speeds(), ws)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("P=%d", p), func(t *testing.T) {
			st, err := core.NewWeightedState(sys, perNode)
			if err != nil {
				t.Fatal(err)
			}
			e, err := NewWeighted(sys, core.Algorithm2{}, perNode, Options{Shards: p})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			r := rng.New(uint64(70 + p))
			var hits [numPlacements]int
			for step := range 60 {
				label := fmt.Sprintf("batch %d", step)
				batch := randomEventBatch(r, n)
				cases := make([][]placement, n)
				addr := make([]*float64, n)
				wasPriv := make([]bool, n)
				keep := make([]int64, n)
				for i := range n {
					keep[i] = int64(len(batch.WeightArrivals[i])) - e.drainCount(i, batch)
					cases[i] = eventCases(e, i, batch)
					for _, c := range cases[i] {
						hits[c]++
					}
					addr[i] = storage(e, i)
					s := int(e.part.shardOf[i])
					lo, _ := e.part.Range(s)
					wasPriv[i] = e.priv[s][i-lo] != nil
				}
				want, err := st.ApplyEvents(batch)
				if err != nil {
					t.Fatal(err)
				}
				got, err := e.ApplyEvents(batch)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("%s: ledger %+v, want %+v", label, got, want)
				}
				sameAsSequential(t, label, st, e)
				for i := range n {
					s := int(e.part.shardOf[i])
					lo, _ := e.part.Range(s)
					priv := e.priv[s][i-lo] != nil
					touched := len(batch.WeightArrivals[i]) > 0 || batch.WeightDepartures[i] > 0
					moved := storage(e, i) != addr[i]
					switch {
					case !touched && (moved || priv != wasPriv[i]):
						t.Fatalf("%s: untouched node %d was moved", label, i)
					case slices.Contains(cases[i], placeSlotSlack) && (priv || moved):
						t.Fatalf("%s: node %d left its slot for arrivals that fit it", label, i)
					case slices.Contains(cases[i], placeSlotOverflow) && !priv:
						t.Fatalf("%s: node %d overflowed its slot but was not privatized", label, i)
					case slices.Contains(cases[i], placePrivOverflow) && !moved:
						t.Fatalf("%s: node %d overflowed its private segment but was not regrown", label, i)
					case keep[i] <= 0 && moved:
						t.Fatalf("%s: node %d was moved by a batch that only shortens it", label, i)
					}
				}
				opts := core.RunOpts{MaxRounds: 1, Seed: uint64(1000 + step)}
				wantRes, err := core.RunWeighted(st, core.Algorithm2{}, nil, opts)
				if err != nil {
					t.Fatal(err)
				}
				gotRes, err := core.Drive[*core.WeightedState](e, nil, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(gotRes, wantRes) {
					t.Fatalf("round after %s: result %+v, want %+v", label, gotRes, wantRes)
				}
				sameAsSequential(t, "round after "+label, st, e)
			}
			for c, h := range hits {
				if h == 0 {
					t.Errorf("case %q never occurred", placementNames[c])
				}
			}
		})
	}
}

// TestWeightedEventsAllocation pins the event path's cost: one 64-op
// batch on a d = 16 hypercube with 16 tasks a node (2²⁰ tasks, 8 MiB of
// weights) allocates O(batch) bytes — at most one arena block per shard
// for the privatized nodes plus 1 KiB an op — instead of copying each
// touched shard's pool.
func TestWeightedEventsAllocation(t *testing.T) {
	if testing.Short() {
		t.Skip("2²⁰-task instance in -short mode")
	}
	const d, perNodeTasks, ops, shards = 16, 16, 64, 4
	g, err := graph.Hypercube(d)
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	sys, err := core.NewSystem(g, machine.Uniform(n))
	if err != nil {
		t.Fatal(err)
	}
	ws, err := task.RandomWeights(perNodeTasks*n, 0.1, 1, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	perNode, err := workload.WeightedProportional(sys.Speeds(), ws)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewWeighted(sys, core.Algorithm2{}, perNode, Options{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	batch := &core.EventBatch{WeightArrivals: make([][]float64, n), WeightDepartures: make([]int64, n)}
	r := rng.New(8)
	for op := range ops {
		i := r.Intn(n)
		if op%4 == 3 {
			batch.WeightDepartures[i]++
		} else {
			batch.WeightArrivals[i] = append(batch.WeightArrivals[i], 0.1+0.9*r.Float64())
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := e.ApplyEvents(batch); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("a %d-op batch allocated %d bytes", ops, got)
	limit := uint64(shards*arenaMinBlock*8 + ops*1024)
	if got > limit {
		t.Fatalf("a %d-op batch allocated %d bytes, want at most %d (the pool holds %d bytes)",
			ops, got, limit, perNodeTasks*n*8)
	}
}
