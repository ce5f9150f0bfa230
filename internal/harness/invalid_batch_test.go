package harness_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/rng"
	"repro/internal/task"
)

// invalidEngine is one built engine of either task model, reduced to
// what the invalid-batch test reads and drives.
type invalidEngine struct {
	step  func(r uint64) (int64, error)
	dyn   core.DynamicEngine
	es    core.EventStepper // nil unless the engine fuses events into rounds
	snap  func() string     // counts or task weights, task count and Ψ₀ bits
	close func() error
}

func buildInvalidEngine(t *testing.T, model, engine string, sys *core.System) invalidEngine {
	t.Helper()
	n := sys.N()
	eo := harness.EngineOpts{Shards: 2}
	if model == "uniform" {
		counts := make([]int64, n)
		for i := range counts {
			counts[i] = int64(7*i%5) * 3
		}
		h, err := harness.BuildUniformEngine(engine, sys, core.Algorithm1{}, counts, eo)
		if err != nil {
			t.Fatal(err)
		}
		e := invalidEngine{step: func(r uint64) (int64, error) { return h.Engine.Step(r, rng.New(7)) }, close: h.Close}
		e.dyn, _ = h.Engine.(core.DynamicEngine)
		e.es, _ = h.Engine.(core.EventStepper)
		e.snap = func() string {
			st, err := h.Engine.State()
			if err != nil {
				t.Fatal(err)
			}
			return fmt.Sprint(st.Counts(), st.Total(), math.Float64bits(st.Psi0()))
		}
		return e
	}
	perNode := make([]task.Weights, n)
	for i := range perNode {
		for k := 0; k < 7*i%5; k++ {
			perNode[i] = append(perNode[i], 0.1+0.1*float64((k+i)%9))
		}
	}
	h, err := harness.BuildWeightedEngine(engine, sys, core.Algorithm2{}, perNode, eo)
	if err != nil {
		t.Fatal(err)
	}
	e := invalidEngine{step: func(r uint64) (int64, error) { return h.Engine.Step(r, rng.New(7)) }, close: h.Close}
	e.dyn, _ = h.Engine.(core.DynamicEngine)
	e.es, _ = h.Engine.(core.EventStepper)
	e.snap = func() string {
		st, err := h.Engine.State()
		if err != nil {
			t.Fatal(err)
		}
		ws := make([]task.Weights, n)
		for i := range ws {
			ws[i] = st.TaskWeights(i)
		}
		return fmt.Sprint(ws, st.TaskCount(), math.Float64bits(st.Psi0()))
	}
	return e
}

// TestInvalidBatchLeavesEngineUnchanged: every engine checks a whole
// event batch before it applies any of it. A batch whose node-0 arrival
// is valid but whose entry at a later node is not fails on seq, shard
// and cluster alike, in both task models and through both event paths
// (ApplyEvents, and StepEvents where the engine fuses events into a
// round). It leaves the counts or task weights, the task count and the
// bits of Ψ₀ as they were, and the engine's next Step matches that of an
// engine that never saw the batch.
func TestInvalidBatchLeavesEngineUnchanged(t *testing.T) {
	const n, bad = 8, 6
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
	weightAt := func(b *core.EventBatch, w float64) {
		if b.WeightArrivals == nil {
			b.WeightArrivals = make([][]float64, n)
		}
		b.WeightArrivals[bad] = []float64{w}
	}
	kinds := []struct {
		name string
		// spoil adds the invalid entry to a batch of the given model.
		spoil func(b *core.EventBatch, model string)
	}{
		{"negative arrival", func(b *core.EventBatch, model string) {
			if model == "uniform" {
				b.Arrivals[bad] = -1
			} else {
				weightAt(b, -0.3)
			}
		}},
		{"negative departure", func(b *core.EventBatch, model string) {
			if model == "uniform" {
				b.Departures = make([]int64, n)
				b.Departures[bad] = -1
			} else {
				b.WeightDepartures = make([]int64, n)
				b.WeightDepartures[bad] = -1
			}
		}},
		{"weight 1.5", func(b *core.EventBatch, _ string) { weightAt(b, 1.5) }},
		{"weight NaN", func(b *core.EventBatch, _ string) { weightAt(b, math.NaN()) }},
	}
	for _, model := range []string{"uniform", "weighted"} {
		for _, engine := range []string{harness.EngineSeq, harness.EngineShard, harness.EngineCluster} {
			for _, kind := range kinds {
				t.Run(model+"/"+engine+"/"+kind.name, func(t *testing.T) {
					batch := &core.EventBatch{}
					if model == "uniform" {
						batch.Arrivals = make([]int64, n)
						batch.Arrivals[0] = 1
					} else {
						batch.WeightArrivals = make([][]float64, n)
						batch.WeightArrivals[0] = []float64{0.3}
					}
					kind.spoil(batch, model)

					e := buildInvalidEngine(t, model, engine, sys)
					defer e.close()
					before := e.snap()
					if _, err := e.dyn.ApplyEvents(batch); err == nil {
						t.Fatal("ApplyEvents accepted the batch")
					}
					if got := e.snap(); got != before {
						t.Fatalf("ApplyEvents changed the state:\n got  %s\n want %s", got, before)
					}
					if e.es != nil {
						if _, _, err := e.es.StepEvents(1, rng.New(7), batch); err == nil {
							t.Fatal("StepEvents accepted the batch")
						}
						if got := e.snap(); got != before {
							t.Fatalf("StepEvents changed the state:\n got  %s\n want %s", got, before)
						}
					}

					ref := buildInvalidEngine(t, model, engine, sys)
					defer ref.close()
					moves, err := e.step(1)
					if err != nil {
						t.Fatalf("Step after the refused batch: %v", err)
					}
					wantMoves, err := ref.step(1)
					if err != nil {
						t.Fatal(err)
					}
					if moves != wantMoves || e.snap() != ref.snap() {
						t.Fatalf("after the refused batch round 1 made %d moves to %s, want %d moves to %s",
							moves, e.snap(), wantMoves, ref.snap())
					}
				})
			}
		}
	}
}
