// Golden-trajectory regression tests: small static and dynamic runs
// whose full JSON trajectories (per-round potential trace, final
// counts, event ledger, steady-state metrics) are committed under
// testdata/. Any accidental change to the rng keying contract, the
// Drive loop, the event layer or the churn rewiring shifts the
// trajectory and fails these loudly. Regenerate intentionally with
//
//	go test ./internal/harness -run TestGolden -update
package harness_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/dynamics"
	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/rng"
	"repro/internal/task"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the golden trajectory fixtures")

// goldenInstance is the fixed 8-node ring with two-class speeds every
// golden trajectory runs on.
func goldenInstance(t *testing.T) (*core.System, []int64) {
	t.Helper()
	g, err := graph.Ring(8)
	if err != nil {
		t.Fatal(err)
	}
	speeds, err := machine.TwoClass(8, 0.25, 2)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(g, speeds)
	if err != nil {
		t.Fatal(err)
	}
	counts, err := workload.TwoCorners(8, 240, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	return sys, counts
}

// checkGolden marshals got and compares it byte-for-byte with the
// committed fixture (or rewrites it under -update).
func checkGolden(t *testing.T, name string, got any) {
	t.Helper()
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create the fixture)", err)
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("%s: trajectory drifted from the committed fixture.\nIf the change is intentional (a deliberate rng or driver change), regenerate with -update and call it out in the PR.\ngot:\n%s\nwant:\n%s", name, data, want)
	}
}

// goldenStatic is the serialized form of the static fixture.
type goldenStatic struct {
	Result core.RunResult `json:"result"`
	Counts []int64        `json:"counts"`
}

// TestGoldenStaticTrajectory replays the committed static run.
func TestGoldenStaticTrajectory(t *testing.T) {
	sys, counts := goldenInstance(t)
	res, final, err := harness.RunUniformEngine(harness.EngineSeq, sys, core.Algorithm1{}, counts,
		nil, core.RunOpts{MaxRounds: 30, Seed: 42, TraceEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden_static.json", goldenStatic{Result: res, Counts: final})
}

// TestGoldenHypercubeTrajectory replays a committed Algorithm 1 run in
// the regime the zero-mover Binomial shortcut serves: a d = 10
// hypercube with 8 tasks per node, where α = 4·s_max damps nearly every
// per-edge draw to 0. The static ring fixture takes that shortcut on 91
// of its 227 draws; this one takes it on 57,265 of 58,599, so a shortcut
// that returned anything but the exact inversion result would shift the
// trajectory. The fixture was recorded with the shortcut-free sampler.
func TestGoldenHypercubeTrajectory(t *testing.T) {
	const d = 10
	g, err := graph.Hypercube(d)
	if err != nil {
		t.Fatal(err)
	}
	speeds, err := machine.TwoClass(g.N(), 0.25, 2)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(g, speeds)
	if err != nil {
		t.Fatal(err)
	}
	counts, err := workload.UniformRandom(g.N(), int64(8*g.N()), rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	res, final, err := harness.RunUniformEngine(harness.EngineSeq, sys, core.Algorithm1{}, counts,
		nil, core.RunOpts{MaxRounds: 20, Seed: 42, TraceEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden_hypercube.json", goldenStatic{Result: res, Counts: final})
}

// goldenDynamic is the serialized form of the dynamic fixture.
type goldenDynamic struct {
	Rounds  int                    `json:"rounds"`
	Epochs  int                    `json:"epochs"`
	Moves   int64                  `json:"moves"`
	Ledger  core.EventLedger       `json:"ledger"`
	FinalN  int                    `json:"finalN"`
	Counts  []int64                `json:"counts"`
	Metrics harness.DynamicMetrics `json:"metrics"`
	Trace   []core.TracePoint      `json:"trace"`
}

// TestGoldenDynamicTrajectory replays the committed dynamic run —
// arrivals, speed-proportional completions, a burst, one leave and one
// join — through every layer of the stack.
func TestGoldenDynamicTrajectory(t *testing.T) {
	sys, counts := goldenInstance(t)
	res, err := harness.RunUniformDynamic(harness.EngineSeq, sys, core.Algorithm1{}, counts, harness.DynamicOpts{
		MaxRounds: 60,
		Seed:      42,
		Workload: dynamics.Workload{
			Seed:        7,
			ArrivalRate: 6,
			ServiceRate: 0.5,
			BurstEvery:  25,
			BurstSize:   60,
		},
		Churn: dynamics.AlternatingChurn(60, 20),
	})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden_dynamic.json", goldenDynamic{
		Rounds: res.Rounds, Epochs: res.Epochs, Moves: res.Moves,
		Ledger: res.Ledger, FinalN: res.FinalN, Counts: res.FinalCounts,
		Metrics: res.Metrics, Trace: res.Trace,
	})
}

// goldenWeighted is the serialized form of the weighted fixture: the
// run result plus the final per-node task weights, which pin the full
// migration history (every draw of the aggregated binomial decide path
// moves one concrete weight).
type goldenWeighted struct {
	Result  core.RunResult `json:"result"`
	Weights [][]float64    `json:"weights"`
}

// TestGoldenWeightedTrajectory replays the committed Algorithm 2 run:
// an all-on-one start with random weights on the golden ring. This is
// the sampler-level trajectory pin for the weighted stack — any change
// to the block-decide draw order, the Binomial dispatch thresholds or
// the recompute interval shifts it and must be called out as a
// trajectory version bump when regenerating.
func TestGoldenWeightedTrajectory(t *testing.T) {
	g, err := graph.Ring(8)
	if err != nil {
		t.Fatal(err)
	}
	speeds, err := machine.TwoClass(8, 0.25, 2)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(g, speeds)
	if err != nil {
		t.Fatal(err)
	}
	weights, err := task.RandomWeights(240, 0.1, 1, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	perNode, err := workload.WeightedAllOnOne(8, weights, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, final, err := harness.RunWeightedEngine(harness.EngineSeq, sys, core.Algorithm2{}, perNode,
		nil, core.RunOpts{MaxRounds: 30, Seed: 42, TraceEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	perNodeFinal := make([][]float64, 8)
	for i := 0; i < 8; i++ {
		perNodeFinal[i] = final.TaskWeights(i)
	}
	checkGolden(t, "golden_weighted.json", goldenWeighted{Result: res, Weights: perNodeFinal})
}
