package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/rng"
	"repro/internal/spectral"
	"repro/internal/task"
	"repro/internal/workload"
)

// Sub-stream indices of the workload seed. Every input a run uses is
// drawn from rng.New(seed).Split(k) for one of these k, so one seed
// fixes the whole run and an unseen seed gives a fresh, equally sized
// instance.
const (
	streamWeights = iota + 1
	streamPlacement
	streamOps
	streamProtocol
)

func subStream(seed uint64, k uint64) *rng.Stream { return rng.New(seed).Split(k) }

// protocolSeed derives the i-th protocol seed of a run.
func protocolSeed(seed uint64, i int) uint64 {
	return subStream(seed, streamProtocol).Split(uint64(i)).Uint64()
}

// setupTimes splits one instance build into the three constructors a
// front end calls in order.
type setupTimes struct {
	graph, instance, engine time.Duration
}

func (s setupTimes) total() time.Duration { return s.graph + s.instance + s.engine }

// medianSetup reduces repeated builds to per-part medians.
func medianSetup(ts []setupTimes) (total, g, inst, eng float64) {
	var a, b, c, d []float64
	for _, t := range ts {
		a = append(a, t.total().Seconds())
		b = append(b, t.graph.Seconds())
		c = append(c, t.instance.Seconds())
		d = append(d, t.engine.Seconds())
	}
	return median(a), median(b), median(c), median(d)
}

func addSetupMetrics(w *windowOut, ts []setupTimes) {
	total, g, inst, eng := medianSetup(ts)
	n := int64(len(ts))
	w.e("setup_s", "s", total, n, "median of builds")
	w.l("setup.graph_s", "s", g, n, "median")
	w.l("setup.instance_s", "s", inst, n, "median")
	w.l("setup.engine_s", "s", eng, n, "median")
}

// twoClassSystem builds the graph and a two-class speed profile (a
// quarter of the nodes at speed 2, the rest at 1), as lbsim, lbd and
// lbshard do with -speeds twoclass.
func twoClassSystem(g *graph.Graph, lambda2 float64) (*core.System, error) {
	speeds, err := machine.TwoClass(g.N(), 0.25, 2)
	if err != nil {
		return nil, err
	}
	return core.NewSystem(g, speeds, core.WithLambda2(lambda2))
}

func ringSystem(n int) (*core.System, error) {
	g, err := graph.Ring(n)
	if err != nil {
		return nil, err
	}
	return twoClassSystem(g, spectral.Lambda2Ring(n))
}

func hypercubeSystem(d int) (*core.System, error) {
	g, err := graph.Hypercube(d)
	if err != nil {
		return nil, err
	}
	return twoClassSystem(g, spectral.Lambda2Hypercube(d))
}

// weightedTasks draws m task weights from U[0.1, 1] and places them:
// "proportional" to speed, or "corner" (all on node 0).
func weightedTasks(sys *core.System, m int, placement string, seed uint64) ([]task.Weights, error) {
	weights, err := task.RandomWeights(m, 0.1, 1, subStream(seed, streamWeights))
	if err != nil {
		return nil, err
	}
	switch placement {
	case "proportional":
		return workload.WeightedProportional(sys.Speeds(), weights)
	case "corner":
		return workload.WeightedAllOnOne(sys.N(), weights, 0)
	}
	return nil, fmt.Errorf("unknown placement %q", placement)
}

func totalWeight(perNode []task.Weights) (w float64, count int64) {
	for _, ws := range perNode {
		w += ws.Total()
		count += int64(len(ws))
	}
	return w, count
}
