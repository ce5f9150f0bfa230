package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/rng"
	"repro/internal/shard"
	"repro/internal/spectral"
	"repro/internal/task"
	"repro/internal/workload"
)

// BenchmarkDecideNode times the per-node decide kernels alone, as the
// engines call them (stream split, kernel against the load vector),
// over every node of three instances, and reports ns/node:
//
//   - alg1/cluster-d=18: Algorithm 1 on the cluster workload's instance,
//     a d = 18 hypercube of two-class nodes (a quarter at speed 2) with
//     8 unit tasks per node placed uniformly at random;
//   - alg1/ring-n=1000000: Algorithm 1 on BenchmarkShardRound's balanced
//     ring, where no edge is eligible and the kernel must exit early;
//   - alg2/converge-d=16-mid: Algorithm 2 on the converge workload's
//     instance (d = 16 hypercube, two-class, 16 tasks per node of weight
//     U[0.1, 1], all started on node 0) after 50 of the ~100 rounds it
//     takes to reach Ψ₀ ≤ 4ψ_c.
//
// Every iteration decides the same round on the same state, so the
// iterations are identical. Run it with
//
//	go test -run '^$' -bench DecideNode -cpu 1 -count 10 ./internal/core
func BenchmarkDecideNode(b *testing.B) {
	b.Run("alg1/cluster-d=18", func(b *testing.B) {
		sys := benchSystem(b, hypercube(b, 18), spectral.Lambda2Hypercube(18), true)
		counts, err := workload.UniformRandom(sys.N(), int64(8*sys.N()), rng.New(1))
		if err != nil {
			b.Fatal(err)
		}
		benchDecideUniform(b, sys, counts)
	})
	b.Run("alg1/ring-n=1000000", func(b *testing.B) {
		const n = 1_000_000
		g, err := graph.Ring(n)
		if err != nil {
			b.Fatal(err)
		}
		sys := benchSystem(b, g, spectral.Lambda2Ring(n), false)
		counts, err := workload.Proportional(sys.Speeds(), 64*n)
		if err != nil {
			b.Fatal(err)
		}
		benchDecideUniform(b, sys, counts)
	})
	b.Run("alg2/converge-d=16-mid", func(b *testing.B) {
		sys := benchSystem(b, hypercube(b, 16), spectral.Lambda2Hypercube(16), true)
		weights, err := task.RandomWeights(16*sys.N(), 0.1, 1, rng.New(1))
		if err != nil {
			b.Fatal(err)
		}
		perNode, err := workload.WeightedAllOnOne(sys.N(), weights, 0)
		if err != nil {
			b.Fatal(err)
		}
		eng, err := shard.NewWeighted(sys, core.Algorithm2{}, perNode, shard.Options{})
		if err != nil {
			b.Fatal(err)
		}
		defer eng.Close()
		base := rng.New(1)
		for r := uint64(1); r <= 50; r++ {
			if _, err := eng.Step(r, base); err != nil {
				b.Fatal(err)
			}
		}
		st, err := eng.State()
		if err != nil {
			b.Fatal(err)
		}
		loads := st.Loads()
		proto := core.Algorithm2{}
		sc := core.NewWeightedScratch(sys.MaxDegree())
		roundStream := base.Split(51)
		var child rng.Stream
		b.ResetTimer()
		for it := 0; it < b.N; it++ {
			for i := 0; i < sys.N(); i++ {
				cnt := st.NodeTaskCount(i)
				if cnt == 0 {
					continue
				}
				roundStream.SplitTo(uint64(i), &child)
				decideSink += int64(len(proto.DecideNodeFlat(sys, i, cnt, st.NodeWeight(i), loads, &child, sc)))
			}
		}
		reportPerNode(b, sys.N())
	})
}

// benchDecideUniform decides one round of Algorithm 1 on counts, the
// sequential engine's decide loop without the delta merge.
func benchDecideUniform(b *testing.B, sys *core.System, counts []int64) {
	st, err := core.NewUniformState(sys, counts)
	if err != nil {
		b.Fatal(err)
	}
	loads := st.Loads()
	proto := core.Algorithm1{}
	out := make([]core.Outflow, 0, sys.MaxDegree())
	roundStream := rng.New(1).Split(1)
	var child rng.Stream
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		for i, wi := range counts {
			if wi == 0 {
				continue
			}
			roundStream.SplitTo(uint64(i), &child)
			_, m := proto.DecideNode(sys, i, wi, loads, &child, out)
			decideSink += m
		}
	}
	reportPerNode(b, sys.N())
}

// decideSink keeps the measured calls' results alive.
var decideSink int64

func reportPerNode(b *testing.B, n int) {
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/node")
}

func hypercube(b *testing.B, d int) *graph.Graph {
	g, err := graph.Hypercube(d)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// benchSystem builds g's system with two-class speeds (a quarter of the
// nodes at speed 2) or unit speeds.
func benchSystem(b *testing.B, g *graph.Graph, lambda2 float64, twoClass bool) *core.System {
	speeds := machine.Uniform(g.N())
	if twoClass {
		var err error
		if speeds, err = machine.TwoClass(g.N(), 0.25, 2); err != nil {
			b.Fatal(err)
		}
	}
	sys, err := core.NewSystem(g, speeds, core.WithLambda2(lambda2))
	if err != nil {
		b.Fatal(err)
	}
	return sys
}
