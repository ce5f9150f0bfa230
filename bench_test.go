package repro

// The benchmark harness regenerates the paper's evaluation (Table 1) and
// the ablation experiments of DESIGN.md. Each Table-1 cell has a bench
// that runs the corresponding convergence experiment and reports the
// measured rounds (and the theorem bound) as custom metrics, so
// `go test -bench Table1` prints the empirical counterpart of the table.
//
// Benchmarks use moderate instance sizes to stay laptop-friendly; the
// cmd/table1 binary runs the full sweeps with exponent fits.

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/diffusion"
	"repro/internal/dynamics"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/rng"
	"repro/internal/shard"
	"repro/internal/spectral"
	"repro/internal/task"
	"repro/internal/workload"
)

// mustClass fetches a Table-1 graph class.
func mustClass(b *testing.B, key string) experiments.GraphClass {
	b.Helper()
	c, err := experiments.ClassByKey(key)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// mustSystem builds a uniform-speed system for a class instance.
func mustSystem(b *testing.B, class experiments.GraphClass, n int) *core.System {
	b.Helper()
	g, err := class.Build(n)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := core.NewSystem(g, machine.Uniform(g.N()), core.WithLambda2(class.Lambda2(g)))
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

// benchApproxPhase runs the Theorem-1.1 phase (all-on-one start until
// Ψ₀ ≤ 4ψ_c) once per iteration and reports rounds.
func benchApproxPhase(b *testing.B, classKey string, n, tasksPerNode int) {
	class := mustClass(b, classKey)
	sys := mustSystem(b, class, n)
	actualN := sys.N()
	m := int64(tasksPerNode) * int64(actualN)
	counts, err := workload.AllOnOne(actualN, m, 0)
	if err != nil {
		b.Fatal(err)
	}
	threshold := 4 * sys.PsiCritical()
	totalRounds := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := core.NewUniformState(sys, counts)
		if err != nil {
			b.Fatal(err)
		}
		res, err := core.RunUniform(st, core.Algorithm1{}, core.StopAtPsi0Below(threshold),
			core.RunOpts{MaxRounds: 5_000_000, Seed: uint64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		totalRounds += res.Rounds
	}
	b.ReportMetric(float64(totalRounds)/float64(b.N), "rounds")
	b.ReportMetric(2*sys.ApproxPhaseRounds(m), "theory-rounds")
}

// benchExactPhase runs all the way to an exact NE.
func benchExactPhase(b *testing.B, classKey string, n, tasksPerNode int) {
	class := mustClass(b, classKey)
	sys := mustSystem(b, class, n)
	actualN := sys.N()
	m := int64(tasksPerNode) * int64(actualN)
	counts, err := workload.AllOnOne(actualN, m, 0)
	if err != nil {
		b.Fatal(err)
	}
	totalRounds := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := core.NewUniformState(sys, counts)
		if err != nil {
			b.Fatal(err)
		}
		res, err := core.RunUniform(st, core.Algorithm1{}, core.StopAtNash(),
			core.RunOpts{MaxRounds: 10_000_000, Seed: uint64(i + 1), CheckEvery: 2})
		if err != nil {
			b.Fatal(err)
		}
		totalRounds += res.Rounds
	}
	b.ReportMetric(float64(totalRounds)/float64(b.N), "rounds")
	b.ReportMetric(sys.ExactPhaseRounds(1), "theory-rounds")
}

// --- Table 1, column "ε-approximate NE (this paper)" (E1–E4) ---

func BenchmarkTable1ApproxComplete(b *testing.B)  { benchApproxPhase(b, "complete", 64, 64) }
func BenchmarkTable1ApproxRing(b *testing.B)      { benchApproxPhase(b, "ring", 32, 64) }
func BenchmarkTable1ApproxTorus(b *testing.B)     { benchApproxPhase(b, "torus", 64, 64) }
func BenchmarkTable1ApproxHypercube(b *testing.B) { benchApproxPhase(b, "hypercube", 64, 64) }

// --- Table 1, column "Nash Equilibrium (this paper)" (E5) ---

func BenchmarkTable1ExactNEComplete(b *testing.B)  { benchExactPhase(b, "complete", 32, 32) }
func BenchmarkTable1ExactNERing(b *testing.B)      { benchExactPhase(b, "ring", 16, 32) }
func BenchmarkTable1ExactNETorus(b *testing.B)     { benchExactPhase(b, "torus", 36, 32) }
func BenchmarkTable1ExactNEHypercube(b *testing.B) { benchExactPhase(b, "hypercube", 32, 32) }

// --- Table 1 columns "[6]": the weighted baseline comparison (E6) ---

func BenchmarkBaselineComparison(b *testing.B) {
	for _, key := range []string{"complete", "torus"} {
		b.Run(key, func(b *testing.B) {
			class := mustClass(b, key)
			ratios := 0.0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := experiments.CompareWeighted(class, 16, 32, 0.25, 1, uint64(i+1), 1, "seq")
				if err != nil {
					b.Fatal(err)
				}
				ratios += res.RoundsRatioB2A
			}
			b.ReportMetric(ratios/float64(b.N), "baseline/alg2-rounds")
		})
	}
}

// --- Theorem 1.3: weighted tasks on machines with speeds (E9) ---

func BenchmarkTable1Weighted(b *testing.B) {
	for _, key := range []string{"complete", "ring", "torus", "hypercube"} {
		b.Run(key, func(b *testing.B) {
			class := mustClass(b, key)
			g, err := class.Build(32)
			if err != nil {
				b.Fatal(err)
			}
			n := g.N()
			speeds, err := machine.RandomIntegers(n, 3, rng.New(5))
			if err != nil {
				b.Fatal(err)
			}
			sys, err := core.NewSystem(g, speeds, core.WithLambda2(class.Lambda2(g)))
			if err != nil {
				b.Fatal(err)
			}
			// The task count must be large enough that the all-on-one
			// start exceeds the weighted 4ψ_c threshold even on the
			// ring, whose λ₂ (and hence ψ_c⁻¹) is tiny.
			weights, err := task.RandomWeights(128*n, 0.1, 1, rng.New(6))
			if err != nil {
				b.Fatal(err)
			}
			perNode, err := workload.WeightedAllOnOne(n, weights, 0)
			if err != nil {
				b.Fatal(err)
			}
			threshold := 4 * sys.PsiCriticalWeighted()
			totalRounds := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, err := core.NewWeightedState(sys, perNode)
				if err != nil {
					b.Fatal(err)
				}
				res, err := core.RunWeighted(st, core.Algorithm2{}, core.StopAtWeightedPsi0Below(threshold),
					core.RunOpts{MaxRounds: 3_000_000, Seed: uint64(i + 1)})
				if err != nil {
					b.Fatal(err)
				}
				totalRounds += res.Rounds
			}
			b.ReportMetric(float64(totalRounds)/float64(b.N), "rounds")
			b.ReportMetric(sys.WeightedApproxPhaseRounds(int64(len(weights))), "theory-rounds")
		})
	}
}

// --- Lemma 3.13 multiplicative drop (E7) ---

func BenchmarkPotentialDrop(b *testing.B) {
	class := mustClass(b, "torus")
	sum := 0.0
	var theory float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.MeasurePotentialDrop(class, 36, 64, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		sum += res.MeanDropRatio
		theory = res.TheoryRatio
	}
	b.ReportMetric(sum/float64(b.N), "mean-drop-ratio")
	b.ReportMetric(theory, "theory-ratio")
}

// --- Theorem 1.2 speed-granularity dependence (E8) ---

func BenchmarkSpeedGranularity(b *testing.B) {
	class := mustClass(b, "torus")
	g, err := class.Build(16)
	if err != nil {
		b.Fatal(err)
	}
	n := g.N()
	for _, eps := range []float64{1, 0.5} {
		b.Run(fmt.Sprintf("eps=%g", eps), func(b *testing.B) {
			speeds, err := machine.Granular(n, eps, 3, rng.New(7))
			if err != nil {
				b.Fatal(err)
			}
			sys, err := core.NewSystem(g, speeds, core.WithLambda2(class.Lambda2(g)))
			if err != nil {
				b.Fatal(err)
			}
			actualEps, err := speeds.Granularity(1e-9)
			if err != nil {
				b.Fatal(err)
			}
			alpha, err := sys.AlphaForGranularity(actualEps)
			if err != nil {
				b.Fatal(err)
			}
			counts, err := workload.AllOnOne(n, int64(64*n), 0)
			if err != nil {
				b.Fatal(err)
			}
			totalRounds := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, err := core.NewUniformState(sys, counts)
				if err != nil {
					b.Fatal(err)
				}
				res, err := core.RunUniform(st, core.Algorithm1{Alpha: alpha}, core.StopAtNash(),
					core.RunOpts{MaxRounds: 20_000_000, Seed: uint64(i + 1), CheckEvery: 4})
				if err != nil {
					b.Fatal(err)
				}
				totalRounds += res.Rounds
			}
			b.ReportMetric(float64(totalRounds)/float64(b.N), "rounds")
			b.ReportMetric(sys.ExactPhaseRounds(actualEps), "theory-rounds")
		})
	}
}

// --- Lemma 3.17 threshold: Ψ₀ ≤ 4ψ_c state is an ε-approx NE (E10) ---

func BenchmarkApproxNEThreshold(b *testing.B) {
	class := mustClass(b, "complete")
	sys := mustSystem(b, class, 8)
	n := sys.N()
	const delta = 2.0
	m := int64(sys.ApproxNETaskThreshold(delta)) + 1
	eps := core.EpsilonForDelta(delta)
	counts, err := workload.AllOnOne(n, m, 0)
	if err != nil {
		b.Fatal(err)
	}
	threshold := 4 * sys.PsiCritical()
	hits := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := core.NewUniformState(sys, counts)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.RunUniform(st, core.Algorithm1{}, core.StopAtPsi0Below(threshold),
			core.RunOpts{MaxRounds: 5_000_000, Seed: uint64(i + 1)}); err != nil {
			b.Fatal(err)
		}
		if core.IsApproxNash(st, eps) {
			hits++
		}
	}
	b.ReportMetric(float64(hits)/float64(b.N), "eps-NE-fraction")
}

// --- Corollary 1.16 interlacing (E11) ---

func BenchmarkGeneralizedLambda2(b *testing.B) {
	g, err := graph.Torus(16, 16)
	if err != nil {
		b.Fatal(err)
	}
	speeds, err := machine.RandomIntegers(g.N(), 4, rng.New(8))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spectral.Mu2(g, speeds); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Diffusion comparison (E12) ---

func BenchmarkDiffusionComparison(b *testing.B) {
	class := mustClass(b, "torus")
	sys := mustSystem(b, class, 36)
	n := sys.N()
	x := make([]float64, n)
	x[0] = float64(64 * n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := diffusion.ExpectedFlow(sys, x, 0, 100); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation: batched vs per-task round sampling ---

func BenchmarkRoundBatchedVsPerTask(b *testing.B) {
	sys := mustSystem(b, mustClass(b, "torus"), 64)
	n := sys.N()
	counts, err := workload.AllOnOne(n, int64(1000*n), 0)
	if err != nil {
		b.Fatal(err)
	}
	for _, impl := range []struct {
		name  string
		proto core.UniformProtocol
	}{
		{"batched", core.Algorithm1{}},
		{"pertask", core.Algorithm1PerTask{}},
	} {
		b.Run(impl.name, func(b *testing.B) {
			st, err := core.NewUniformState(sys, counts)
			if err != nil {
				b.Fatal(err)
			}
			base := rng.New(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				impl.proto.Step(st, uint64(i+1), base)
			}
		})
	}
}

// --- Ablation: damping parameter α ---

func BenchmarkAlphaAblation(b *testing.B) {
	sys := mustSystem(b, mustClass(b, "torus"), 36)
	n := sys.N()
	counts, err := workload.AllOnOne(n, int64(64*n), 0)
	if err != nil {
		b.Fatal(err)
	}
	for _, alpha := range []float64{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("alpha=%g", alpha), func(b *testing.B) {
			totalRounds := 0
			completed := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, err := core.NewUniformState(sys, counts)
				if err != nil {
					b.Fatal(err)
				}
				res, err := core.RunUniform(st, core.Algorithm1{Alpha: alpha}, core.StopAtNash(),
					core.RunOpts{MaxRounds: 400_000, Seed: uint64(i + 1), CheckEvery: 2})
				if err == nil {
					totalRounds += res.Rounds
					completed++
				}
			}
			if completed > 0 {
				b.ReportMetric(float64(totalRounds)/float64(completed), "rounds")
			}
			b.ReportMetric(float64(completed)/float64(b.N), "converged-fraction")
		})
	}
}

// --- Ablation: sequential engine vs goroutine runtimes ---

// BenchmarkDynamicEvents measures the dynamic-workload hot path: event
// generation (Poisson arrivals + speed-proportional completions keyed
// by round) and its application to the state, per round, on a
// 256-node torus. This is the per-round overhead the dynamic regime
// adds on top of the protocol itself; bench-json tracks it in
// BENCH_core.json.
func BenchmarkDynamicEvents(b *testing.B) {
	sys := mustSystem(b, mustClass(b, "torus"), 256)
	n := sys.N()
	w := dynamics.Workload{Seed: 7, ArrivalRate: float64(n), ServiceRate: 1.25, BurstEvery: 64, BurstSize: int64(8 * n)}
	b.Run("generate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			w.UniformEvents(sys, uint64(i+1))
		}
	})
	b.Run("generate+apply", func(b *testing.B) {
		counts, err := workload.Proportional(sys.Speeds(), int64(64*n))
		if err != nil {
			b.Fatal(err)
		}
		st, err := core.NewUniformState(sys, counts)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if batch := w.UniformEvents(sys, uint64(i+1)); batch != nil {
				if _, err := st.ApplyEvents(batch); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("full-round", func(b *testing.B) {
		counts, err := workload.Proportional(sys.Speeds(), int64(64*n))
		if err != nil {
			b.Fatal(err)
		}
		st, err := core.NewUniformState(sys, counts)
		if err != nil {
			b.Fatal(err)
		}
		proto := core.Algorithm1{}
		base := rng.New(3)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if batch := w.UniformEvents(sys, uint64(i+1)); batch != nil {
				if _, err := st.ApplyEvents(batch); err != nil {
					b.Fatal(err)
				}
			}
			proto.Step(st, uint64(i+1), base)
		}
	})
}

// --- Scaling: the CSR-backed shard engine at n ∈ {10⁴, 10⁵, 10⁶} ---

// BenchmarkClusterRound is the distributed-round scaling benchmark
// BENCH_scale.json tracks: one coordinator/worker protocol round over
// net.Pipe transports (every frame serialized, framed, and decoded) on
// a ring at n ∈ {10⁵, 10⁶} with P=4 shards. The transport-counter
// deltas report the wire cost per round: with halo load exchange the
// coordinator gathers boundary loads and scatters halo loads, so
// bytes/round is O(cut) and scatter-reduction-vs-broadcast measures
// how far below the old full-vector broadcast (P·8n bytes per round)
// the scatter now sits — the acceptance bound is ≥5× at n=10⁶.
func BenchmarkClusterRound(b *testing.B) {
	for _, n := range []int{100_000, 1_000_000} {
		g, err := graph.Ring(n)
		if err != nil {
			b.Fatal(err)
		}
		sys, err := core.NewSystem(g, machine.Uniform(n), core.WithLambda2(spectral.Lambda2Ring(n)))
		if err != nil {
			b.Fatal(err)
		}
		counts, err := workload.Proportional(sys.Speeds(), int64(64*n))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("ring-n=%d/P=4", n), func(b *testing.B) {
			cl, err := shard.StartLocalUniformCluster(sys, core.Algorithm1{}, counts, shard.Options{Shards: 4})
			if err != nil {
				b.Fatal(err)
			}
			defer cl.Close()
			base := rng.New(1)
			if _, err := cl.Step(1, base); err != nil {
				b.Fatal(err)
			}
			s0 := cl.Stats().Transport
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cl.Step(uint64(i+2), base); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			s1 := cl.Stats().Transport
			rounds := float64(b.N)
			scatter := float64(s1.BytesSent-s0.BytesSent) / rounds
			gather := float64(s1.BytesRecv-s0.BytesRecv) / rounds
			broadcast := 4 * 8 * float64(n)
			b.ReportMetric(scatter+gather, "bytes/round")
			b.ReportMetric(scatter, "scatter-bytes/round")
			b.ReportMetric(broadcast/scatter, "scatter-reduction-vs-broadcast")
			b.ReportMetric(rounds/b.Elapsed().Seconds(), "rounds/sec")
		})
	}
}

// BenchmarkShardRound is the scaling benchmark BENCH_scale.json tracks:
// one protocol round on a ring at n ∈ {10⁴, 10⁵, 10⁶} with every node
// active (proportional placement), sequential engine vs shard engine.
// ReportAllocs documents the shard hot path's allocation discipline —
// allocations per round stay O(1) (the round stream) at every size, so
// memory is bounded by the CSR arrays plus the flat state vectors,
// which state-bytes/node reports (~44 B/node on a ring: 12 B CSR,
// 8 B counts, 8 B loads, 8 B local delta, 4 B shard map, plus the
// offsets word and cut-proportional flow capacity).
func BenchmarkShardRound(b *testing.B) {
	for _, n := range []int{10_000, 100_000, 1_000_000} {
		g, err := graph.Ring(n)
		if err != nil {
			b.Fatal(err)
		}
		sys, err := core.NewSystem(g, machine.Uniform(n), core.WithLambda2(spectral.Lambda2Ring(n)))
		if err != nil {
			b.Fatal(err)
		}
		counts, err := workload.Proportional(sys.Speeds(), int64(64*n))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("ring-n=%d/seq", n), func(b *testing.B) {
			st, err := core.NewUniformState(sys, counts)
			if err != nil {
				b.Fatal(err)
			}
			proto := core.Algorithm1{}
			base := rng.New(1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				proto.Step(st, uint64(i+1), base)
			}
		})
		b.Run(fmt.Sprintf("ring-n=%d/shard", n), func(b *testing.B) {
			// P pinned at 8 so the cross-shard flow path is always
			// exercised, independent of the host's core count.
			eng, err := shard.New(sys, core.Algorithm1{}, counts, shard.Options{Shards: 8})
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			base := rng.New(1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Step(uint64(i+1), base); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(eng.Footprint())/float64(n), "state-bytes/node")
			b.ReportMetric(float64(eng.Partition().CutEdges()), "cut-edges")
		})
	}
}

// BenchmarkWeightedShardRound is the weighted counterpart of
// BenchmarkShardRound, tracked in BENCH_scale.json: one Algorithm-2
// round on a ring at n ∈ {10⁴, 10⁵, 10⁶} with two-class speeds, 16
// weighted tasks per node placed speed-proportionally (every node
// active), sequential engine vs weighted shard engine. One untimed
// warm-up round lets the flow and replay buffers reach steady state, so
// ReportAllocs documents the amortized hot path: O(1) allocations per
// round (the round stream) at every size — the flat task-weight pools
// replace the sequential engine's per-node slices entirely, which
// state-bytes/node reports.
func BenchmarkWeightedShardRound(b *testing.B) {
	for _, n := range []int{10_000, 100_000, 1_000_000} {
		g, err := graph.Ring(n)
		if err != nil {
			b.Fatal(err)
		}
		speeds, err := machine.TwoClass(n, 0.25, 2)
		if err != nil {
			b.Fatal(err)
		}
		sys, err := core.NewSystem(g, speeds, core.WithLambda2(spectral.Lambda2Ring(n)))
		if err != nil {
			b.Fatal(err)
		}
		weights, err := task.RandomWeights(16*n, 0.1, 1, rng.New(2))
		if err != nil {
			b.Fatal(err)
		}
		perNode, err := workload.WeightedProportional(sys.Speeds(), weights)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("ring-n=%d/seq", n), func(b *testing.B) {
			st, err := core.NewWeightedState(sys, perNode)
			if err != nil {
				b.Fatal(err)
			}
			proto := core.Algorithm2{}
			base := rng.New(1)
			proto.Step(st, 1, base)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				proto.Step(st, uint64(i+2), base)
			}
		})
		b.Run(fmt.Sprintf("ring-n=%d/shard", n), func(b *testing.B) {
			// P pinned at 8 so the cross-shard flow path is always
			// exercised, independent of the host's core count.
			eng, err := shard.NewWeighted(sys, core.Algorithm2{}, perNode, shard.Options{Shards: 8})
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			base := rng.New(1)
			if _, err := eng.Step(1, base); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Step(uint64(i+2), base); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(eng.Footprint())/float64(n), "state-bytes/node")
			b.ReportMetric(float64(eng.Partition().CutEdges()), "cut-edges")
		})
	}
}

// BenchmarkWeightedCornerRound is the adversarial-start companion of
// BenchmarkWeightedShardRound, tracked in BENCH_scale.json: one
// Algorithm-2 round on a 10⁶-node ring with all 64M weighted tasks
// starting on node 0 — the paper's worst-case potential. Early rounds
// are the expensive ones (the corner node decides tens of millions of
// tasks and ships millions of moves), so the warm-up plus timed rounds
// stay in that regime; this is the benchmark that the aggregated
// binomial flow sampling and the sparse Fisher–Yates selection exist
// for.
func BenchmarkWeightedCornerRound(b *testing.B) {
	const n = 1_000_000
	g, err := graph.Ring(n)
	if err != nil {
		b.Fatal(err)
	}
	speeds, err := machine.TwoClass(n, 0.25, 2)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := core.NewSystem(g, speeds, core.WithLambda2(spectral.Lambda2Ring(n)))
	if err != nil {
		b.Fatal(err)
	}
	weights, err := task.RandomWeights(64*n, 0.1, 1, rng.New(2))
	if err != nil {
		b.Fatal(err)
	}
	perNode, err := workload.WeightedAllOnOne(n, weights, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.Run(fmt.Sprintf("ring-n=%d/shard", n), func(b *testing.B) {
		eng, err := shard.NewWeighted(sys, core.Algorithm2{}, perNode, shard.Options{Shards: 8})
		if err != nil {
			b.Fatal(err)
		}
		defer eng.Close()
		base := rng.New(1)
		if _, err := eng.Step(1, base); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Step(uint64(i+2), base); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(eng.Footprint())/float64(n), "state-bytes/node")
	})
}

// BenchmarkShardBuild measures instance construction at scale: direct
// CSR assembly plus partitioning, the cost the old edge-map path made
// prohibitive for 10⁶ nodes.
func BenchmarkShardBuild(b *testing.B) {
	for _, n := range []int{100_000, 1_000_000} {
		b.Run(fmt.Sprintf("ring-n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g, err := graph.Ring(n)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := shard.NewPartition(g.CSR(), 8, shard.Contiguous); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Substrate micro-benchmarks ---

func BenchmarkLambda2(b *testing.B) {
	b.Run("dense-jacobi-ring64", func(b *testing.B) {
		g, err := graph.Ring(64)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := spectral.Lambda2(g); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("power-iteration-torus1024", func(b *testing.B) {
		g, err := graph.Torus(32, 32)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := spectral.Lambda2(g); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkPotentialEval(b *testing.B) {
	sys := mustSystem(b, mustClass(b, "torus"), 1024)
	counts, err := workload.UniformRandom(sys.N(), int64(100*sys.N()), rng.New(3))
	if err != nil {
		b.Fatal(err)
	}
	st, err := core.NewUniformState(sys, counts)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.Psi0(st)
	}
}
