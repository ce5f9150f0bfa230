package repro

// Integration tests exercising the full pipeline across modules:
// graph generator → spectral analysis → system → workload → protocol →
// convergence → Nash verification, for both task models, several graph
// classes, heterogeneous speeds, and all three execution engines.

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/diffusion"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/rng"
	"repro/internal/shard"
	"repro/internal/spectral"
	"repro/internal/task"
	"repro/internal/workload"
)

// TestEndToEndUniformAllClasses drives the uniform model through every
// Table-1 class with random integer speeds, from the adversarial start
// to an exact NE, and validates the theory artifacts along the way.
func TestEndToEndUniformAllClasses(t *testing.T) {
	for _, class := range experiments.Table1Classes() {
		class := class
		t.Run(class.Key, func(t *testing.T) {
			t.Parallel()
			g, err := class.Build(16)
			if err != nil {
				t.Fatal(err)
			}
			n := g.N()
			speeds, err := machine.RandomIntegers(n, 3, rng.New(uint64(n)))
			if err != nil {
				t.Fatal(err)
			}
			sys, err := core.NewSystem(g, speeds, core.WithLambda2(class.Lambda2(g)))
			if err != nil {
				t.Fatal(err)
			}

			// λ₂ closed form must agree with the numeric eigensolver.
			numeric, err := spectral.Lambda2(g)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(numeric-sys.Lambda2())/sys.Lambda2() > 1e-5 {
				t.Fatalf("λ₂ closed form %g vs numeric %g", sys.Lambda2(), numeric)
			}

			m := int64(40 * n)
			counts, err := workload.AllOnOne(n, m, n-1)
			if err != nil {
				t.Fatal(err)
			}
			st, err := core.NewUniformState(sys, counts)
			if err != nil {
				t.Fatal(err)
			}

			// Phase 1 within the Theorem 1.1 budget.
			threshold := 4 * sys.PsiCritical()
			budget := int(2*sys.ApproxPhaseRounds(m)) + 1000
			res, err := core.RunUniform(st, core.Algorithm1{}, core.StopAtPsi0Below(threshold),
				core.RunOpts{MaxRounds: budget, Seed: 7, TraceEvery: 20})
			if err != nil {
				t.Fatalf("phase 1 exceeded the theory budget: %v", err)
			}
			// Observation 3.16 on the reached state.
			ld := core.LDelta(st)
			psi := core.Psi0(st)
			if ld*ld > psi+1e-6 || psi > sys.STotal()*ld*ld+1e-6 {
				t.Errorf("Observation 3.16 violated: L_Δ²=%g Ψ₀=%g S·L_Δ²=%g", ld*ld, psi, sys.STotal()*ld*ld)
			}

			if len(res.Trace) > 0 && res.Trace[0].Psi0 < res.Trace[len(res.Trace)-1].Psi0 {
				t.Error("potential grew over phase 1")
			}

			// Phase 2 to the exact NE within the Theorem 1.2 budget.
			exactBudget := int(sys.ExactPhaseRounds(1)) + 1000
			if _, err := core.RunUniform(st, core.Algorithm1{}, core.StopAtNash(),
				core.RunOpts{MaxRounds: exactBudget, Seed: 8, CheckEvery: 2}); err != nil {
				t.Fatalf("phase 2 exceeded the theory budget: %v", err)
			}
			if !core.IsNash(st) {
				t.Fatal("final state is not a Nash equilibrium")
			}
			// Conservation.
			total := int64(0)
			for i := 0; i < n; i++ {
				total += st.Count(i)
			}
			if total != m {
				t.Fatalf("task conservation violated: %d vs %d", total, m)
			}
		})
	}
}

// TestEndToEndWeightedPipeline drives the weighted model end to end and
// cross-checks the three weighted protocols on one instance.
func TestEndToEndWeightedPipeline(t *testing.T) {
	g, err := graph.TorusND([]int{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	sys, err := core.NewSystem(g, machine.Uniform(n),
		core.WithLambda2(spectral.Lambda2TorusND([]int{4, 4})))
	if err != nil {
		t.Fatal(err)
	}
	stream := rng.New(11)
	weights, err := task.ParetoTruncated(30*n, 1.2, 0.05, stream)
	if err != nil {
		t.Fatal(err)
	}
	perNode, err := workload.WeightedUniformRandom(n, weights, stream)
	if err != nil {
		t.Fatal(err)
	}
	perNode[0] = append(perNode[0], weights[:200]...) // skew

	for _, proto := range []core.WeightedProtocol{
		core.Algorithm2{}, core.Algorithm2Literal{}, core.BaselineWeighted{},
	} {
		st, err := core.NewWeightedState(sys, perNode)
		if err != nil {
			t.Fatal(err)
		}
		wantW := st.TotalWeight()
		res, err := core.RunWeighted(st, proto, core.StopAtWeightedApproxNash(0.3),
			core.RunOpts{MaxRounds: 500_000, Seed: 12})
		if err != nil {
			t.Fatalf("%s: %v", proto.Name(), err)
		}
		st.RecomputeWeights()
		if math.Abs(st.TotalWeight()-wantW) > 1e-6 {
			t.Errorf("%s: weight drifted %g → %g", proto.Name(), wantW, st.TotalWeight())
		}
		if !core.IsWeightedApproxNash(st, 0.3) {
			t.Errorf("%s: stop fired but predicate false", proto.Name())
		}
		t.Logf("%s: %d rounds, %d moves", proto.Name(), res.Rounds, res.Moves)
	}
}

// TestEnginesAgreeEndToEnd runs the same instance on the sequential
// engine, the in-process shard engine and the in-process cluster and
// demands identical final states.
func TestEnginesAgreeEndToEnd(t *testing.T) {
	g, err := graph.Hypercube(4)
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	speeds, err := machine.TwoClass(n, 0.25, 2)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(g, speeds, core.WithLambda2(spectral.Lambda2Hypercube(4)))
	if err != nil {
		t.Fatal(err)
	}
	counts, err := workload.TwoCorners(n, 5000, 0, n-1)
	if err != nil {
		t.Fatal(err)
	}
	const rounds, seed = 400, 99

	seq, err := core.NewUniformState(sys, counts)
	if err != nil {
		t.Fatal(err)
	}
	base := rng.New(seed)
	proto := core.Algorithm1{}
	for r := uint64(1); r <= rounds; r++ {
		proto.Step(seq, r, base)
	}

	eng, err := shard.New(sys, core.Algorithm1{}, counts, shard.Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	cl, err := shard.StartLocalUniformCluster(sys, core.Algorithm1{}, counts, shard.Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	baseShard, baseCluster := rng.New(seed), rng.New(seed)
	for r := uint64(1); r <= rounds; r++ {
		if _, err := eng.Step(r, baseShard); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Step(r, baseCluster); err != nil {
			t.Fatal(err)
		}
	}

	shardCounts := eng.Counts()
	clusterCounts, err := cl.Counts()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if seq.Count(i) != shardCounts[i] || seq.Count(i) != clusterCounts[i] {
			t.Fatalf("engines disagree at node %d: seq=%d shard=%d cluster=%d",
				i, seq.Count(i), shardCounts[i], clusterCounts[i])
		}
	}
}

// TestProtocolTracksDiffusionEndToEnd checks the §1 claim on a fresh
// instance: the protocol's mean trajectory stays near the deterministic
// expected-flow recursion.
func TestProtocolTracksDiffusionEndToEnd(t *testing.T) {
	g, err := graph.Mesh(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	sys, err := core.NewSystem(g, machine.Uniform(n),
		core.WithLambda2(spectral.Lambda2Mesh(5, 5)))
	if err != nil {
		t.Fatal(err)
	}
	counts, err := workload.AllOnOne(n, int64(100*n), 12) // center of the mesh
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, n)
	for i, c := range counts {
		x[i] = float64(c)
	}
	const rounds, trials = 15, 400
	drift, err := diffusion.ExpectedFlow(sys, x, 0, rounds)
	if err != nil {
		t.Fatal(err)
	}
	mean := make([]float64, n)
	for k := 0; k < trials; k++ {
		st, err := core.NewUniformState(sys, counts)
		if err != nil {
			t.Fatal(err)
		}
		base := rng.New(uint64(k + 1))
		proto := core.Algorithm1{}
		for r := uint64(1); r <= rounds; r++ {
			proto.Step(st, r, base)
		}
		for i := 0; i < n; i++ {
			mean[i] += float64(st.Count(i))
		}
	}
	dist2, norm2 := 0.0, 0.0
	for i := range mean {
		mean[i] /= trials
		d := mean[i] - drift[i]
		dist2 += d * d
		norm2 += drift[i] * drift[i]
	}
	if rel := math.Sqrt(dist2 / norm2); rel > 0.02 {
		t.Errorf("protocol mean deviates %.2f%% from the expected-flow drift", 100*rel)
	}
}
