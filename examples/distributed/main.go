// Command distributed runs the protocol on an in-process cluster: a
// coordinator and four shard workers, each in its own goroutine, that
// talk only through the wire protocol over net.Pipe. A worker holds its
// own nodes and their halo (the neighbours in other shards), and a
// round moves only halo loads and cross-shard migrations between them —
// the paper's locality model, with every message on a wire. The example
// then verifies that the distributed execution reproduces the
// sequential engine's trajectory bit-for-bit under the same seed.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/shard"
	"repro/internal/spectral"
	"repro/internal/workload"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const side = 6
	g, err := graph.Torus(side, side)
	if err != nil {
		return err
	}
	n := g.N()
	speeds, err := machine.TwoClass(n, 0.25, 2)
	if err != nil {
		return err
	}
	sys, err := core.NewSystem(g, speeds, core.WithLambda2(spectral.Lambda2Torus(side, side)))
	if err != nil {
		return err
	}
	const m = 18000
	counts, err := workload.AllOnOne(n, m, 0)
	if err != nil {
		return err
	}

	const workers = 4
	cl, err := shard.StartLocalUniformCluster(sys, core.Algorithm1{}, counts, shard.Options{Shards: workers})
	if err != nil {
		return err
	}
	defer cl.Close()

	// The cluster is a core.Engine, so the shared driver gives it stop
	// conditions and potential tracing exactly like the sequential
	// engine; each stop check gathers the state from the workers.
	const seed = 7
	fmt.Printf("cluster: %s over %d shard workers on net.Pipe\n", g, workers)
	res, err := core.Drive[*core.UniformState](cl, core.StopAtNash(),
		core.RunOpts{MaxRounds: 500_000, Seed: seed, TraceEvery: 2000})
	if err != nil {
		return err
	}
	rounds := res.Rounds
	fmt.Printf("cluster: exact NE after %d rounds (converged=%v, %d moves)\n", rounds, res.Converged, res.Moves)
	for _, p := range res.Trace {
		fmt.Printf("trace:   round %6d  Ψ₀=%-12.4g L_Δ=%.3f\n", p.Round, p.Psi0, p.LDelta)
	}

	// Replay sequentially with the same seed and compare trajectories.
	seq, err := core.NewUniformState(sys, counts)
	if err != nil {
		return err
	}
	if _, err := core.RunUniform(seq, core.Algorithm1{}, nil,
		core.RunOpts{MaxRounds: rounds, Seed: seed}); err != nil {
		return err
	}
	st, err := cl.State()
	if err != nil {
		return err
	}
	mismatch := 0
	for i := 0; i < n; i++ {
		if st.Count(i) != seq.Count(i) {
			mismatch++
		}
	}
	if mismatch == 0 {
		fmt.Println("replay:  sequential engine reproduced the distributed trajectory exactly")
	} else {
		fmt.Printf("replay:  %d nodes differ (unexpected!)\n", mismatch)
	}
	fmt.Printf("final:   Ψ₀=%.3g, L_Δ=%.3f, NE=%v\n", core.Psi0(st), core.LDelta(st), core.IsNash(st))
	return nil
}
