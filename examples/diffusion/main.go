// Command diffusion compares the selfish protocol against the
// (non-selfish) diffusive load-balancing family the paper relates it to
// (§1.2): continuous first-order diffusion, deterministic rounded-flow
// diffusion, and randomized-rounding diffusion, all driven by the same
// expected flow f_ij. It prints the residual imbalance L_Δ of each
// scheme over time on the same torus instance, showing that
//
//   - the protocol's mean behaviour tracks continuous diffusion,
//   - deterministic rounding stalls at a discretization floor,
//   - randomized rounding and the selfish protocol both cut through
//     that floor (they are unbiased), with the selfish protocol needing
//     no coordination at all.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/diffusion"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/rng"
	"repro/internal/spectral"
	"repro/internal/workload"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const side = 8
	g, err := graph.Torus(side, side)
	if err != nil {
		return err
	}
	n := g.N()
	sys, err := core.NewSystem(g, machine.Uniform(n),
		core.WithLambda2(spectral.Lambda2Torus(side, side)))
	if err != nil {
		return err
	}
	const m = 64_000
	counts, err := workload.AllOnOne(n, m, 0)
	if err != nil {
		return err
	}
	x := make([]float64, n)
	for i, c := range counts {
		x[i] = float64(c)
	}

	fmt.Printf("instance: %s, m=%d, all tasks on node 0\n", g, m)
	fmt.Printf("%8s %14s %14s %14s %14s\n",
		"rounds", "continuous", "rounded", "rand-rounded", "selfish")

	// The selfish protocol run is stateful: one Runner advances it in
	// place from one checkpoint to the next.
	selfish, err := core.NewUniformState(sys, counts)
	if err != nil {
		return err
	}
	eng, err := core.SeqUniformEngine(selfish, core.Algorithm1{})
	if err != nil {
		return err
	}
	run, err := core.NewRunner(eng, 1, 0, core.RunResult{})
	if err != nil {
		return err
	}

	for _, rounds := range []int{10, 50, 100, 500, 2000, 10000} {
		cont, err := diffusion.Continuous(g, sys.Speeds(), x, 0, rounds)
		if err != nil {
			return err
		}
		det, err := diffusion.RoundedFlow(sys, counts, 0, rounds)
		if err != nil {
			return err
		}
		rr, err := diffusion.RandomizedRoundedFlow(sys, counts, 0, rounds, rng.New(2))
		if err != nil {
			return err
		}
		for run.Result().Rounds < rounds {
			if err := run.Step(); err != nil {
				return err
			}
		}

		fmt.Printf("%8d %14.3f %14.3f %14.3f %14.3f\n",
			rounds,
			ldeltaFloat(sys, cont),
			ldeltaInts(sys, det),
			ldeltaInts(sys, rr),
			core.LDelta(selfish))
	}

	fmt.Println("\nnote: 'continuous' is the idealized fractional process;")
	fmt.Println("'rounded' stalls at its discretization floor; randomized")
	fmt.Println("rounding and the selfish protocol keep balancing.")
	return nil
}

// ldeltaFloat computes L_Δ for a fractional task vector.
func ldeltaFloat(sys *core.System, x []float64) float64 {
	total := 0.0
	for _, v := range x {
		total += v
	}
	avg := total / sys.STotal()
	max := 0.0
	for i, v := range x {
		d := v/sys.Speed(i) - avg
		if d < 0 {
			d = -d
		}
		if d > max {
			max = d
		}
	}
	return max
}

// ldeltaInts computes L_Δ for an integer task vector.
func ldeltaInts(sys *core.System, counts []int64) float64 {
	st, err := core.NewUniformState(sys, counts)
	if err != nil {
		return -1
	}
	return core.LDelta(st)
}
