// Command spectral reports the spectral quantities the convergence bounds
// depend on for a chosen graph: λ₂ (numeric and closed-form where known),
// the generalized-Laplacian µ₂ under a speed profile, and the classical
// bounds (Fiedler, Mohar, Cheeger) the paper's appendix collects. The
// flags build the same graph and speeds as lbsim's; barbell is an extra
// family of spectral's own.
//
// Example:
//
//	spectral -graph torus -n 64 -speeds integers -smax 4
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/graph"
	"repro/internal/instance"
	"repro/internal/spectral"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("spectral: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	var (
		graphName = flag.String("graph", "ring", "complete|ring|path|torus|mesh|hypercube|star|regular|barbell")
		n         = flag.Int("n", 16, "approximate vertex count")
		speedsArg = flag.String("speeds", "uniform", "uniform|twoclass|integers")
		smax      = flag.Float64("smax", 4, "max speed for non-uniform profiles")
		seed      = flag.Uint64("seed", 1, "seed for the regular graph and random speed profiles")
	)
	flag.Parse()

	spec := instance.Spec{Graph: *graphName, N: *n, Seed: *seed, Speeds: *speedsArg, SMax: *smax}
	g, closed, hasClosed, err := buildGraph(spec)
	if err != nil {
		return err
	}
	fmt.Printf("graph: %s  Δ=%d  δ=%d\n", g, g.MaxDegree(), g.MinDegree())
	diam, err := g.Diameter()
	if err != nil {
		return err
	}
	fmt.Printf("diameter: %d\n", diam)

	l2, err := spectral.Lambda2(g)
	if err != nil {
		return err
	}
	fmt.Printf("λ₂ (numeric):        %.8f\n", l2)
	if hasClosed {
		fmt.Printf("λ₂ (closed form):    %.8f\n", closed)
	}
	fmt.Printf("Fiedler upper bound: %.8f   (Lemma 1.7)\n", spectral.FiedlerUpperBound(g))
	mohar, err := spectral.MoharLowerBound(g)
	if err != nil {
		return err
	}
	fmt.Printf("Mohar lower bound:   %.8f   (Lemma 1.5)\n", mohar)
	fmt.Printf("universal bound:     %.8f   (Corollary 1.6)\n", spectral.UniversalLowerBound(g.N()))
	if g.N() <= 20 {
		lo, hi, err := spectral.CheegerBounds(g)
		if err == nil {
			fmt.Printf("Cheeger sandwich:    %.6f ≤ λ₂ ≤ %.6f   (Lemma 1.10)\n", lo, hi)
		}
	}

	speeds, err := spec.BuildSpeeds(g.N())
	if err != nil {
		return err
	}
	mu2, err := spectral.Mu2(g, speeds)
	if err != nil {
		return err
	}
	fmt.Printf("\nspeeds: %s (s_max=%g)\n", *speedsArg, speeds.Max())
	fmt.Printf("µ₂(LS⁻¹):            %.8f\n", mu2)
	fmt.Printf("Corollary 1.16:      %.8f ≤ µ₂ ≤ %.8f\n", l2/speeds.Max(), l2/speeds.Min())
	return nil
}

// buildGraph builds spec's graph as lbsim does, with its closed-form
// λ₂ where one exists (regular's is numeric), or the barbell.
func buildGraph(spec instance.Spec) (g *graph.Graph, closedForm float64, hasClosed bool, err error) {
	if spec.Graph == "barbell" {
		n := spec.N
		g, err = graph.Barbell(n/2, n-2*(n/2)+1)
		return g, 0, false, err
	}
	g, closedForm, err = spec.BuildGraph()
	return g, closedForm, spec.Graph != "regular", err
}
