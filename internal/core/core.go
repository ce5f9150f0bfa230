// Package core implements the paper's primary contribution: the
// concurrent probabilistic protocols for distributed selfish load
// balancing on networks of processors with speeds, for uniform tasks
// (Algorithm 1, Section 3) and weighted tasks (Algorithm 2, Section 4),
// together with the baseline protocol of Berenbrink–Hoefer–Sauerwald
// (SODA 2011, the paper's reference [6]), the potential functions
// Φ₀, Φ₁, Ψ₀, Ψ₁ and L_Δ used in the analysis, the Nash-equilibrium
// predicates, a synchronous round engine, and the theoretical bound
// formulas of Theorems 1.1–1.3.
//
// All randomness flows through deterministic splittable streams
// (package rng): the per-round, per-node stream used for node i in round
// t depends only on (seed, t, i), so the sequential engine here and the
// sharded engines of package shard generate identical trajectories for
// the same seed.
package core

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/spectral"
)

// Common errors returned by constructors and runners.
var (
	ErrNilGraph      = errors.New("core: nil graph")
	ErrDisconnected  = errors.New("core: graph must be connected")
	ErrSpeedMismatch = errors.New("core: speeds length must equal vertex count")
)

// System bundles the static problem instance: the network, the processor
// speeds, and the derived spectral quantity λ₂ the convergence bounds
// depend on. A System is immutable and safe for concurrent use.
type System struct {
	g       *graph.Graph
	speeds  machine.Speeds
	lambda2 float64

	// invSpeed[i] = 1/sᵢ, the migration threshold of every edge into i,
	// computed once so that the decide kernels do not divide per edge.
	// It holds the quotient 1/sᵢ itself, so reading it changes no result.
	invSpeed []float64

	sMax, sMin, sSum float64
	maxDeg           int

	// haloDeg is set on a window System only (NewWindowSystem): the true
	// degree of each halo node, whose row the window does not hold.
	haloDeg []int32
}

// SystemOption customizes NewSystem.
type SystemOption func(*systemConfig)

type systemConfig struct {
	lambda2    float64
	hasLambda2 bool
}

// WithLambda2 supplies a known algebraic connectivity (e.g. a closed form
// for a standard graph family), skipping the numeric eigensolve.
func WithLambda2(lambda2 float64) SystemOption {
	return func(c *systemConfig) {
		c.lambda2 = lambda2
		c.hasLambda2 = true
	}
}

// NewSystem validates the instance and computes λ₂ (unless supplied).
// The speed vector must be scaled so that s_min = 1 (paper Section 1.1).
func NewSystem(g *graph.Graph, speeds machine.Speeds, opts ...SystemOption) (*System, error) {
	if g == nil {
		return nil, ErrNilGraph
	}
	if len(speeds) != g.N() {
		return nil, fmt.Errorf("%w: %d speeds for %d vertices", ErrSpeedMismatch, len(speeds), g.N())
	}
	if err := speeds.Validate(); err != nil {
		return nil, err
	}
	if !g.IsConnected() {
		return nil, ErrDisconnected
	}
	var cfg systemConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	lambda2 := cfg.lambda2
	if !cfg.hasLambda2 {
		l2, err := spectral.Lambda2(g)
		if err != nil {
			return nil, fmt.Errorf("compute lambda2: %w", err)
		}
		lambda2 = l2
	}
	if math.IsNaN(lambda2) || math.IsInf(lambda2, 0) {
		return nil, fmt.Errorf("core: lambda2 %g is not finite", lambda2)
	}
	if lambda2 <= 0 && g.N() > 1 {
		return nil, fmt.Errorf("core: non-positive lambda2 %g for connected graph", lambda2)
	}
	sc := make(machine.Speeds, len(speeds))
	copy(sc, speeds)
	inv := make([]float64, len(sc))
	for i, s := range sc {
		inv[i] = 1 / s
	}
	return &System{
		g:        g,
		speeds:   sc,
		lambda2:  lambda2,
		invSpeed: inv,
		sMax:     sc.Max(),
		sMin:     sc.Min(),
		sSum:     sc.Sum(),
		maxDeg:   g.MaxDegree(),
	}, nil
}

// NewWindowSystem builds the System one shard decides on when it holds
// only its own rows. g holds those rows as vertices 0…g.N()−1, in a local
// id space whose ids g.N()… are the shard's halo, the out-of-shard
// neighbors its rows name. own and halo are their speeds, halo in slot
// order, and haloDeg[k] is the true degree of halo id g.N()+k. maxDeg and
// sMax are the whole instance's Δ and s_max, not the window's: the decide
// kernels read Δ for the degree-ratio shortcut of p_ij and s_max for the
// default α = 4·s_max, and a window that misses the instance's largest
// degree or speed would otherwise change both. Connectivity and λ₂
// belong to the whole instance, so a window has neither check nor value:
// Lambda2, SMin and STotal read zero.
func NewWindowSystem(g *graph.Graph, own, halo machine.Speeds, haloDeg []int32, maxDeg int, sMax float64) (*System, error) {
	if g == nil {
		return nil, ErrNilGraph
	}
	if len(own) != g.N() || len(halo) != len(haloDeg) {
		return nil, fmt.Errorf("%w: %d own and %d halo speeds for %d rows and %d halo nodes", ErrSpeedMismatch, len(own), len(halo), g.N(), len(haloDeg))
	}
	sc := slices.Concat(own, halo)
	for i, s := range sc {
		if !(s > 0 && s <= sMax) || math.IsInf(s, 1) {
			return nil, fmt.Errorf("core: window speed %g at node %d outside (0, s_max = %g]", s, i, sMax)
		}
	}
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) > maxDeg {
			return nil, fmt.Errorf("core: window row %d has degree %d above Δ = %d", v, g.Degree(v), maxDeg)
		}
		for _, j := range g.Neighbors(v) {
			if j < 0 || int(j) >= len(sc) {
				return nil, fmt.Errorf("core: window row %d names node %d outside %d local ids", v, j, len(sc))
			}
		}
	}
	for k, d := range haloDeg {
		if d < 1 || int(d) > maxDeg {
			return nil, fmt.Errorf("core: halo node %d has degree %d outside [1, Δ = %d]", k, d, maxDeg)
		}
	}
	inv := make([]float64, len(sc))
	for i, s := range sc {
		inv[i] = 1 / s
	}
	return &System{
		g:        g,
		speeds:   sc,
		invSpeed: inv,
		sMax:     sMax,
		maxDeg:   maxDeg,
		haloDeg:  slices.Clone(haloDeg),
	}, nil
}

// degree returns deg(j) for any id the System holds a speed for: a row
// of its graph, or a halo node of a window System.
func (s *System) degree(j int) int {
	if j < s.g.N() {
		return s.g.Degree(j)
	}
	return int(s.haloDeg[j-s.g.N()])
}

// Footprint returns the bytes of the System's own vectors: the speeds,
// their reciprocals and a window's halo degrees. The graph is not
// counted; the engines count the CSR they decide on.
func (s *System) Footprint() int64 {
	return int64(len(s.speeds)+len(s.invSpeed))*8 + int64(len(s.haloDeg))*4
}

// Graph returns the network.
func (s *System) Graph() *graph.Graph { return s.g }

// N returns the number of processors: the rows of the graph, which on a
// window System (NewWindowSystem) are the shard's own nodes only.
func (s *System) N() int { return s.g.N() }

// Speed returns sᵢ.
func (s *System) Speed(i int) float64 { return s.speeds[i] }

// Speeds returns a copy of the speed vector.
func (s *System) Speeds() machine.Speeds {
	out := make(machine.Speeds, len(s.speeds))
	copy(out, s.speeds)
	return out
}

// Lambda2 returns λ₂ of the network's Laplacian.
func (s *System) Lambda2() float64 { return s.lambda2 }

// SMax returns the maximum speed.
func (s *System) SMax() float64 { return s.sMax }

// SMin returns the minimum speed (1 after scaling).
func (s *System) SMin() float64 { return s.sMin }

// STotal returns S = Σ sᵢ, the total capacity.
func (s *System) STotal() float64 { return s.sSum }

// MaxDegree returns Δ.
func (s *System) MaxDegree() int { return s.maxDeg }

// DefaultAlpha returns the paper's migration damping α = 4·s_max
// (Section 3, below Algorithm 1).
func (s *System) DefaultAlpha() float64 { return 4 * s.sMax }

// AlphaForGranularity returns α = 4·s_max/ε̄, the damping required for the
// exact-Nash phase when speeds have granularity ε̄ (Section 3.2).
func (s *System) AlphaForGranularity(eps float64) (float64, error) {
	if eps <= 0 || eps > 1 {
		return 0, fmt.Errorf("core: granularity must be in (0,1], got %g", eps)
	}
	return 4 * s.sMax / eps, nil
}
