// Package instance builds the paper's instance — a graph G, processor
// speeds sᵢ, m tasks with weights in (0, 1] and their start assignment —
// from the flags that lbsim, lbd and lbshard share, and writes and reads
// the journal-header keys that name it. One Spec names one instance on
// every front end: the same flags build the same graph, speeds and start
// assignment, bit for bit.
//
// Each random ingredient draws from its own sub-stream of Spec.Seed, so
// one choice never shifts another's draws:
//
//	regular graph   rng.New(Seed)
//	speeds          rng.New(Seed+1)   (-speeds integers)
//	placement       rng.New(Seed+2)   (-placement random)
//	task weights    rng.New(Seed+3)   (-model weighted)
package instance

import (
	"flag"
	"fmt"
	"strconv"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/rng"
	"repro/internal/spectral"
	"repro/internal/task"
	"repro/internal/workload"
)

// Spec names one instance by its flag values.
type Spec struct {
	// Graph is the graph class:
	// complete|ring|path|torus|mesh|hypercube|star|regular.
	Graph string
	// N is the approximate number of processors; each class rounds it
	// to its natural size (squares for torus and mesh, powers of two for
	// the hypercube), and the built graph's N() is the actual size.
	N int
	// Tasks is the number of tasks m; 0 or less means 64 per processor
	// of the built graph.
	Tasks int64
	// Seed keys every random ingredient (see the package comment).
	Seed uint64
	// Speeds is the speed profile: uniform|twoclass|integers.
	Speeds string
	// SMax is the maximum speed of the non-uniform profiles.
	SMax float64
	// Model is the task model: uniform|weighted.
	Model string
	// Protocol is the weighted model's protocol: paper|literal|baseline.
	Protocol string
	// Placement is the start assignment: corner|random|proportional.
	Placement string
}

// Default returns the Spec behind lbsim's and lbshard's flag defaults.
func Default() Spec {
	return Spec{
		Graph:     "ring",
		N:         32,
		Seed:      1,
		Speeds:    "uniform",
		SMax:      4,
		Model:     "uniform",
		Protocol:  "paper",
		Placement: "corner",
	}
}

// Bind registers the instance flags on fs, each defaulting to s's
// current value; parsing fs then sets s's fields.
func (s *Spec) Bind(fs *flag.FlagSet) {
	fs.StringVar(&s.Graph, "graph", s.Graph, "graph class: complete|ring|path|torus|mesh|hypercube|star|regular")
	fs.IntVar(&s.N, "n", s.N, "approximate number of processors")
	fs.Int64Var(&s.Tasks, "tasks", s.Tasks, "number of tasks (default 64·n)")
	fs.Uint64Var(&s.Seed, "seed", s.Seed, "random seed")
	fs.StringVar(&s.Speeds, "speeds", s.Speeds, "speed profile: uniform|twoclass|integers")
	fs.Float64Var(&s.SMax, "smax", s.SMax, "maximum speed for non-uniform profiles")
	fs.StringVar(&s.Model, "model", s.Model, "task model: uniform|weighted")
	fs.StringVar(&s.Protocol, "protocol", s.Protocol, "weighted protocol: paper|literal|baseline")
	fs.StringVar(&s.Placement, "placement", s.Placement, "initial placement: corner|random|proportional")
}

// Instance is a built Spec.
type Instance struct {
	Sys *core.System
	// M is the number of tasks: Spec.Tasks, or 64·n when that is 0.
	M int64
	// Counts is the uniform model's start assignment (nil for weighted).
	Counts []int64
	// Weights holds the weighted model's start assignment, the task
	// weights on each node (nil for uniform).
	Weights []task.Weights
	// Protocol is the weighted model's protocol (nil for uniform).
	Protocol core.WeightedProtocol
}

// Build builds the system and the start assignment of the Spec's task
// model.
func (s Spec) Build() (*Instance, error) {
	g, lambda2, err := s.BuildGraph()
	if err != nil {
		return nil, err
	}
	speeds, err := s.BuildSpeeds(g.N())
	if err != nil {
		return nil, err
	}
	sys, err := core.NewSystem(g, speeds, core.WithLambda2(lambda2))
	if err != nil {
		return nil, err
	}
	inst := &Instance{Sys: sys, M: s.Tasks}
	if inst.M <= 0 {
		inst.M = 64 * int64(sys.N())
	}
	switch s.Model {
	case "uniform":
		inst.Counts, err = s.counts(sys, inst.M)
	case "weighted":
		if inst.Protocol, err = weightedProtocol(s.Protocol); err != nil {
			return nil, err
		}
		inst.Weights, err = s.weights(sys, inst.M)
	default:
		err = fmt.Errorf("unknown task model %q (want uniform|weighted)", s.Model)
	}
	if err != nil {
		return nil, err
	}
	return inst, nil
}

// BuildGraph builds the Spec's graph and its λ₂: the closed form for
// every class but regular, whose λ₂ is computed numerically.
func (s Spec) BuildGraph() (*graph.Graph, float64, error) {
	n := s.N
	switch s.Graph {
	case "complete", "ring", "torus", "hypercube":
		class, err := experiments.ClassByKey(s.Graph)
		if err != nil {
			return nil, 0, err
		}
		g, err := class.Build(n)
		if err != nil {
			return nil, 0, err
		}
		return g, class.Lambda2(g), nil
	case "path":
		g, err := graph.Path(n)
		if err != nil {
			return nil, 0, err
		}
		return g, spectral.Lambda2Path(n), nil
	case "mesh":
		side := sqrtSide(n)
		g, err := graph.Mesh(side, side)
		if err != nil {
			return nil, 0, err
		}
		return g, spectral.Lambda2Mesh(side, side), nil
	case "star":
		g, err := graph.Star(n)
		if err != nil {
			return nil, 0, err
		}
		return g, spectral.Lambda2Star(n), nil
	case "regular":
		g, err := graph.RandomRegular(n, 4, rng.New(s.Seed))
		if err != nil {
			return nil, 0, err
		}
		l2, err := spectral.Lambda2(g)
		if err != nil {
			return nil, 0, err
		}
		return g, l2, nil
	default:
		return nil, 0, fmt.Errorf("unknown graph class %q", s.Graph)
	}
}

// sqrtSide is the side of the smallest square with at least n cells.
func sqrtSide(n int) int {
	side := 1
	for side*side < n {
		side++
	}
	return side
}

// BuildSpeeds builds the Spec's speed profile for n processors.
func (s Spec) BuildSpeeds(n int) (machine.Speeds, error) {
	switch s.Speeds {
	case "uniform":
		return machine.Uniform(n), nil
	case "twoclass":
		return machine.TwoClass(n, 0.25, s.SMax)
	case "integers":
		return machine.RandomIntegers(n, int(s.SMax), rng.New(s.Seed+1))
	default:
		return nil, fmt.Errorf("unknown speed profile %q", s.Speeds)
	}
}

// counts places m unit tasks by the Spec's placement.
func (s Spec) counts(sys *core.System, m int64) ([]int64, error) {
	n := sys.N()
	switch s.Placement {
	case "corner":
		return workload.AllOnOne(n, m, 0)
	case "random":
		return workload.UniformRandom(n, m, rng.New(s.Seed+2))
	case "proportional":
		return workload.Proportional(sys.Speeds(), m)
	default:
		return nil, fmt.Errorf("unknown placement %q", s.Placement)
	}
}

// weights draws m task weights uniformly from [0.1, 1.0) and places
// them by the Spec's placement. "proportional" is the interesting start
// for heterogeneous speeds at scale: every node active, loads near
// balance.
func (s Spec) weights(sys *core.System, m int64) ([]task.Weights, error) {
	weights, err := task.RandomWeights(int(m), 0.1, 1.0, rng.New(s.Seed+3))
	if err != nil {
		return nil, err
	}
	n := sys.N()
	switch s.Placement {
	case "corner":
		return workload.WeightedAllOnOne(n, weights, 0)
	case "random":
		return workload.WeightedUniformRandom(n, weights, rng.New(s.Seed+2))
	case "proportional":
		return workload.WeightedProportional(sys.Speeds(), weights)
	default:
		return nil, fmt.Errorf("unknown placement %q", s.Placement)
	}
}

func weightedProtocol(name string) (core.WeightedProtocol, error) {
	switch name {
	case "paper":
		return core.Algorithm2{}, nil
	case "literal":
		return core.Algorithm2Literal{}, nil
	case "baseline":
		return core.BaselineWeighted{}, nil
	default:
		return nil, fmt.Errorf("unknown weighted protocol %q", name)
	}
}

// Meta returns the Spec as journal-header metadata: the nine keys
// FromMeta reads back.
func (s Spec) Meta() map[string]string {
	return map[string]string{
		"graph":     s.Graph,
		"n":         strconv.Itoa(s.N),
		"tasks":     strconv.FormatInt(s.Tasks, 10),
		"seed":      strconv.FormatUint(s.Seed, 10),
		"speeds":    s.Speeds,
		"smax":      strconv.FormatFloat(s.SMax, 'g', -1, 64),
		"model":     s.Model,
		"protocol":  s.Protocol,
		"placement": s.Placement,
	}
}

// FromMeta inverts Meta: it reads the Spec a journal header carries, so
// a replay rebuilds the same system and start assignment. Other keys,
// such as lbd's "engine", are ignored.
func FromMeta(meta map[string]string) (Spec, error) {
	var s Spec
	var err error
	read := []struct {
		key string
		set func(string) error
	}{
		{"graph", func(v string) error { s.Graph = v; return nil }},
		{"n", func(v string) error { s.N, err = strconv.Atoi(v); return err }},
		{"tasks", func(v string) error { s.Tasks, err = strconv.ParseInt(v, 10, 64); return err }},
		{"seed", func(v string) error { s.Seed, err = strconv.ParseUint(v, 10, 64); return err }},
		{"speeds", func(v string) error { s.Speeds = v; return nil }},
		{"smax", func(v string) error { s.SMax, err = strconv.ParseFloat(v, 64); return err }},
		{"model", func(v string) error { s.Model = v; return nil }},
		{"protocol", func(v string) error { s.Protocol = v; return nil }},
		{"placement", func(v string) error { s.Placement = v; return nil }},
	}
	for _, r := range read {
		v, ok := meta[r.key]
		if !ok {
			return Spec{}, fmt.Errorf("journal meta missing %q; not written by lbd?", r.key)
		}
		if serr := r.set(v); serr != nil {
			return Spec{}, fmt.Errorf("journal meta %s=%q: %w", r.key, v, serr)
		}
	}
	return s, nil
}
