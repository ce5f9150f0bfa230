package graph

import (
	"fmt"
	"math"
)

// Family names the generator that built a CSR.
type Family uint8

// The generator families. The values travel on the wire and in
// checkpoint files: append, never renumber.
const (
	// Explicit is the zero Family: a graph no generator rebuilds (NewCSR,
	// FromEdges and every family built from an edge list).
	Explicit Family = iota
	FamilyRing
	FamilyPath
	FamilyTorus
	FamilyMesh
	FamilyHypercube
	FamilyComplete
)

// Descriptor records the generator call that built a CSR: its family and
// integer parameters. A peer that holds the descriptor rebuilds the same
// arrays with FromDescriptor instead of receiving them. The zero
// Descriptor describes a graph that has no generator.
type Descriptor struct {
	Family Family
	// Params: ring, path and complete {n}; torus and mesh {rows, cols};
	// hypercube {d}. Unused entries are zero.
	Params [2]int
}

// Descriptor returns the generator descriptor the CSR was built under,
// or the zero Descriptor.
func (c *CSR) Descriptor() Descriptor { return c.desc }

// Nodes returns the node count d's generator builds, without building
// anything. It rejects what the generator rejects: parameters outside
// the family's range and adjacency that would overflow the int32 CSR
// offsets. A decoder can therefore bound a descriptor before anyone runs
// its generator.
func (d Descriptor) Nodes() (int, error) {
	a, b := int64(d.Params[0]), int64(d.Params[1])
	// Node ids are int32, so no parameter may pass MaxInt32; that also
	// keeps the products below inside int64.
	if a < 0 || b < 0 || a > math.MaxInt32 || b > math.MaxInt32 {
		return 0, fmt.Errorf("graph: descriptor parameters %v out of range", d.Params)
	}
	var n, arcs int64
	switch d.Family {
	case FamilyRing:
		if a < 3 {
			return 0, fmt.Errorf("graph: ring needs n >= 3, got %d", a)
		}
		n, arcs = a, 2*a
	case FamilyPath:
		if a < 1 {
			return 0, ErrEmptyGraph
		}
		n, arcs = a, 2*(a-1)
	case FamilyTorus:
		if a < 3 || b < 3 {
			return 0, fmt.Errorf("graph: torus needs dims >= 3, got %dx%d", a, b)
		}
		n = a * b
		arcs = 4 * n
	case FamilyMesh:
		if a < 1 || b < 1 {
			return 0, ErrEmptyGraph
		}
		// MeshCSR bounds its adjacency by 4 arcs a node.
		n = a * b
		arcs = 4 * n
	case FamilyHypercube:
		if a < 1 || a > 30 {
			return 0, fmt.Errorf("graph: hypercube dimension must be in [1,30], got %d", a)
		}
		n = 1 << a
		arcs = n * a
	case FamilyComplete:
		if a < 1 {
			return 0, ErrEmptyGraph
		}
		n, arcs = a, a*(a-1)
	default:
		return 0, fmt.Errorf("graph: no generator for family %d", d.Family)
	}
	if n > math.MaxInt32 {
		return 0, fmt.Errorf("graph: %d vertices overflow the int32 node ids", n)
	}
	if err := checkCSRSize(arcs); err != nil {
		return 0, err
	}
	return int(n), nil
}

// FromDescriptor rebuilds the CSR d's generator builds. It is the one
// way back from a descriptor to a graph.
func FromDescriptor(d Descriptor) (*CSR, error) { return build(d) }
