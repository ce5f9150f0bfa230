package graph

import (
	"fmt"
	"math"
)

// checkCSRSize rejects adjacency sizes whose offsets would overflow the
// int32 CSR arrays. degSum is the total directed-arc count (2|E|).
func checkCSRSize(degSum int64) error {
	if degSum > math.MaxInt32 {
		return fmt.Errorf("graph: %d adjacency entries overflow the int32 CSR offsets", degSum)
	}
	return nil
}

// CSR is the flat compressed-sparse-row view of a graph: offsets (len
// n+1) index into adj (len 2|E|), row v of adj is the sorted neighbor
// list of v. It is the data layout the large-scale engines (package
// shard) operate on: O(1) degree, cache-linear neighbor scans, and a
// memory footprint of exactly 4·(n+1) + 4·2|E| bytes regardless of how
// the graph was built.
//
// A CSR is immutable and safe for concurrent use. Graph already stores
// its adjacency in this form, so conversions in both directions are
// zero-copy views over shared arrays; the direct family constructors
// below (RingCSR, TorusCSR, HypercubeCSR, ...) write the arrays
// in place, which is what lets a million-node ring or torus come into
// existence without ever materializing an edge list or edge map.
type CSR struct {
	name    string
	n       int
	offsets []int32 // len n+1
	adj     []int32 // len 2|E|, each row sorted ascending
	maxDeg  int
	desc    Descriptor // the generator call that built it, if any
}

// CSR returns the graph's compressed-sparse-row view. The view aliases
// the graph's internal storage — no copying — and inherits its
// immutability and its generator descriptor.
func (g *Graph) CSR() *CSR {
	return &CSR{name: g.name, n: g.n, offsets: g.offset, adj: g.adj, maxDeg: g.MaxDegree(), desc: g.desc}
}

// Graph wraps the CSR back into a *Graph, again without copying. The
// two views share storage and the descriptor; both are immutable.
func (c *CSR) Graph() *Graph {
	return &Graph{name: c.name, n: c.n, offset: c.offsets, adj: c.adj, desc: c.desc}
}

// NewCSR validates raw CSR arrays (monotone offsets, in-range sorted
// rows, no self-loops or duplicates, symmetric adjacency) and returns
// the view. It takes ownership of the slices; callers must not mutate
// them afterwards. The view has no descriptor. Generators that are
// correct by construction skip this and assemble the struct directly.
func NewCSR(name string, n int, offsets, adj []int32) (*CSR, error) {
	if n <= 0 {
		return nil, ErrEmptyGraph
	}
	if len(offsets) != n+1 {
		return nil, fmt.Errorf("graph: %d offsets for %d vertices (want n+1)", len(offsets), n)
	}
	if offsets[0] != 0 || int(offsets[n]) != len(adj) {
		return nil, fmt.Errorf("graph: offsets span [%d,%d], adj has %d entries", offsets[0], offsets[n], len(adj))
	}
	maxDeg := 0
	for v := 0; v < n; v++ {
		if offsets[v+1] < offsets[v] {
			return nil, fmt.Errorf("graph: offsets decrease at vertex %d", v)
		}
		row := adj[offsets[v]:offsets[v+1]]
		if len(row) > maxDeg {
			maxDeg = len(row)
		}
		for k, w := range row {
			if w < 0 || int(w) >= n {
				return nil, fmt.Errorf("graph: neighbor %d of vertex %d out of range [0,%d)", w, v, n)
			}
			if int(w) == v {
				return nil, fmt.Errorf("graph: self-loop at vertex %d", v)
			}
			if k > 0 && row[k-1] >= w {
				return nil, fmt.Errorf("graph: row %d not strictly sorted at position %d", v, k)
			}
		}
	}
	c := &CSR{name: name, n: n, offsets: offsets, adj: adj, maxDeg: maxDeg}
	// Symmetry: every arc must have its reverse. Binary search per arc.
	g := c.Graph()
	for v := 0; v < n; v++ {
		for _, w := range c.Neighbors(v) {
			if !g.HasEdge(int(w), v) {
				return nil, fmt.Errorf("graph: arc %d→%d has no reverse", v, w)
			}
		}
	}
	return c, nil
}

// Name returns the family instance name.
func (c *CSR) Name() string { return c.name }

// N returns the number of vertices.
func (c *CSR) N() int { return c.n }

// M returns the number of undirected edges.
func (c *CSR) M() int { return len(c.adj) / 2 }

// Degree returns deg(v) in O(1).
func (c *CSR) Degree(v int) int { return int(c.offsets[v+1] - c.offsets[v]) }

// MaxDegree returns Δ (precomputed at construction).
func (c *CSR) MaxDegree() int { return c.maxDeg }

// Neighbors returns the sorted neighbor row of v. The slice aliases the
// CSR storage and must not be modified.
func (c *CSR) Neighbors(v int) []int32 { return c.adj[c.offsets[v]:c.offsets[v+1]] }

// Offsets returns the offsets array (len n+1). Read-only.
func (c *CSR) Offsets() []int32 { return c.offsets }

// Adj returns the flat adjacency array (len 2|E|). Read-only.
func (c *CSR) Adj() []int32 { return c.adj }

// DegreeSum returns the sum of all degrees (= 2|E|).
func (c *CSR) DegreeSum() int { return len(c.adj) }

// Bytes returns the memory footprint of the CSR arrays, the "bytes per
// node" denominator of the scaling benchmarks.
func (c *CSR) Bytes() int64 { return 4 * int64(len(c.offsets)+len(c.adj)) }

// build runs d's generator: the rows [0, n) of its row kernel (see
// Descriptor.Rows), wrapped as a CSR with d's name, maximum degree and
// descriptor. Generators are correct by construction, so nothing is
// revalidated.
func build(d Descriptor) (*CSR, error) {
	n, err := d.Nodes()
	if err != nil {
		return nil, err
	}
	r := d.rows(0, n)
	a, b := d.Params[0], d.Params[1]
	var name string
	var maxDeg int
	switch d.Family {
	case FamilyRing:
		name, maxDeg = fmt.Sprintf("ring-%d", a), 2
	case FamilyPath:
		name, maxDeg = fmt.Sprintf("path-%d", a), min(n-1, 2)
	case FamilyTorus:
		name, maxDeg = fmt.Sprintf("torus-%dx%d", a, b), 4
	case FamilyMesh:
		name = fmt.Sprintf("mesh-%dx%d", a, b)
		for v := 0; v < n; v++ {
			maxDeg = max(maxDeg, int(r.Offsets[v+1]-r.Offsets[v]))
		}
	case FamilyHypercube:
		name, maxDeg = fmt.Sprintf("hypercube-%d", a), a
	default:
		name, maxDeg = fmt.Sprintf("complete-%d", a), n-1
	}
	return &CSR{name: name, n: n, offsets: r.Offsets, adj: r.Adj, maxDeg: maxDeg, desc: d}, nil
}

// RingCSR builds the cycle C_n (n ≥ 3) directly in CSR form: no edge
// list, no map — just the two sorted neighbors of every vertex.
func RingCSR(n int) (*CSR, error) { return build(Descriptor{FamilyRing, [2]int{n}}) }

// PathCSR builds the path P_n directly in CSR form.
func PathCSR(n int) (*CSR, error) { return build(Descriptor{FamilyPath, [2]int{n}}) }

// TorusCSR builds the rows×cols torus (both ≥ 3) directly in CSR form:
// every vertex's four wrap-around neighbors, sorted in place.
func TorusCSR(rows, cols int) (*CSR, error) {
	return build(Descriptor{FamilyTorus, [2]int{rows, cols}})
}

// sort4 sorts four elements with a fixed comparator network.
func sort4(a *[4]int32) {
	if a[0] > a[1] {
		a[0], a[1] = a[1], a[0]
	}
	if a[2] > a[3] {
		a[2], a[3] = a[3], a[2]
	}
	if a[0] > a[2] {
		a[0], a[2] = a[2], a[0]
	}
	if a[1] > a[3] {
		a[1], a[3] = a[3], a[1]
	}
	if a[1] > a[2] {
		a[1], a[2] = a[2], a[1]
	}
}

// HypercubeCSR builds the d-dimensional hypercube Q_d (n = 2^d)
// directly in CSR form, each row already sorted (see hypercubeRows).
func HypercubeCSR(d int) (*CSR, error) { return build(Descriptor{FamilyHypercube, [2]int{d}}) }

// CompleteCSR builds K_n directly in CSR form (row v is 0..n-1 minus
// v). The layout is Θ(n²); callers wanting large n should pick a sparse
// family.
func CompleteCSR(n int) (*CSR, error) { return build(Descriptor{FamilyComplete, [2]int{n}}) }

// MeshCSR builds the rows×cols open grid directly in CSR form.
func MeshCSR(rows, cols int) (*CSR, error) { return build(Descriptor{FamilyMesh, [2]int{rows, cols}}) }
