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

// newUniformCSR allocates a CSR where every vertex has exactly deg
// neighbors, for the regular family constructors. It errors when the
// adjacency would overflow the int32 offsets (e.g. Hypercube(27),
// Complete(47000)) — the family size caps alone do not rule that out.
func newUniformCSR(name string, desc Descriptor, n, deg int) (*CSR, error) {
	if err := checkCSRSize(int64(n) * int64(deg)); err != nil {
		return nil, err
	}
	offsets := make([]int32, n+1)
	for v := 1; v <= n; v++ {
		offsets[v] = offsets[v-1] + int32(deg)
	}
	return &CSR{name: name, n: n, offsets: offsets, adj: make([]int32, n*deg), maxDeg: deg, desc: desc}, nil
}

// RingCSR builds the cycle C_n (n ≥ 3) directly in CSR form: no edge
// list, no map — just the two sorted neighbors of every vertex.
func RingCSR(n int) (*CSR, error) {
	if n < 3 {
		return nil, fmt.Errorf("graph: ring needs n >= 3, got %d", n)
	}
	c, err := newUniformCSR(fmt.Sprintf("ring-%d", n), Descriptor{FamilyRing, [2]int{n}}, n, 2)
	if err != nil {
		return nil, err
	}
	c.adj[0], c.adj[1] = 1, int32(n-1)
	for v := 1; v < n-1; v++ {
		c.adj[2*v], c.adj[2*v+1] = int32(v-1), int32(v+1)
	}
	c.adj[2*(n-1)], c.adj[2*(n-1)+1] = 0, int32(n-2)
	return c, nil
}

// PathCSR builds the path P_n directly in CSR form.
func PathCSR(n int) (*CSR, error) {
	if n <= 0 {
		return nil, ErrEmptyGraph
	}
	name := fmt.Sprintf("path-%d", n)
	desc := Descriptor{FamilyPath, [2]int{n}}
	if n == 1 {
		return &CSR{name: name, n: 1, offsets: make([]int32, 2), adj: []int32{}, desc: desc}, nil
	}
	if err := checkCSRSize(2 * (int64(n) - 1)); err != nil {
		return nil, err
	}
	offsets := make([]int32, n+1)
	adj := make([]int32, 2*(n-1))
	pos := int32(0)
	for v := 0; v < n; v++ {
		offsets[v] = pos
		if v > 0 {
			adj[pos] = int32(v - 1)
			pos++
		}
		if v < n-1 {
			adj[pos] = int32(v + 1)
			pos++
		}
	}
	offsets[n] = pos
	maxDeg := 2
	if n == 2 {
		maxDeg = 1
	}
	return &CSR{name: name, n: n, offsets: offsets, adj: adj, maxDeg: maxDeg, desc: desc}, nil
}

// TorusCSR builds the rows×cols torus (both ≥ 3) directly in CSR form:
// every vertex's four wrap-around neighbors, sorted in place.
func TorusCSR(rows, cols int) (*CSR, error) {
	if rows < 3 || cols < 3 {
		return nil, fmt.Errorf("graph: torus needs dims >= 3, got %dx%d", rows, cols)
	}
	n := rows * cols
	c, err := newUniformCSR(fmt.Sprintf("torus-%dx%d", rows, cols), Descriptor{FamilyTorus, [2]int{rows, cols}}, n, 4)
	if err != nil {
		return nil, err
	}
	var nb [4]int32
	for r := 0; r < rows; r++ {
		up := ((r - 1 + rows) % rows) * cols
		down := ((r + 1) % rows) * cols
		row := r * cols
		for col := 0; col < cols; col++ {
			v := row + col
			nb[0] = int32(up + col)
			nb[1] = int32(down + col)
			nb[2] = int32(row + (col-1+cols)%cols)
			nb[3] = int32(row + (col+1)%cols)
			sort4(&nb)
			copy(c.adj[4*v:], nb[:])
		}
	}
	return c, nil
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
// directly in CSR form. Row v is emitted already sorted: clearing v's
// set bits from high to low yields the smaller neighbors in ascending
// order, then setting its unset bits from low to high yields the larger
// ones.
func HypercubeCSR(d int) (*CSR, error) {
	if d <= 0 || d > 30 {
		return nil, fmt.Errorf("graph: hypercube dimension must be in [1,30], got %d", d)
	}
	n := 1 << d
	c, err := newUniformCSR(fmt.Sprintf("hypercube-%d", d), Descriptor{FamilyHypercube, [2]int{d}}, n, d)
	if err != nil {
		return nil, err
	}
	pos := 0
	for v := 0; v < n; v++ {
		for bit := d - 1; bit >= 0; bit-- {
			if v&(1<<bit) != 0 {
				c.adj[pos] = int32(v &^ (1 << bit))
				pos++
			}
		}
		for bit := 0; bit < d; bit++ {
			if v&(1<<bit) == 0 {
				c.adj[pos] = int32(v | 1<<bit)
				pos++
			}
		}
	}
	return c, nil
}

// CompleteCSR builds K_n directly in CSR form (row v is 0..n-1 minus
// v). The layout is Θ(n²); callers wanting large n should pick a sparse
// family.
func CompleteCSR(n int) (*CSR, error) {
	if n <= 0 {
		return nil, ErrEmptyGraph
	}
	c, err := newUniformCSR(fmt.Sprintf("complete-%d", n), Descriptor{FamilyComplete, [2]int{n}}, n, n-1)
	if err != nil {
		return nil, err
	}
	pos := 0
	for v := 0; v < n; v++ {
		for u := 0; u < n; u++ {
			if u != v {
				c.adj[pos] = int32(u)
				pos++
			}
		}
	}
	return c, nil
}

// MeshCSR builds the rows×cols open grid directly in CSR form.
func MeshCSR(rows, cols int) (*CSR, error) {
	if rows <= 0 || cols <= 0 {
		return nil, ErrEmptyGraph
	}
	n := rows * cols
	if err := checkCSRSize(4 * int64(n)); err != nil {
		return nil, err
	}
	offsets := make([]int32, n+1)
	// Degrees first (2, 3 or 4 depending on boundary), then fill.
	for r := 0; r < rows; r++ {
		for col := 0; col < cols; col++ {
			deg := 0
			if r > 0 {
				deg++
			}
			if r < rows-1 {
				deg++
			}
			if col > 0 {
				deg++
			}
			if col < cols-1 {
				deg++
			}
			v := r*cols + col
			offsets[v+1] = offsets[v] + int32(deg)
		}
	}
	adj := make([]int32, offsets[n])
	maxDeg := 0
	for r := 0; r < rows; r++ {
		for col := 0; col < cols; col++ {
			v := r*cols + col
			pos := offsets[v]
			// Emitted in ascending vertex order: up, left, right, down.
			if r > 0 {
				adj[pos] = int32(v - cols)
				pos++
			}
			if col > 0 {
				adj[pos] = int32(v - 1)
				pos++
			}
			if col < cols-1 {
				adj[pos] = int32(v + 1)
				pos++
			}
			if r < rows-1 {
				adj[pos] = int32(v + cols)
				pos++
			}
			if d := int(pos - offsets[v]); d > maxDeg {
				maxDeg = d
			}
		}
	}
	return &CSR{name: fmt.Sprintf("mesh-%dx%d", rows, cols), n: n, offsets: offsets, adj: adj, maxDeg: maxDeg,
		desc: Descriptor{FamilyMesh, [2]int{rows, cols}}}, nil
}
