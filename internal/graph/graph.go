// Package graph provides the network substrate for the load-balancing
// protocols: an immutable undirected graph in compressed sparse row (CSR)
// form, generators for the graph classes analysed in the paper (complete
// graph, ring, path, mesh, torus, hypercube) and several auxiliary
// families, plus the structural queries the analysis needs (degrees,
// maximum degree Δ, d_ij = max(deg i, deg j), diameter, connectivity).
package graph

import (
	"errors"
	"fmt"
	"sort"
)

// Graph is an immutable simple undirected graph on vertices 0..n-1.
// Neighbor lists are stored in CSR form and sorted ascending.
type Graph struct {
	name   string
	n      int
	offset []int32 // len n+1
	adj    []int32 // len 2|E|
	desc   Descriptor
}

// Edge is an undirected edge with U < V.
type Edge struct {
	U, V int
}

var (
	// ErrEmptyGraph is returned by builders asked for zero vertices.
	ErrEmptyGraph = errors.New("graph: graph must have at least one vertex")
	// ErrNotConnected is returned by operations requiring connectivity.
	ErrNotConnected = errors.New("graph: graph is not connected")
)

// FromEdges builds a graph with n vertices from an edge list. Self-loops
// and duplicate edges are rejected.
func FromEdges(name string, n int, edges []Edge) (*Graph, error) {
	if n <= 0 {
		return nil, ErrEmptyGraph
	}
	deg := make([]int32, n)
	seen := make(map[Edge]struct{}, len(edges))
	for _, e := range edges {
		if e.U == e.V {
			return nil, fmt.Errorf("graph: self-loop at vertex %d", e.U)
		}
		if e.U < 0 || e.V < 0 || e.U >= n || e.V >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", e.U, e.V, n)
		}
		key := e
		if key.U > key.V {
			key.U, key.V = key.V, key.U
		}
		if _, dup := seen[key]; dup {
			return nil, fmt.Errorf("graph: duplicate edge (%d,%d)", key.U, key.V)
		}
		seen[key] = struct{}{}
		deg[e.U]++
		deg[e.V]++
	}
	g := &Graph{name: name, n: n}
	g.offset = make([]int32, n+1)
	for i := 0; i < n; i++ {
		g.offset[i+1] = g.offset[i] + deg[i]
	}
	g.adj = make([]int32, g.offset[n])
	cursor := make([]int32, n)
	copy(cursor, g.offset[:n])
	// Fill from the caller's slice, not the dedup map: together with the
	// per-row sort below this makes the construction a pure function of
	// the edge multiset, independent of both map iteration order and the
	// caller's edge ordering.
	for _, e := range edges {
		g.adj[cursor[e.U]] = int32(e.V)
		cursor[e.U]++
		g.adj[cursor[e.V]] = int32(e.U)
		cursor[e.V]++
	}
	for i := 0; i < n; i++ {
		nb := g.adj[g.offset[i]:g.offset[i+1]]
		sort.Slice(nb, func(a, b int) bool { return nb[a] < nb[b] })
	}
	return g, nil
}

// mustFromEdges is for generators whose edge lists are correct by
// construction.
func mustFromEdges(name string, n int, edges []Edge) *Graph {
	g, err := FromEdges(name, n, edges)
	if err != nil {
		panic("graph: internal generator bug: " + err.Error())
	}
	return g
}

// Name returns the human-readable name of the graph family instance.
func (g *Graph) Name() string { return g.name }

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of undirected edges.
func (g *Graph) M() int { return len(g.adj) / 2 }

// Degree returns deg(v).
func (g *Graph) Degree(v int) int {
	return int(g.offset[v+1] - g.offset[v])
}

// Neighbors returns the sorted neighbor list of v. The returned slice
// aliases internal storage and must not be modified.
func (g *Graph) Neighbors(v int) []int32 {
	return g.adj[g.offset[v]:g.offset[v+1]]
}

// MaxDegree returns Δ, the maximum degree.
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.n; v++ {
		if d := g.Degree(v); d > max {
			max = d
		}
	}
	return max
}

// MinDegree returns the minimum degree.
func (g *Graph) MinDegree() int {
	if g.n == 0 {
		return 0
	}
	min := g.Degree(0)
	for v := 1; v < g.n; v++ {
		if d := g.Degree(v); d < min {
			min = d
		}
	}
	return min
}

// DMax returns d_ij = max(deg(i), deg(j)) for an edge (i,j), the
// normalisation used by the protocol's migration probability.
func (g *Graph) DMax(i, j int) int {
	di, dj := g.Degree(i), g.Degree(j)
	if di > dj {
		return di
	}
	return dj
}

// HasEdge reports whether (u,v) is an edge, via binary search.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || v < 0 || u >= g.n || v >= g.n || u == v {
		return false
	}
	nb := g.Neighbors(u)
	lo, hi := 0, len(nb)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case nb[mid] < int32(v):
			lo = mid + 1
		case nb[mid] > int32(v):
			hi = mid
		default:
			return true
		}
	}
	return false
}

// Edges returns all undirected edges with U < V, sorted lexicographically.
func (g *Graph) Edges() []Edge {
	edges := make([]Edge, 0, g.M())
	for u := 0; u < g.n; u++ {
		for _, v := range g.Neighbors(u) {
			if int32(u) < v {
				edges = append(edges, Edge{U: u, V: int(v)})
			}
		}
	}
	return edges
}

// IsConnected reports whether the graph is connected.
func (g *Graph) IsConnected() bool {
	if g.n == 0 {
		return false
	}
	visited := make([]bool, g.n)
	count := g.bfsFrom(0, visited, nil)
	return count == g.n
}

// bfsFrom runs a BFS from src, marking visited; if dist is non-nil it
// receives BFS distances. Returns the number of reached vertices.
func (g *Graph) bfsFrom(src int, visited []bool, dist []int32) int {
	queue := make([]int32, 0, g.n)
	queue = append(queue, int32(src))
	visited[src] = true
	if dist != nil {
		dist[src] = 0
	}
	count := 1
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range g.Neighbors(int(u)) {
			if !visited[v] {
				visited[v] = true
				if dist != nil {
					dist[v] = dist[u] + 1
				}
				queue = append(queue, v)
				count++
			}
		}
	}
	return count
}

// Diameter returns diam(G) by running a BFS from every vertex. It returns
// ErrNotConnected for disconnected graphs. Cost is O(n·(n+m)); fine for
// the simulation sizes used in the experiments.
func (g *Graph) Diameter() (int, error) {
	diam := 0
	visited := make([]bool, g.n)
	dist := make([]int32, g.n)
	for v := 0; v < g.n; v++ {
		for i := range visited {
			visited[i] = false
		}
		if g.bfsFrom(v, visited, dist) != g.n {
			return 0, ErrNotConnected
		}
		for _, d := range dist {
			if int(d) > diam {
				diam = int(d)
			}
		}
	}
	return diam, nil
}

// DegreeSum returns the sum of all degrees (= 2|E|).
func (g *Graph) DegreeSum() int { return len(g.adj) }

// String implements fmt.Stringer.
func (g *Graph) String() string {
	return fmt.Sprintf("%s(n=%d, m=%d)", g.name, g.n, g.M())
}
