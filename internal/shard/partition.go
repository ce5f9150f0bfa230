package shard

import (
	"fmt"
	"slices"

	"repro/internal/graph"
)

// Strategy selects how the partitioner places the shard cut points.
type Strategy string

const (
	// Contiguous splits the vertex range into P shards of (near-)equal
	// node count. Right for the regular families, where degree is
	// uniform and vertex index is already the best locality order.
	Contiguous Strategy = "contiguous"
	// DegreeBalanced splits the vertex range into P contiguous shards
	// of (near-)equal degree mass, so skewed-degree graphs (stars,
	// barbells, power laws) don't leave one worker holding all the
	// edges. Shards remain contiguous index ranges — only the cut
	// points move.
	DegreeBalanced Strategy = "degree"
)

// Partition is an immutable split of a CSR graph's vertices into P
// contiguous shards plus the precomputed cross-shard structure: the
// directed cross-edge counts, which the two-phase engine uses to
// pre-size its inter-shard flow buffers, per-shard boundary node lists,
// and per-shard halo sets (the out-of-shard neighbor closure) — the
// exact foreign loads a shard's decide phase can read, which the
// cluster layer uses to exchange O(cut) loads per round instead of the
// full vector.
//
// A cluster worker holds a window of a partition instead
// (newWindowPartition): the same type over the worker's local id space,
// with one shard's range, a shard table over its rows and halo, and no
// graph.
type Partition struct {
	csr      *graph.CSR // nil in a window
	strategy Strategy
	p        int

	lo, hi  []int32 // shard s owns vertices [lo[s], hi[s])
	shardOf []int32 // vertex -> owning shard

	// boundary[s] lists the vertices of shard s with at least one
	// neighbor outside s, in ascending order.
	boundary [][]int32
	// halo[s] lists the out-of-shard vertices adjacent to shard s — the
	// exact set of foreign loads shard s's decide phase can read — in
	// ascending order. Ascending order doubles as the deterministic
	// halo-slot order of the wire exchange: slot k of shard s's halo
	// frame always carries halo[s][k]'s load. Every halo vertex of s is
	// by construction a boundary vertex of its owning shard.
	halo [][]int32
	// crossEdges[s][d] counts directed edges from shard s into shard d
	// (s ≠ d); it is an upper bound on — and the preallocated capacity
	// of — the flow entries s can emit toward d in one round.
	crossEdges [][]int
}

// NewPartition splits the graph into p shards with the given strategy
// ("" means Contiguous). p is clamped to [1, n].
func NewPartition(c *graph.CSR, p int, strategy Strategy) (*Partition, error) {
	if c == nil {
		return nil, fmt.Errorf("shard: nil graph")
	}
	n := c.N()
	if p < 1 {
		p = 1
	}
	if p > n {
		p = n
	}
	pt := &Partition{
		csr:      c,
		strategy: strategy,
		p:        p,
		lo:       make([]int32, p),
		hi:       make([]int32, p),
		shardOf:  make([]int32, n),
	}
	switch strategy {
	case "", Contiguous:
		pt.strategy = Contiguous
		pt.cutByCount()
	case DegreeBalanced:
		pt.cutByDegree()
	default:
		return nil, fmt.Errorf("shard: unknown partition strategy %q (want %q or %q)", strategy, Contiguous, DegreeBalanced)
	}
	for s := 0; s < p; s++ {
		for v := pt.lo[s]; v < pt.hi[s]; v++ {
			pt.shardOf[v] = int32(s)
		}
	}
	pt.computeBoundary()
	return pt, nil
}

// cutByCount assigns near-equal vertex counts per shard.
func (pt *Partition) cutByCount() {
	n := pt.csr.N()
	per, extra := n/pt.p, n%pt.p
	lo := 0
	for s := 0; s < pt.p; s++ {
		size := per
		if s < extra {
			size++
		}
		pt.lo[s], pt.hi[s] = int32(lo), int32(lo+size)
		lo += size
	}
}

// cutByDegree walks the vertex range accumulating degree mass (deg+1,
// so isolated stretches still carry weight) and closes shard s once its
// share of the total is reached — while always leaving at least one
// vertex for each remaining shard.
func (pt *Partition) cutByDegree() {
	c := pt.csr
	n := c.N()
	total := int64(c.DegreeSum()) + int64(n)
	acc := int64(0)
	s := 0
	pt.lo[0] = 0
	for v := 0; v < n && s < pt.p-1; v++ {
		acc += int64(c.Degree(v)) + 1
		remaining := pt.p - s - 1
		// Close the shard when its mass share is reached — or when the
		// node budget forces it (exactly one vertex left per remaining
		// shard), so every shard stays non-empty even for p close to n.
		mustClose := n-1-v == remaining
		if mustClose || (acc*int64(pt.p) >= total*int64(s+1) && n-1-v >= remaining) {
			pt.hi[s] = int32(v + 1)
			pt.lo[s+1] = int32(v + 1)
			s++
		}
	}
	pt.hi[pt.p-1] = int32(n)
}

// computeBoundary fills the boundary node lists, the halo sets and the
// directed cross-edge count matrix in one O(n + m) sweep. Halo members
// are deduplicated with a stamp array (a vertex adjacent to several of
// s's nodes enters halo[s] once); since shards own contiguous index
// ranges and vertices are visited ascending, the out-of-shard neighbors
// are collected unordered and sorted per shard afterwards.
func (pt *Partition) computeBoundary() {
	pt.boundary = make([][]int32, pt.p)
	pt.halo = make([][]int32, pt.p)
	pt.crossEdges = make([][]int, pt.p)
	for s := range pt.crossEdges {
		pt.crossEdges[s] = make([]int, pt.p)
	}
	c := pt.csr
	stamp := make([]int32, c.N())
	for i := range stamp {
		stamp[i] = -1
	}
	for s := 0; s < pt.p; s++ {
		cross := pt.crossEdges[s]
		for v := pt.lo[s]; v < pt.hi[s]; v++ {
			external := false
			for _, w := range c.Neighbors(int(v)) {
				if d := pt.shardOf[w]; int(d) != s {
					cross[d]++
					external = true
					if stamp[w] != int32(s) {
						stamp[w] = int32(s)
						pt.halo[s] = append(pt.halo[s], w)
					}
				}
			}
			if external {
				pt.boundary[s] = append(pt.boundary[s], v)
			}
		}
		slices.Sort(pt.halo[s])
	}
}

// P returns the number of shards.
func (pt *Partition) P() int { return pt.p }

// Strategy returns the resolved placement strategy.
func (pt *Partition) Strategy() Strategy { return pt.strategy }

// Range returns the contiguous vertex range [lo, hi) owned by shard s.
func (pt *Partition) Range(s int) (lo, hi int) { return int(pt.lo[s]), int(pt.hi[s]) }

// ShardOf returns the shard owning vertex v.
func (pt *Partition) ShardOf(v int) int { return int(pt.shardOf[v]) }

// Boundary returns shard s's boundary vertices (ascending). The slice
// aliases internal storage and must not be modified.
func (pt *Partition) Boundary(s int) []int32 { return pt.boundary[s] }

// Halo returns shard s's halo vertices — the out-of-shard neighbors of
// its nodes, ascending. Index k in the returned slice is vertex
// Halo(s)[k]'s halo slot: the wire exchange ships shard s exactly these
// loads, in exactly this order. The slice aliases internal storage and
// must not be modified.
func (pt *Partition) Halo(s int) []int32 { return pt.halo[s] }

// HaloSlot returns vertex v's slot in shard s's halo order, or -1 when
// v is not in the halo. The index is compact — a binary search over the
// sorted halo list, no n-length table.
func (pt *Partition) HaloSlot(s int, v int32) int {
	k, ok := slices.BinarySearch(pt.halo[s], v)
	if !ok {
		return -1
	}
	return k
}

// CrossEdges returns the number of directed edges from shard s into
// shard d.
func (pt *Partition) CrossEdges(s, d int) int { return pt.crossEdges[s][d] }

// CutEdges returns the total number of undirected edges crossing any
// shard boundary — the partition-quality number the scaling experiment
// reports.
func (pt *Partition) CutEdges() int {
	total := 0
	for s := 0; s < pt.p; s++ {
		for d := 0; d < pt.p; d++ {
			total += pt.crossEdges[s][d]
		}
	}
	return total / 2
}

// DegreeMass returns the degree+1 mass of shard s, for balance checks.
func (pt *Partition) DegreeMass(s int) int64 {
	mass := int64(0)
	for v := pt.lo[s]; v < pt.hi[s]; v++ {
		mass += int64(pt.csr.Degree(int(v))) + 1
	}
	return mass
}

// newWindowPartition is the partition as one cluster worker holds it, in
// the worker's local id space: shard own's rows are the local ids
// 0…m−1 and the only range, and its halo slots follow at m…m+h−1. No
// other shard has a range. shardOf covers the local ids — own for the
// rows, and for each halo slot the shard that owns it, found from the
// cut points — boundary[own] lists the rows with an out-of-shard
// neighbor, and crossEdges[own][d] counts the rows' arcs into shard d.
// halo[own] lists each halo slot's global id, ascending: the
// partition's halo-slot order, so slot k of the worker's halo frame is
// the load of halo[own][k], local id m+k. Nothing is indexed by all n
// nodes.
//
// rows are shard own's rows in global ids; their adjacency is rewritten
// in place into local ids.
func newWindowPartition(rows graph.Rows, cuts []int32, own int) *Partition {
	p := len(cuts) - 1
	lo, hi := cuts[own], cuts[own+1]
	m := hi - lo
	var halo []int32
	for _, w := range rows.Adj {
		if w < lo || w >= hi {
			halo = append(halo, w)
		}
	}
	slices.Sort(halo)
	halo = slices.Clip(slices.Compact(halo))
	pt := &Partition{
		p:          p,
		lo:         make([]int32, p),
		hi:         make([]int32, p),
		shardOf:    make([]int32, int(m)+len(halo)),
		boundary:   make([][]int32, p),
		halo:       make([][]int32, p),
		crossEdges: make([][]int, p),
	}
	for s := range pt.crossEdges {
		pt.crossEdges[s] = make([]int, p)
		if s > own {
			pt.lo[s], pt.hi[s] = m, m
		}
	}
	pt.hi[own] = m
	for k := range m {
		pt.shardOf[k] = int32(own)
	}
	for k, v := range halo {
		s, found := slices.BinarySearch(cuts, v)
		if !found {
			s--
		}
		pt.shardOf[int(m)+k] = int32(s)
	}
	cross := pt.crossEdges[own]
	for k := 0; k < rows.Len(); k++ {
		external := false
		for a := rows.Offsets[k]; a < rows.Offsets[k+1]; a++ {
			w := rows.Adj[a]
			if w >= lo && w < hi {
				rows.Adj[a] = w - lo
				continue
			}
			slot, _ := slices.BinarySearch(halo, w)
			rows.Adj[a] = m + int32(slot)
			cross[pt.shardOf[int(m)+slot]]++
			external = true
		}
		if external {
			pt.boundary[own] = append(pt.boundary[own], int32(k))
		}
	}
	pt.halo[own] = halo
	return pt
}

// bytes is the partition's resident size: the shard table, the cut
// points, the boundary and halo lists and the cross-edge matrix.
func (pt *Partition) bytes() int64 {
	b := int64(len(pt.shardOf)+len(pt.lo)+len(pt.hi)) * 4
	for s := 0; s < pt.p; s++ {
		b += int64(cap(pt.boundary[s])+cap(pt.halo[s]))*4 + int64(len(pt.crossEdges[s]))*8
	}
	return b
}
