package graph

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/bits"
)

// Rows is the row range [Lo, Lo+Len()) of a CSR: the offsets rebased so
// that Offsets[0] = 0, and the adjacency in the graph's own vertex ids.
// It is what one shard of a partition needs of the graph, and what a
// generator builds for a row range without building the rest
// (Descriptor.Rows).
type Rows struct {
	Lo      int
	Offsets []int32 // len Len()+1, Offsets[0] = 0
	Adj     []int32 // len Offsets[Len()], each row sorted ascending
}

// Len returns the number of rows.
func (r Rows) Len() int { return len(r.Offsets) - 1 }

// Digest returns the CRC-32 (IEEE) of the rebased offsets followed by
// the adjacency, each entry as 4 little-endian bytes. The digest of rows
// [0, n) is the CSR's Digest, and CSR.RowsDigest computes the digest of
// any row range from the whole CSR without copying it.
func (r Rows) Digest() uint32 { return digest(0, r.Offsets, r.Adj) }

// Validate checks rows that arrive as arrays rather than from a
// generator: rebased monotone offsets that span the adjacency, and rows
// that are strictly sorted, inside [0, n) and free of self-loops.
// Symmetry needs the other rows and is not checked.
func (r Rows) Validate(n int) error {
	if len(r.Offsets) == 0 || r.Offsets[0] != 0 || int(r.Offsets[len(r.Offsets)-1]) != len(r.Adj) {
		return fmt.Errorf("graph: %d row offsets do not span %d adjacency entries from 0", len(r.Offsets), len(r.Adj))
	}
	if r.Lo < 0 || r.Lo+r.Len() > n {
		return fmt.Errorf("graph: rows [%d,%d) outside %d vertices", r.Lo, r.Lo+r.Len(), n)
	}
	for k := 0; k < r.Len(); k++ {
		if r.Offsets[k+1] < r.Offsets[k] {
			return fmt.Errorf("graph: offsets decrease at vertex %d", r.Lo+k)
		}
		v := int32(r.Lo + k)
		row := r.Adj[r.Offsets[k]:r.Offsets[k+1]]
		for idx, w := range row {
			if w < 0 || int(w) >= n {
				return fmt.Errorf("graph: neighbor %d of vertex %d out of range [0,%d)", w, v, n)
			}
			if w == v {
				return fmt.Errorf("graph: self-loop at vertex %d", v)
			}
			if idx > 0 && row[idx-1] >= w {
				return fmt.Errorf("graph: row %d not strictly sorted at position %d", v, idx)
			}
		}
	}
	return nil
}

// RowsDigest returns the digest of rows [lo, hi), equal to the Digest of
// those rows as Descriptor.Rows builds them, without copying anything:
// the offsets are rebased a chunk at a time.
func (c *CSR) RowsDigest(lo, hi int) uint32 {
	return digest(c.offsets[lo], c.offsets[lo:hi+1], c.adj[c.offsets[lo]:c.offsets[hi]])
}

// Digest returns the CRC-32 (IEEE) of the offsets followed by the
// adjacency, each entry as 4 little-endian bytes: RowsDigest(0, n). Two
// CSRs with equal digests and node counts are, up to a CRC collision,
// the same graph.
func (c *CSR) Digest() uint32 { return c.RowsDigest(0, c.n) }

// digestChunk is the number of int32s digest encodes at a time.
const digestChunk = 4 << 10

// digest is the CRC-32 of offsets − base followed by adj. The arrays are
// encoded a fixed-size chunk at a time, never copied whole, so the
// digest of a d = 18 hypercube costs one 16 KiB buffer.
func digest(base int32, offsets, adj []int32) uint32 {
	var chunk [4 * digestChunk]byte
	crc := uint32(0)
	for a, arr := range [2][]int32{offsets, adj} {
		sub := base
		if a == 1 {
			sub = 0
		}
		for len(arr) > 0 {
			k := min(len(arr), digestChunk)
			for i, v := range arr[:k] {
				binary.LittleEndian.PutUint32(chunk[4*i:], uint32(v-sub))
			}
			crc = crc32.Update(crc, crc32.IEEETable, chunk[:4*k])
			arr = arr[k:]
		}
	}
	return crc
}

// Rows builds rows [lo, hi) of the CSR d's generator builds, and nothing
// else: O(hi − lo) offsets and the rows' own arcs. FromDescriptor is
// Rows(0, n) wrapped as a CSR, so both run the one row kernel per
// family.
func (d Descriptor) Rows(lo, hi int) (Rows, error) {
	n, err := d.Nodes()
	if err != nil {
		return Rows{}, err
	}
	if lo < 0 || hi < lo || hi > n {
		return Rows{}, fmt.Errorf("graph: rows [%d,%d) outside %d vertices", lo, hi, n)
	}
	return d.rows(lo, hi), nil
}

// rows runs d's row kernel over [lo, hi); d is valid and the range is
// inside it.
func (d Descriptor) rows(lo, hi int) Rows {
	a, b := d.Params[0], d.Params[1]
	switch d.Family {
	case FamilyRing:
		return ringRows(a, lo, hi)
	case FamilyPath:
		return pathRows(a, lo, hi)
	case FamilyTorus:
		return torusRows(a, b, lo, hi)
	case FamilyMesh:
		return meshRows(a, b, lo, hi)
	case FamilyHypercube:
		return hypercubeRows(a, lo, hi)
	default:
		return completeRows(a, lo, hi)
	}
}

// regularRows allocates rows [lo, hi) of a deg-regular graph.
func regularRows(lo, hi, deg int) Rows {
	offsets := make([]int32, hi-lo+1)
	for k := 1; k < len(offsets); k++ {
		offsets[k] = offsets[k-1] + int32(deg)
	}
	return Rows{Lo: lo, Offsets: offsets, Adj: make([]int32, (hi-lo)*deg)}
}

// ringRows: the two sorted neighbors of every vertex of C_n.
func ringRows(n, lo, hi int) Rows {
	r := regularRows(lo, hi, 2)
	for v := lo; v < hi; v++ {
		row := r.Adj[2*(v-lo):]
		switch v {
		case 0:
			row[0], row[1] = 1, int32(n-1)
		case n - 1:
			row[0], row[1] = 0, int32(n-2)
		default:
			row[0], row[1] = int32(v-1), int32(v+1)
		}
	}
	return r
}

// pathRows: v−1 and v+1 where they exist.
func pathRows(n, lo, hi int) Rows {
	offsets := make([]int32, hi-lo+1)
	adj := make([]int32, 0, 2*(hi-lo))
	for v := lo; v < hi; v++ {
		if v > 0 {
			adj = append(adj, int32(v-1))
		}
		if v < n-1 {
			adj = append(adj, int32(v+1))
		}
		offsets[v-lo+1] = int32(len(adj))
	}
	return Rows{Lo: lo, Offsets: offsets, Adj: adj}
}

// torusRows: every vertex's four wrap-around neighbors, sorted in place.
func torusRows(rows, cols, lo, hi int) Rows {
	r := regularRows(lo, hi, 4)
	var nb [4]int32
	for v := lo; v < hi; v++ {
		row, col := v/cols, v%cols
		up := ((row - 1 + rows) % rows) * cols
		down := ((row + 1) % rows) * cols
		nb[0] = int32(up + col)
		nb[1] = int32(down + col)
		nb[2] = int32(row*cols + (col-1+cols)%cols)
		nb[3] = int32(row*cols + (col+1)%cols)
		sort4(&nb)
		copy(r.Adj[4*(v-lo):], nb[:])
	}
	return r
}

// meshRows: the open grid's up, left, right and down neighbors where
// they exist, which is ascending order.
func meshRows(rows, cols, lo, hi int) Rows {
	offsets := make([]int32, hi-lo+1)
	adj := make([]int32, 0, 4*(hi-lo))
	for v := lo; v < hi; v++ {
		row, col := v/cols, v%cols
		if row > 0 {
			adj = append(adj, int32(v-cols))
		}
		if col > 0 {
			adj = append(adj, int32(v-1))
		}
		if col < cols-1 {
			adj = append(adj, int32(v+1))
		}
		if row < rows-1 {
			adj = append(adj, int32(v+cols))
		}
		offsets[v-lo+1] = int32(len(adj))
	}
	return Rows{Lo: lo, Offsets: offsets, Adj: adj}
}

// hypercubeRows emits every row of Q_d already sorted, visiting only the
// bits that produce a neighbor: clearing v's set bits from high to low
// (bits.Len) yields the smaller neighbors in ascending order, then
// setting its clear bits from low to high (bits.TrailingZeros) the
// larger ones.
func hypercubeRows(d, lo, hi int) Rows {
	r := regularRows(lo, hi, d)
	all := uint32(1)<<d - 1
	pos := 0
	for v := lo; v < hi; v++ {
		u := uint32(v)
		for set := u; set != 0; {
			bit := uint32(1) << (bits.Len32(set) - 1)
			r.Adj[pos] = int32(u &^ bit)
			pos++
			set &^= bit
		}
		for clear := ^u & all; clear != 0; clear &= clear - 1 {
			r.Adj[pos] = int32(u | 1<<bits.TrailingZeros32(clear))
			pos++
		}
	}
	return r
}

// completeRows: row v of K_n is 0..n−1 minus v.
func completeRows(n, lo, hi int) Rows {
	r := regularRows(lo, hi, n-1)
	pos := 0
	for v := lo; v < hi; v++ {
		for u := 0; u < n; u++ {
			if u != v {
				r.Adj[pos] = int32(u)
				pos++
			}
		}
	}
	return r
}

// Window wraps rows whose adjacency a shard has rewritten into its local
// id space — its own rows 0…Len()−1, then the ids of the vertices it does
// not hold — as a Graph of Len() vertices, for the decide kernels of
// that shard (core.NewWindowSystem). Its rows may name ids ≥ Len(), so it
// answers Degree and Neighbors of its own vertices and suits nothing
// that walks the graph. The Graph aliases the arrays.
func (r Rows) Window(name string) *Graph {
	return &Graph{name: name, n: r.Len(), offset: r.Offsets, adj: r.Adj}
}
