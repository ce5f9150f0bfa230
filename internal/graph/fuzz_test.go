// Native fuzz target for the graph generators: every family either
// rejects its parameters with an error or produces a structurally sound
// graph — symmetric sorted CSR adjacency, no self-loops or duplicates,
// consistent degree accounting, and connectivity for the families that
// guarantee it. These are exactly the invariants the protocol engines
// and the churn rewiring of package dynamics rely on. A graph built by
// a CSR generator must also rebuild from its descriptor.
package graph

import (
	"testing"

	"repro/internal/rng"
)

// checkInvariants validates the structural invariants of g.
func checkInvariants(t *testing.T, g *Graph, wantConnected bool) {
	t.Helper()
	n := g.N()
	if n <= 0 {
		t.Fatalf("graph with %d vertices", n)
	}
	degSum := 0
	for v := 0; v < n; v++ {
		nbs := g.Neighbors(v)
		if len(nbs) != g.Degree(v) {
			t.Fatalf("vertex %d: %d neighbors but degree %d", v, len(nbs), g.Degree(v))
		}
		degSum += len(nbs)
		for idx, u := range nbs {
			if int(u) == v {
				t.Fatalf("self-loop at vertex %d", v)
			}
			if u < 0 || int(u) >= n {
				t.Fatalf("vertex %d: neighbor %d out of range", v, u)
			}
			if idx > 0 && nbs[idx-1] >= u {
				t.Fatalf("vertex %d: neighbor list not strictly sorted at %d", v, idx)
			}
			if !g.HasEdge(int(u), v) {
				t.Fatalf("asymmetric edge: %d→%d present, reverse missing", v, u)
			}
		}
	}
	if degSum != g.DegreeSum() || degSum != 2*g.M() {
		t.Fatalf("degree sum %d, DegreeSum %d, 2M %d disagree", degSum, g.DegreeSum(), 2*g.M())
	}
	if wantConnected && !g.IsConnected() {
		t.Fatalf("generator produced a disconnected graph: %v", g)
	}
}

func FuzzGenerators(f *testing.F) {
	f.Add(uint8(0), 8, uint64(1))
	f.Add(uint8(1), 1, uint64(2))
	f.Add(uint8(2), 16, uint64(3))
	f.Add(uint8(3), 9, uint64(4))
	f.Add(uint8(4), 64, uint64(5))
	f.Add(uint8(5), 0, uint64(6))
	f.Add(uint8(6), -3, uint64(7))
	f.Add(uint8(7), 12, uint64(8))
	f.Add(uint8(8), 20, uint64(9))
	f.Add(uint8(9), 10, uint64(10))
	f.Fuzz(func(t *testing.T, family uint8, n int, seed uint64) {
		// Bound the instance size; the invariants are size-independent
		// and the diameter of the interesting corner cases is small.
		if n > 1<<10 {
			n %= 1 << 10
		}
		stream := rng.New(seed)
		var g *Graph
		var err error
		connected := true
		switch family % 10 {
		case 0:
			g, err = Complete(n)
		case 1:
			g, err = Ring(n)
		case 2:
			g, err = Path(n)
		case 3:
			g, err = Mesh(n%32, n/32+1)
		case 4:
			g, err = Torus(n%32, n/32+1)
		case 5:
			g, err = Hypercube(n % 11)
		case 6:
			g, err = Star(n)
		case 7:
			g, err = BinaryTree(n)
		case 8:
			g, err = RandomRegular(n, 3+int(seed%3), stream)
			// d-regular random graphs are connected w.h.p. but not by
			// construction.
			connected = false
		case 9:
			g, err = ErdosRenyi(n, 0.5, stream)
			connected = false
		}
		if err != nil {
			return // parameter rejection is a valid outcome
		}
		checkInvariants(t, g, connected)
		// A generator's descriptor rebuilds the same arrays.
		c := g.CSR()
		if d := c.Descriptor(); d.Family != Explicit {
			r, err := FromDescriptor(d)
			if err != nil {
				t.Fatalf("%v: descriptor %+v does not rebuild: %v", g, d, err)
			}
			if r.N() != c.N() || r.Digest() != c.Digest() || r.Name() != c.Name() {
				t.Fatalf("%v: descriptor %+v rebuilt %s with %d nodes", g, d, r.Name(), r.N())
			}
		}
	})
}
