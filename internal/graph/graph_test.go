package graph

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestFromEdgesBasic(t *testing.T) {
	g, err := FromEdges("tri", 3, []Edge{{0, 1}, {1, 2}, {0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 3 {
		t.Fatalf("got n=%d m=%d", g.N(), g.M())
	}
	for v := 0; v < 3; v++ {
		if g.Degree(v) != 2 {
			t.Errorf("degree(%d) = %d, want 2", v, g.Degree(v))
		}
	}
}

func TestFromEdgesRejectsSelfLoop(t *testing.T) {
	if _, err := FromEdges("bad", 2, []Edge{{0, 0}}); err == nil {
		t.Fatal("self-loop accepted")
	}
}

func TestFromEdgesRejectsDuplicate(t *testing.T) {
	if _, err := FromEdges("bad", 2, []Edge{{0, 1}, {1, 0}}); err == nil {
		t.Fatal("duplicate edge accepted")
	}
}

func TestFromEdgesRejectsOutOfRange(t *testing.T) {
	if _, err := FromEdges("bad", 2, []Edge{{0, 2}}); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
}

func TestFromEdgesRejectsEmpty(t *testing.T) {
	if _, err := FromEdges("bad", 0, nil); !errors.Is(err, ErrEmptyGraph) {
		t.Fatalf("want ErrEmptyGraph, got %v", err)
	}
}

func TestNeighborsSorted(t *testing.T) {
	g, err := FromEdges("star", 5, []Edge{{0, 4}, {0, 2}, {0, 1}, {0, 3}})
	if err != nil {
		t.Fatal(err)
	}
	nb := g.Neighbors(0)
	for i := 1; i < len(nb); i++ {
		if nb[i-1] >= nb[i] {
			t.Fatalf("neighbors of 0 not sorted: %v", nb)
		}
	}
}

func TestHasEdge(t *testing.T) {
	g, err := Ring(6)
	if err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(5, 0) {
		t.Error("missing ring edges")
	}
	if g.HasEdge(0, 3) || g.HasEdge(0, 0) || g.HasEdge(-1, 2) || g.HasEdge(0, 99) {
		t.Error("phantom edges reported")
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	orig := []Edge{{0, 1}, {1, 2}, {2, 3}, {0, 3}, {1, 3}}
	g, err := FromEdges("g", 4, orig)
	if err != nil {
		t.Fatal(err)
	}
	got := g.Edges()
	if len(got) != len(orig) {
		t.Fatalf("edge count %d, want %d", len(got), len(orig))
	}
	for _, e := range got {
		if e.U >= e.V {
			t.Errorf("edge %v not ordered", e)
		}
		if !g.HasEdge(e.U, e.V) {
			t.Errorf("edge %v not reported by HasEdge", e)
		}
	}
}

func TestDegreeSumTwiceEdges(t *testing.T) {
	f := func(seed uint64) bool {
		stream := rng.New(seed)
		g, err := ErdosRenyi(20, 0.3, stream)
		if err != nil {
			return true // resampling failure is not this property's concern
		}
		return g.DegreeSum() == 2*g.M()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestConnectivityAndDiameter(t *testing.T) {
	cases := []struct {
		name string
		g    func() (*Graph, error)
		diam int
	}{
		{"complete-8", func() (*Graph, error) { return Complete(8) }, 1},
		{"ring-8", func() (*Graph, error) { return Ring(8) }, 4},
		{"ring-9", func() (*Graph, error) { return Ring(9) }, 4},
		{"path-10", func() (*Graph, error) { return Path(10) }, 9},
		{"mesh-3x4", func() (*Graph, error) { return Mesh(3, 4) }, 5},
		{"torus-4x4", func() (*Graph, error) { return Torus(4, 4) }, 4},
		{"hypercube-4", func() (*Graph, error) { return Hypercube(4) }, 4},
		{"star-7", func() (*Graph, error) { return Star(7) }, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g, err := c.g()
			if err != nil {
				t.Fatal(err)
			}
			if !g.IsConnected() {
				t.Fatal("not connected")
			}
			d, err := g.Diameter()
			if err != nil {
				t.Fatal(err)
			}
			if d != c.diam {
				t.Errorf("diameter %d, want %d", d, c.diam)
			}
		})
	}
}

func TestDisconnectedDiameter(t *testing.T) {
	g, err := FromEdges("two", 4, []Edge{{0, 1}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if g.IsConnected() {
		t.Fatal("disconnected graph reported connected")
	}
	if _, err := g.Diameter(); !errors.Is(err, ErrNotConnected) {
		t.Fatalf("want ErrNotConnected, got %v", err)
	}
}

func TestDMax(t *testing.T) {
	g, err := Star(5)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.DMax(0, 1); got != 4 {
		t.Errorf("DMax(center,leaf) = %d, want 4", got)
	}
}
