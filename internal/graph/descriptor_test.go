package graph

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"reflect"
	"slices"
	"testing"
)

// generatorCall is one CSR generator call and the descriptor it must
// record.
type generatorCall struct {
	build func() (*CSR, error)
	desc  Descriptor
}

// generatorCalls covers every family, including the parameter values at
// and just past each family's lower bound.
func generatorCalls() []generatorCall {
	var calls []generatorCall
	for n := -1; n <= 9; n++ {
		n := n
		calls = append(calls,
			generatorCall{func() (*CSR, error) { return RingCSR(n) }, Descriptor{FamilyRing, [2]int{n}}},
			generatorCall{func() (*CSR, error) { return PathCSR(n) }, Descriptor{FamilyPath, [2]int{n}}},
			generatorCall{func() (*CSR, error) { return CompleteCSR(n) }, Descriptor{FamilyComplete, [2]int{n}}},
			generatorCall{func() (*CSR, error) { return HypercubeCSR(n) }, Descriptor{FamilyHypercube, [2]int{n}}},
		)
		for _, m := range []int{0, 1, 2, 3, 5} {
			m := m
			calls = append(calls,
				generatorCall{func() (*CSR, error) { return TorusCSR(n, m) }, Descriptor{FamilyTorus, [2]int{n, m}}},
				generatorCall{func() (*CSR, error) { return MeshCSR(m, n) }, Descriptor{FamilyMesh, [2]int{m, n}}},
			)
		}
	}
	return calls
}

// TestDescriptorRebuild: every generator records its call, Nodes
// accepts exactly the parameters the generator accepts, and
// FromDescriptor rebuilds the identical CSR.
func TestDescriptorRebuild(t *testing.T) {
	for _, call := range generatorCalls() {
		t.Run(fmt.Sprintf("%d%v", call.desc.Family, call.desc.Params), func(t *testing.T) {
			want, genErr := call.build()
			n, err := call.desc.Nodes()
			if (genErr == nil) != (err == nil) {
				t.Fatalf("generator error %v, Nodes error %v", genErr, err)
			}
			rebuilt, rebuildErr := FromDescriptor(call.desc)
			if genErr != nil {
				if rebuildErr == nil {
					t.Fatal("FromDescriptor accepted parameters the generator rejects")
				}
				return
			}
			if want.Descriptor() != call.desc {
				t.Fatalf("generator recorded %+v, want %+v", want.Descriptor(), call.desc)
			}
			if n != want.N() {
				t.Fatalf("Nodes = %d, generator built %d", n, want.N())
			}
			if rebuildErr != nil {
				t.Fatal(rebuildErr)
			}
			if !reflect.DeepEqual(rebuilt, want) {
				t.Fatalf("rebuilt %+v, want %+v", rebuilt, want)
			}
			if g := want.Graph(); g.CSR().Descriptor() != call.desc {
				t.Fatal("Graph↔CSR conversion dropped the descriptor")
			}
		})
	}
}

// TestDescriptorNodesBounds: Nodes rejects, without building anything,
// descriptors whose adjacency would overflow the int32 offsets or whose
// parameters could not come from a generator; the zero Descriptor and
// graphs built from arrays or edge lists have no generator.
func TestDescriptorNodesBounds(t *testing.T) {
	for _, d := range []Descriptor{
		{},
		{Family: FamilyComplete + 1, Params: [2]int{4}},
		{FamilyRing, [2]int{1 << 30}},
		{FamilyPath, [2]int{math.MaxInt32 + 1}},
		{FamilyTorus, [2]int{1 << 16, 1 << 15}},
		{FamilyTorus, [2]int{math.MaxInt32, math.MaxInt32}},
		{FamilyMesh, [2]int{math.MaxInt32, math.MaxInt32}},
		{FamilyHypercube, [2]int{27}},
		{FamilyHypercube, [2]int{31}},
		{FamilyComplete, [2]int{50_000}},
		{FamilyRing, [2]int{-5}},
		{FamilyRing, [2]int{math.MinInt64}},
	} {
		if n, err := d.Nodes(); err == nil {
			t.Errorf("%+v: Nodes accepted %d vertices", d, n)
		}
	}
	// Inside the bounds, Nodes answers without building: a d = 26 cube
	// would take 6.7 GB.
	if n, err := (Descriptor{FamilyHypercube, [2]int{26}}).Nodes(); err != nil || n != 1<<26 {
		t.Errorf("hypercube-26: Nodes = %d, %v", n, err)
	}
	star, err := Star(5)
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := NewCSR("ring", 3, []int32{0, 2, 4, 6}, []int32{1, 2, 0, 2, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*CSR{star.CSR(), explicit} {
		if d := c.Descriptor(); d != (Descriptor{}) {
			t.Errorf("%s: descriptor %+v, want none", c.Name(), d)
		}
	}
}

// TestDigestChunks: Digest equals the CRC-32 of the whole little-endian
// encoding, across several chunks, and tells graphs of one size apart.
func TestDigestChunks(t *testing.T) {
	c, err := HypercubeCSR(12) // 4,097 offsets and 49,152 arcs: 13 chunks
	if err != nil {
		t.Fatal(err)
	}
	var whole []byte
	for _, v := range c.Offsets() {
		whole = binary.LittleEndian.AppendUint32(whole, uint32(v))
	}
	for _, v := range c.Adj() {
		whole = binary.LittleEndian.AppendUint32(whole, uint32(v))
	}
	if got, want := c.Digest(), crc32.ChecksumIEEE(whole); got != want {
		t.Fatalf("Digest %#08x, CRC-32 of the encoding %#08x", got, want)
	}
	ring, _ := RingCSR(16)
	torus, _ := TorusCSR(4, 4)
	mesh, _ := MeshCSR(4, 4)
	if ring.Digest() == torus.Digest() || torus.Digest() == mesh.Digest() {
		t.Fatal("distinct 16-node graphs share a digest")
	}
}

// checkRows fails t unless d's rows [lo, hi) are exactly rows [lo, hi)
// of c, rebased, and their digest is the one c computes for the range.
func checkRows(t *testing.T, c *CSR, d Descriptor, lo, hi int) {
	t.Helper()
	r, err := d.Rows(lo, hi)
	if err != nil {
		t.Fatalf("%s rows [%d,%d): %v", c.Name(), lo, hi, err)
	}
	off := c.Offsets()
	if r.Lo != lo || r.Len() != hi-lo || !slices.Equal(r.Adj, c.Adj()[off[lo]:off[hi]]) {
		t.Fatalf("%s rows [%d,%d): built %+v", c.Name(), lo, hi, r)
	}
	for k := range r.Offsets {
		if r.Offsets[k] != off[lo+k]-off[lo] {
			t.Fatalf("%s rows [%d,%d): offset %d is %d, want %d", c.Name(), lo, hi, k, r.Offsets[k], off[lo+k]-off[lo])
		}
	}
	if got, want := r.Digest(), c.RowsDigest(lo, hi); got != want {
		t.Fatalf("%s rows [%d,%d): digest %#08x, RowsDigest %#08x", c.Name(), lo, hi, got, want)
	}
	if err := r.Validate(c.N()); err != nil {
		t.Fatalf("%s rows [%d,%d): %v", c.Name(), lo, hi, err)
	}
}

// TestDescriptorRows: every generator's rows for a range are that range
// of its whole build, rows [0, n) digest to the CSR's Digest, and a
// range outside the graph is refused.
func TestDescriptorRows(t *testing.T) {
	for _, call := range generatorCalls() {
		c, err := call.build()
		if err != nil {
			continue
		}
		n := c.N()
		for _, rg := range [][2]int{{0, n}, {0, 0}, {n, n}, {n / 3, n - n/4}, {n / 2, n/2 + 1}} {
			checkRows(t, c, call.desc, rg[0], rg[1])
		}
		if c.RowsDigest(0, n) != c.Digest() {
			t.Fatalf("%s: RowsDigest(0, n) differs from Digest", c.Name())
		}
		for _, rg := range [][2]int{{-1, 1}, {1, 0}, {0, n + 1}} {
			if _, err := call.desc.Rows(rg[0], rg[1]); err == nil {
				t.Fatalf("%s: rows [%d,%d) accepted", c.Name(), rg[0], rg[1])
			}
		}
	}
}

// TestRowsValidate: shipped rows are refused when their offsets do not
// span the adjacency from 0 or decrease, or a row leaves [0, n), loops
// or is unsorted.
func TestRowsValidate(t *testing.T) {
	good := Rows{Lo: 1, Offsets: []int32{0, 2, 4}, Adj: []int32{0, 2, 1, 3}}
	if err := good.Validate(4); err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]Rows{
		"span":     {Lo: 1, Offsets: []int32{0, 2, 3}, Adj: []int32{0, 2, 1, 3}},
		"base":     {Lo: 1, Offsets: []int32{1, 2, 4}, Adj: []int32{0, 2, 1, 3}},
		"empty":    {Lo: 1},
		"decrease": {Lo: 1, Offsets: []int32{0, 3, 2, 4}, Adj: []int32{0, 2, 1, 3}},
		"range":    {Lo: 3, Offsets: []int32{0, 2, 4}, Adj: []int32{0, 2, 1, 3}},
		"neighbor": {Lo: 1, Offsets: []int32{0, 2, 4}, Adj: []int32{0, 4, 1, 3}},
		"loop":     {Lo: 1, Offsets: []int32{0, 2, 4}, Adj: []int32{1, 2, 1, 3}},
		"sorted":   {Lo: 1, Offsets: []int32{0, 2, 4}, Adj: []int32{2, 0, 1, 3}},
	} {
		if err := r.Validate(4); err == nil {
			t.Errorf("%s: %+v accepted", name, r)
		}
	}
}
