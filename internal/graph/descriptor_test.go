package graph

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"reflect"
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
