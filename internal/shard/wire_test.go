package shard

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/transport"
)

// allocated returns the bytes the heap allocated while f ran.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// checkDecodeAlloc fails t when decoding input allocated out of
// proportion to it. The slack covers the decoded structs' fixed size.
func checkDecodeAlloc(t *testing.T, what string, input int, alloc uint64) {
	t.Helper()
	if limit := 16*uint64(input) + 64<<10; alloc > limit {
		t.Fatalf("%s: decoding %d bytes allocated %d (limit %d)", what, input, alloc, limit)
	}
}

// testInstances is a graph with a descriptor and one without, both on 8
// nodes, as the coordinator would send them.
func testInstances(t testing.TB) (described, explicit instanceWire) {
	ring, err := graph.RingCSR(8)
	if err != nil {
		t.Fatal(err)
	}
	star, err := graph.Star(8)
	if err != nil {
		t.Fatal(err)
	}
	csr := star.CSR()
	speeds := []float64{1, 2, 1, 1, 2, 1, 1, 1}
	described = instanceWire{Name: ring.Name(), N: 8, Desc: ring.Descriptor(), Digest: ring.Digest(), Speeds: speeds, Lambda2: 0.58}
	explicit = instanceWire{Name: csr.Name(), N: 8, Offsets: csr.Offsets(), Adj: csr.Adj(), Speeds: speeds, Lambda2: 1}
	return described, explicit
}

// FuzzDecodeConfig feeds mutated config frames, seeded with descriptor
// and explicit-CSR frames of both models, to the worker's decoder.
// Whatever the bytes, it must return a config or an error: no panic,
// and no allocation out of proportion to the frame. Decoding never runs
// a generator — a descriptor is checked against the stored speeds'
// count by arithmetic alone — so a small frame cannot describe a graph
// whose build would allocate gigabytes.
func FuzzDecodeConfig(f *testing.F) {
	described, explicit := testInstances(f)
	for _, inst := range []instanceWire{described, explicit} {
		for _, cfg := range []clusterConfig{
			{Model: modelUniform, Proto: "algorithm1", P: 2, Shard: 1, Lo: 4, Strategy: "contiguous", Instance: inst,
				Counts: []int64{3, 0, 9, 1}},
			{Model: modelWeighted, Proto: "algorithm2", Alpha: 0.5, P: 2, Lo: 0, Strategy: "degree", Instance: inst,
				SegLen: []int64{2, 0, 1, 0}, Segs: []float64{0.5, 0.25, 1}, Restored: true,
				NodeWeight: []float64{0.75, 0, 1, 0}},
		} {
			var b transport.Buffer
			encodeConfig(&b, &cfg)
			f.Add(b.B)
		}
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		var b transport.Buffer
		b.Load(frame)
		alloc := allocated(func() { _, _ = decodeConfig(&b) })
		checkDecodeAlloc(t, "config", len(frame), alloc)
	})
}

// TestWorkerRefusesOtherGraph: a worker refuses a config whose
// descriptor does not rebuild the coordinator's graph — a different
// digest at the same node count, or a different node count — with an
// error that names the graph, and the coordinator names the worker and
// the phase. Close must not hang on the refusing workers.
func TestWorkerRefusesOtherGraph(t *testing.T) {
	g, err := graph.Ring(8)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(g, machine.Uniform(8), core.WithLambda2(0.58))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		tamper func(*instanceWire)
		want   string
	}{
		{"digest", func(w *instanceWire) { w.Digest ^= 1 }, "graph ring-8: rebuilt 8 nodes with digest"},
		{"nodes", func(w *instanceWire) { w.Desc.Params[0] = 9 }, "graph ring-8: descriptor builds 9 nodes, not 8"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			part, err := clusterPartition(sys, 2, Contiguous)
			if err != nil {
				t.Fatal(err)
			}
			rws, closers, wait := localWorkers(2)
			c, err := newClusterCore(sys, modelUniform, "algorithm1", 0, part, rws)
			if err != nil {
				t.Fatal(err)
			}
			c.closers, c.wait = closers, wait
			tc.tamper(&c.inst)
			err = c.configure([]*ownState{{Counts: make([]int64, 4)}, {Counts: make([]int64, 4)}}, false)
			if err == nil || !strings.Contains(err.Error(), "shard: worker 0, configure: ") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("configure returned %v, want an error naming worker 0, the configure phase and %q", err, tc.want)
			}
			within(t, "Close", c.Close)
		})
	}
}

// TestDecodeConfigRejects: the config decoder refuses, before anything
// is built, a frame whose node count is not the stored speeds' count, a
// descriptor that builds another node count or that no generator has,
// an explicit CSR with the wrong offsets, and a shard outside [0, P)
// with P outside [1, n].
func TestDecodeConfigRejects(t *testing.T) {
	described, explicit := testInstances(t)
	cases := []struct {
		name   string
		inst   instanceWire
		tamper func(*clusterConfig)
		want   string
	}{
		{"nodes-vs-speeds", described, func(c *clusterConfig) { c.Instance.N = 1 << 30 }, "speeds for"},
		{"descriptor-nodes", described, func(c *clusterConfig) { c.Instance.Desc.Params[0] = 9 }, "descriptor builds 9 nodes, not 8"},
		{"descriptor-overflow", described, func(c *clusterConfig) {
			c.Instance.Desc = graph.Descriptor{Family: graph.FamilyComplete, Params: [2]int{50_000}}
		}, "overflow"},
		{"unknown-family", described, func(c *clusterConfig) { c.Instance.Desc.Family = graph.FamilyComplete + 1 }, "no generator"},
		{"offsets", explicit, func(c *clusterConfig) { c.Instance.Offsets = c.Instance.Offsets[:8] }, "CSR offsets for"},
		{"shard", described, func(c *clusterConfig) { c.Shard = 2 }, "shard 2 of 2"},
		{"zero-shards", described, func(c *clusterConfig) { c.P, c.Shard = 0, 0 }, "shard 0 of 0"},
		{"shards-beyond-nodes", described, func(c *clusterConfig) { c.P = 9 }, "of 9 for 8 nodes"},
	}
	for _, tc := range cases {
		cfg := clusterConfig{Model: modelUniform, Proto: "algorithm1", P: 2, Shard: 1, Lo: 4, Instance: tc.inst, Counts: make([]int64, 4)}
		tc.tamper(&cfg)
		var b transport.Buffer
		encodeConfig(&b, &cfg)
		b.Load(b.B)
		if _, err := decodeConfig(&b); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: decodeConfig returned %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
}
