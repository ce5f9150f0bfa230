package shard

import (
	"io"
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

// testConfigs returns config frames as the coordinator builds them for
// both models at P = 2 on 8 nodes: on a ring, whose rows travel as its
// descriptor and their digest, and on a star, whose rows travel
// explicitly. Uniform frames are shard 1's, weighted ones shard 0's and
// restored.
func testConfigs(t testing.TB) []*clusterConfig {
	ring, err := graph.Ring(8)
	if err != nil {
		t.Fatal(err)
	}
	star, err := graph.Star(8)
	if err != nil {
		t.Fatal(err)
	}
	speeds := machine.Speeds{1, 2, 1, 1, 2, 1, 1, 1}
	var cfgs []*clusterConfig
	for _, g := range []*graph.Graph{ring, star} {
		sys, err := core.NewSystem(g, speeds, core.WithLambda2(0.5))
		if err != nil {
			t.Fatal(err)
		}
		part, err := clusterPartition(sys, 2, Contiguous)
		if err != nil {
			t.Fatal(err)
		}
		c, err := newClusterCore(sys, modelUniform, "algorithm1", 0, part, make([]io.ReadWriter, 2))
		if err != nil {
			t.Fatal(err)
		}
		cfgs = append(cfgs, c.config(1, &ownState{Counts: []int64{3, 0, 9, 1}}, false))
		c.model, c.proto, c.alpha = modelWeighted, "algorithm2", 0.5
		cfgs = append(cfgs, c.config(0, &ownState{
			SegLen: []int64{2, 0, 1, 0}, Segs: []float64{0.5, 0.25, 1}, NodeWeight: []float64{0.75, 0, 1, 0},
		}, true))
	}
	return cfgs
}

// FuzzDecodeConfig feeds mutated config frames, seeded with descriptor
// and explicit-rows frames of both models, to the worker's decoder.
// Whatever the bytes, it must return a config or an error: no panic,
// and no allocation out of proportion to the frame. Decoding never runs
// a generator — a descriptor is checked against the node count by
// arithmetic alone, and the cut points, own-range arrays and halo arrays
// against each other — so a small frame cannot describe rows whose
// build would allocate gigabytes.
func FuzzDecodeConfig(f *testing.F) {
	for _, cfg := range testConfigs(f) {
		var b transport.Buffer
		encodeConfig(&b, cfg)
		f.Add(b.B)
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		var b transport.Buffer
		b.Load(frame)
		alloc := allocated(func() { _, _ = decodeConfig(&b) })
		checkDecodeAlloc(t, "config", len(frame), alloc)
	})
}

// FuzzWorkerDecoders feeds mutated frames to the worker-side decoders of
// the per-round and state frames: an event slice of either model for the
// own range [4, 12) (decodeEventSlice), an own state of either model
// (decodeOwnState) and a worker stats report (decodeWorkerStats). The
// first input byte picks the decoder. Whatever the rest, each must
// return a value or an error: no panic, no allocation out of proportion
// to the input, and an event slice never holds an entry outside the own
// range.
func FuzzWorkerDecoders(f *testing.F) {
	batch := &core.EventBatch{
		Arrivals: make([]int64, 16), Departures: make([]int64, 16),
		WeightArrivals: make([][]float64, 16), WeightDepartures: make([]int64, 16),
	}
	batch.Arrivals[5], batch.Departures[11] = 3, 2
	batch.WeightArrivals[4], batch.WeightDepartures[9] = []float64{0.5, 1}, 1
	for pick, model := range []uint8{modelUniform, modelWeighted} {
		var b transport.Buffer
		encodeEventSlice(&b, model, batch, 4, 12)
		f.Add(append([]byte{byte(pick)}, b.B...))
		b.Reset()
		encodeOwnState(&b, model, &ownState{Counts: []int64{1, 2}, SegLen: []int64{1, 0}, Segs: []float64{0.5}, NodeWeight: []float64{0.5, 0}})
		f.Add(append([]byte{byte(2 + pick)}, b.B...))
	}
	var b transport.Buffer
	encodeWorkerStats(&b, WorkerStats{DecideNs: 7, FlowsOut: 3})
	f.Add(append([]byte{4}, b.B...))
	f.Fuzz(func(t *testing.T, frame []byte) {
		if len(frame) == 0 {
			return
		}
		var b transport.Buffer
		b.Load(frame[1:])
		var got *core.EventBatch
		alloc := allocated(func() {
			switch model := uint8(frame[0] % 2); frame[0] % 5 {
			case 0, 1:
				got, _ = decodeEventSlice(&b, model, 4, 12)
			case 2, 3:
				_, _ = decodeOwnState(&b, model)
			default:
				_, _ = decodeWorkerStats(&b)
			}
		})
		checkDecodeAlloc(t, "worker frame", len(frame), alloc)
		if got == nil {
			return
		}
		for _, l := range []int{len(got.Arrivals), len(got.Departures), len(got.WeightArrivals), len(got.WeightDepartures)} {
			if l != 0 && l != 8 {
				t.Fatalf("event slice of %d entries for an own range of 8", l)
			}
		}
	})
}

// FuzzRoundFlows feeds mutated per-round frames that carry flows to
// their decoders: a worker's flows frame at the coordinator of P = 3
// shards (decodeFlows, either model), and a grant at a worker whose own
// range is [4, 12) (decodeGrant, decodeWGrant). The first input byte
// picks the decoder. Whatever the rest, each must return or fail: no
// panic, no allocation out of proportion to the input, and an accepted
// grant names only own-range nodes, rebased to the local ids 0…7.
func FuzzRoundFlows(f *testing.F) {
	const p, lo, hi = 3, 4, 12
	flows := [][]transport.Flow{{{Node: 5, Amount: 2}}, nil, {{Node: 11, Amount: 1}, {Node: 4, Amount: 7}}}
	wflows := [][]transport.WFlow{{{Dst: 6, G: 0, W: 0.5}}, {{Dst: 11, G: 3, W: 1}}, nil}
	for pick, model := range []uint8{modelUniform, modelWeighted} {
		var b transport.Buffer
		b.PutI64(9)
		b.PutU32(p)
		for d := 0; d < p; d++ {
			if model == modelUniform {
				b.PutFlows(flows[d])
			} else {
				b.PutWFlows(wflows[d])
			}
		}
		f.Add(append([]byte{byte(pick)}, b.B...))
	}
	var b transport.Buffer
	b.PutU32(p)
	for _, l := range flows {
		b.PutFlows(l)
	}
	f.Add(append([]byte{2}, b.B...))
	b.Reset()
	b.PutI64s([]int64{0, 4, 9})
	b.PutI64(-1)
	b.PutU32(p)
	for _, l := range wflows {
		b.PutWFlows(l)
	}
	f.Add(append([]byte{3}, b.B...))
	f.Fuzz(func(t *testing.T, frame []byte) {
		if len(frame) == 0 {
			return
		}
		var b transport.Buffer
		b.Load(frame[1:])
		fl, wl := make([][]transport.Flow, p), make([][]transport.WFlow, p)
		var err error
		alloc := allocated(func() {
			switch frame[0] % 4 {
			case 0, 1:
				_, err = decodeFlows(&b, []uint8{modelUniform, modelWeighted}[frame[0]%2], fl, wl)
			case 2:
				err = decodeGrant(&b, lo, hi, fl)
			default:
				_, _, err = decodeWGrant(&b, lo, hi, nil, wl)
			}
		})
		checkDecodeAlloc(t, "round flows", len(frame), alloc)
		if err != nil || frame[0]%4 < 2 {
			return
		}
		for src := range fl {
			for _, f := range fl[src] {
				if f.Node < 0 || f.Node >= hi-lo {
					t.Fatalf("accepted grant names local node %d of an own range of %d", f.Node, hi-lo)
				}
			}
			for _, f := range wl[src] {
				if f.Dst < 0 || f.Dst >= hi-lo {
					t.Fatalf("accepted weighted grant names local node %d of an own range of %d", f.Dst, hi-lo)
				}
			}
		}
	})
}

// TestWorkerRefusesOtherGraph: a worker refuses a config whose
// descriptor does not rebuild the coordinator's rows — a different rows
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
		tamper func(*clusterCore)
		want   string
	}{
		{"digest", func(c *clusterCore) { c.rowDigest[0] ^= 1 }, "graph ring-8: rebuilt rows [0,4) with digest"},
		{"nodes", func(c *clusterCore) { c.inst.Desc.Params[0] = 9 }, "graph ring-8: descriptor builds 9 nodes, not 8"},
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
			tc.tamper(c)
			err = c.configure([]*ownState{{Counts: make([]int64, 4)}, {Counts: make([]int64, 4)}}, false)
			if err == nil || !strings.Contains(err.Error(), "shard: worker 0, configure: ") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("configure returned %v, want an error naming worker 0, the configure phase and %q", err, tc.want)
			}
			within(t, "Close", c.Close)
		})
	}
}

// TestDecodeConfigRejects: the config decoder refuses, before anything
// is built, cut points that do not split [0, n) into P non-empty shards
// with the shard in [0, P), a descriptor that builds another node count
// or that no generator has, own-range arrays — explicit rows, speeds,
// state — that do not cover exactly the shard's range, and halo arrays
// that disagree or do not fit beside it.
func TestDecodeConfigRejects(t *testing.T) {
	cfgs := testConfigs(t)
	described, explicit := cfgs[0], cfgs[2]
	cases := []struct {
		name   string
		cfg    *clusterConfig
		tamper func(*clusterConfig)
		want   string
	}{
		{"own-speeds", described, func(c *clusterConfig) { c.Window.Speeds = c.Window.Speeds[:3] }, "3 speeds for range [4,8)"},
		{"descriptor-nodes", described, func(c *clusterConfig) { c.Window.Desc.Params[0] = 9 }, "descriptor builds 9 nodes, not 8"},
		{"descriptor-overflow", described, func(c *clusterConfig) {
			c.Window.Desc = graph.Descriptor{Family: graph.FamilyComplete, Params: [2]int{50_000}}
		}, "overflow"},
		{"unknown-family", described, func(c *clusterConfig) { c.Window.Desc.Family = graph.FamilyComplete + 1 }, "no generator"},
		{"offsets", explicit, func(c *clusterConfig) { c.Window.Offsets = c.Window.Offsets[:4] }, "4 row offsets for range [4,8)"},
		{"shard", described, func(c *clusterConfig) { c.Shard = 2 }, "shard 2 of 2"},
		{"zero-shards", described, func(c *clusterConfig) { c.Cuts, c.Shard = []int32{8}, 0 }, "shard 0 of 0"},
		{"cuts-span", described, func(c *clusterConfig) { c.Cuts = []int32{0, 4, 9} }, "cut points span [0,9), not the 8 nodes"},
		{"empty-shard", described, func(c *clusterConfig) { c.Cuts = []int32{0, 4, 4, 8} }, "leave shard 1 empty"},
		{"halo", described, func(c *clusterConfig) { c.Window.HaloDeg = append(c.Window.HaloDeg, 2) }, "halo degrees"},
		{"halo-size", described, func(c *clusterConfig) {
			c.Window.HaloSpeeds, c.Window.HaloDeg = make([]float64, 5), make([]int32, 5)
		}, "5 halo speeds and 5 halo degrees beside 4 of 8 nodes"},
		{"counts", described, func(c *clusterConfig) { c.Counts = c.Counts[:3] }, "3 counts for a range of 4"},
		{"segments", cfgs[1], func(c *clusterConfig) { c.SegLen = c.SegLen[:3] }, "3 segment lengths for a range of 4"},
		{"weight-sums", cfgs[1], func(c *clusterConfig) { c.NodeWeight = c.NodeWeight[:3] }, "3 restored weight sums for a range of 4"},
	}
	for _, tc := range cases {
		cfg := *tc.cfg
		tc.tamper(&cfg)
		var b transport.Buffer
		encodeConfig(&b, &cfg)
		b.Load(b.B)
		if _, err := decodeConfig(&b); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: decodeConfig returned %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
}
