package shard

import (
	"bytes"
	"io"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/rng"
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

// FuzzWorkerDecoders feeds mutated frames to the decoders of the round
// and state frames and of the worker telemetry: a round frame of either
// model, with an event slice, at the worker whose own range is [4, 12)
// (decodeRound), a state frame of either model for an own range of 2
// (decodeStateFrame) and a worker stats report (decodeWorkerStats, which
// ends the step-done frame). The first input byte picks the decoder.
// Whatever the rest, each must return a value or an error: no panic, no
// allocation out of proportion to the input, an accepted frame is used
// up, and an event slice never holds an entry outside the own range.
func FuzzWorkerDecoders(f *testing.F) {
	batch := &core.EventBatch{
		Arrivals: make([]int64, 16), Departures: make([]int64, 16),
		WeightArrivals: make([][]float64, 16), WeightDepartures: make([]int64, 16),
	}
	batch.Arrivals[5], batch.Departures[11] = 3, 2
	batch.WeightArrivals[4], batch.WeightDepartures[9] = []float64{0.5, 1}, 1
	for pick, model := range []uint8{modelUniform, modelWeighted} {
		var b transport.Buffer
		putRoundHeader(&b, 7, true)
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
		var err error
		alloc := allocated(func() {
			switch model := uint8(frame[0] % 2); frame[0] % 5 {
			case 0, 1:
				_, _, got, err = decodeRound(&b, model, 4, 12)
			case 2, 3:
				_, err = decodeStateFrame(&b, model, 2)
			default:
				_, err = decodeWorkerStats(&b)
			}
		})
		checkDecodeAlloc(t, "worker frame", len(frame), alloc)
		if err == nil && b.Remaining() != 0 {
			t.Fatalf("accepted a frame with %d bytes unread", b.Remaining())
		}
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

// FuzzRoundFlows feeds mutated per-round frames to their decoders: a
// worker's flows frame at the coordinator of P = 3 shards (decodeFlows,
// either model), a grant at worker 1 (decodeGrant) or worker 2
// (decodeWGrant) whose own range is [4, 12), that worker's step-done
// frame with its telemetry at the coordinator (decodeStepDone, on a
// refold round when the first byte is above 127), shard 1's boundary
// loads at the coordinator (decodeBoundary, either model, with an event
// report when the first byte is above 127) and a worker's halo loads
// (decodeHalo). The first input byte picks the decoder. Whatever the
// rest, each must return or fail: no panic, no allocation out of
// proportion to the input, an accepted frame is used up, an accepted
// grant names only own-range nodes, rebased to the local ids 0…7, an
// accepted boundary frame writes the shard's own staging range and
// nothing else, and an accepted halo frame fills the halo slots, one
// load each.
func FuzzRoundFlows(f *testing.F) {
	const p, lo, hi, halo = 3, 4, 12, 5
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
	// A grant that returns worker 1's own flows, which it must refuse.
	b.Reset()
	b.PutU32(p)
	for _, l := range [][]transport.Flow{nil, {{Node: 5, Amount: 1}}, nil} {
		b.PutFlows(l)
	}
	f.Add(append([]byte{2}, b.B...))
	b.Reset()
	b.PutI64s([]int64{0, 4, 9})
	b.PutU8(0)
	b.PutU32(p)
	for _, l := range wflows {
		b.PutWFlows(l)
	}
	f.Add(append([]byte{3}, b.B...))
	stats := WorkerStats{SnapshotNs: 1, DecideNs: 7, FlowsOut: 3, Conn: transport.ConnStats{FramesSent: 12, BytesRecv: 480}}
	b.Reset()
	b.PutU8(0)
	encodeWorkerStats(&b, stats)
	f.Add(append([]byte{4}, b.B...))
	b.Reset()
	b.PutU8(1)
	b.PutF64s([]float64{0.5, 1, 0, 2.25, 0, 0, 3, 0.125})
	encodeWorkerStats(&b, stats)
	f.Add(append([]byte{132}, b.B...))
	// Boundary loads: weighted (pick 5) and uniform (pick 6), then each
	// with its event report.
	loads := []float64{1.5, 0, 2}
	b.Reset()
	b.PutF64s(loads)
	f.Add(append([]byte{5}, b.B...))
	f.Add(append([]byte{6}, b.B...))
	b.PutU32(2)
	b.PutU32(5)
	b.PutF64s([]float64{0.5})
	b.PutU32(9)
	b.PutF64s([]float64{0.25, 1})
	f.Add(append([]byte{133}, b.B...))
	b.Reset()
	b.PutF64s(loads)
	b.PutI64(4)
	b.PutI64(1)
	f.Add(append([]byte{134}, b.B...))
	b.Reset()
	b.PutF64s([]float64{1, 2, 0, 0.5, 3})
	f.Add(append([]byte{7}, b.B...))
	f.Fuzz(func(t *testing.T, frame []byte) {
		if len(frame) == 0 {
			return
		}
		var b transport.Buffer
		b.Load(frame[1:])
		pick, high := frame[0]%8, frame[0] > 127
		fl, wl := make([][]transport.Flow, p), make([][]transport.WFlow, p)
		// The grant decoders write the receiving worker's column of
		// every source's flow lists.
		gf, gw := make([][][]transport.Flow, p), make([][][]transport.WFlow, p)
		for src := range gf {
			gf[src], gw[src] = make([][]transport.Flow, p), make([][]transport.WFlow, p)
		}
		// Shard 1 of the coordinator holds staging entries [2, 5); the
		// rest must keep the sentinel.
		c := &clusterCore{model: frame[0] % 2, p: p, bbase: []int{0, 2, 5, 6}, bstage: make([]float64, 6), evW: make([][][]float64, p)}
		for k := range c.bstage {
			c.bstage[k] = -1
		}
		hv := make([]float64, halo)
		var err error
		alloc := allocated(func() {
			switch pick {
			case 0, 1:
				_, err = decodeFlows(&b, []uint8{modelUniform, modelWeighted}[pick], fl, wl)
			case 2:
				err = decodeGrant(&b, 1, lo, hi, gf)
			case 3:
				_, _, err = decodeWGrant(&b, 2, lo, hi, nil, gw)
			case 4:
				var sum float64
				_, err = decodeStepDone(&b, high, hi-lo, &sum)
			case 5, 6:
				var led core.EventLedger
				err = c.decodeBoundary(1, &b, high, &led)
			default:
				err = decodeHalo(&b, hv)
			}
		})
		checkDecodeAlloc(t, "round frame", len(frame), alloc)
		if err != nil {
			return
		}
		if b.Remaining() != 0 {
			t.Fatalf("accepted a frame with %d bytes unread", b.Remaining())
		}
		switch pick {
		case 2, 3:
			for src := range gf {
				for _, f := range gf[src][1] {
					if f.Node < 0 || f.Node >= hi-lo {
						t.Fatalf("accepted grant names local node %d of an own range of %d", f.Node, hi-lo)
					}
				}
				for _, f := range gw[src][2] {
					if f.Dst < 0 || f.Dst >= hi-lo {
						t.Fatalf("accepted weighted grant names local node %d of an own range of %d", f.Dst, hi-lo)
					}
				}
			}
		case 5, 6:
			for k, v := range c.bstage {
				if (k < 2 || k >= 5) && v != -1 {
					t.Fatalf("accepted boundary frame of shard 1 wrote staging entry %d, outside its range [2, 5)", k)
				}
			}
		case 7:
			var e transport.Buffer
			e.PutF64s(hv)
			if !bytes.Equal(e.B, frame[1:]) {
				t.Fatalf("accepted halo frame %x left the %d halo slots holding %v", frame[1:], halo, hv)
			}
		}
	})
}

// frameCase is one valid frame and the decoder that reads it.
type frameCase struct {
	name   string
	frame  []byte
	decode func(b *transport.Buffer) error
}

// validFrames returns one valid frame of each kind, for both models
// where the layouts differ, with its decoder: P = 3, and worker 1 owns
// the range [4, 12), sends 3 boundary loads (staging entries [2, 5) at
// the coordinator) and has 5 halo slots.
func validFrames(t *testing.T) []frameCase {
	const p, own, lo, hi = 3, 1, 4, 12
	build := func(put func(b *transport.Buffer)) []byte {
		var b transport.Buffer
		put(&b)
		return b.B
	}
	column := func() ([][][]transport.Flow, [][][]transport.WFlow) {
		f, w := make([][][]transport.Flow, p), make([][][]transport.WFlow, p)
		for src := range f {
			f[src], w[src] = make([][]transport.Flow, p), make([][]transport.WFlow, p)
		}
		return f, w
	}
	boundary := func(model uint8, batch bool) func(b *transport.Buffer) error {
		return func(b *transport.Buffer) error {
			c := &clusterCore{model: model, p: p, bbase: []int{0, 2, 5, 6}, bstage: make([]float64, 6), evW: make([][][]float64, p)}
			var led core.EventLedger
			return c.decodeBoundary(own, b, batch, &led)
		}
	}
	batch := &core.EventBatch{
		Arrivals: make([]int64, 16), Departures: make([]int64, 16),
		WeightArrivals: make([][]float64, 16), WeightDepartures: make([]int64, 16),
	}
	batch.Arrivals[5], batch.WeightArrivals[4], batch.WeightDepartures[9] = 3, []float64{0.5}, 1
	stats := WorkerStats{DecideNs: 7, FlowsOut: 3}
	var cases []frameCase
	cfg := testConfigs(t)[0]
	cases = append(cases, frameCase{"config", build(func(b *transport.Buffer) { encodeConfig(b, cfg) }),
		func(b *transport.Buffer) error { _, err := decodeConfig(b); return err }})
	for _, model := range []uint8{modelUniform, modelWeighted} {
		m := []string{"uniform", "weighted"}[model]
		cases = append(cases,
			frameCase{m + "/round", build(func(b *transport.Buffer) { putRoundHeader(b, 3, false) }),
				func(b *transport.Buffer) error { _, _, _, err := decodeRound(b, model, lo, hi); return err }},
			frameCase{m + "/round-events", build(func(b *transport.Buffer) {
				putRoundHeader(b, 3, true)
				encodeEventSlice(b, model, batch, lo, hi)
			}), func(b *transport.Buffer) error { _, _, _, err := decodeRound(b, model, lo, hi); return err }},
			frameCase{m + "/boundary-loads", build(func(b *transport.Buffer) { b.PutF64s([]float64{1, 0, 2}) }), boundary(model, false)},
			frameCase{m + "/flows", build(func(b *transport.Buffer) {
				b.PutI64(2)
				b.PutU32(p)
				for d := 0; d < p; d++ {
					if model == modelUniform {
						b.PutFlows([]transport.Flow{{Node: 3, Amount: 2}})
					} else {
						b.PutWFlows([]transport.WFlow{{Dst: 3, G: 1, W: 0.5}})
					}
				}
			}), func(b *transport.Buffer) error {
				_, err := decodeFlows(b, model, make([][]transport.Flow, p), make([][]transport.WFlow, p))
				return err
			}},
			frameCase{m + "/state", build(func(b *transport.Buffer) {
				encodeOwnState(b, model, &ownState{Counts: []int64{1, 2}, SegLen: []int64{1, 0}, Segs: []float64{0.5}, NodeWeight: []float64{0.5, 0}})
			}), func(b *transport.Buffer) error { _, err := decodeStateFrame(b, model, 2); return err }},
		)
	}
	cases = append(cases,
		frameCase{"uniform/boundary-loads-report", build(func(b *transport.Buffer) {
			b.PutF64s([]float64{1, 0, 2})
			b.PutI64(4)
			b.PutI64(1)
		}), boundary(modelUniform, true)},
		frameCase{"weighted/boundary-loads-report", build(func(b *transport.Buffer) {
			b.PutF64s([]float64{1, 0, 2})
			b.PutU32(1)
			b.PutU32(9)
			b.PutF64s([]float64{0.25})
		}), boundary(modelWeighted, true)},
		frameCase{"halo-loads", build(func(b *transport.Buffer) { b.PutF64s([]float64{1, 2, 0, 0.5, 3}) }),
			func(b *transport.Buffer) error { return decodeHalo(b, make([]float64, 5)) }},
		frameCase{"uniform/grant", build(func(b *transport.Buffer) {
			b.PutU32(p)
			for src := 0; src < p; src++ {
				if src != own {
					b.PutFlows([]transport.Flow{{Node: 5, Amount: 1}})
				} else {
					b.PutFlows(nil)
				}
			}
		}), func(b *transport.Buffer) error { f, _ := column(); return decodeGrant(b, own, lo, hi, f) }},
		frameCase{"weighted/grant", build(func(b *transport.Buffer) {
			b.PutI64s([]int64{0, 2, 5})
			b.PutU8(1)
			b.PutU32(p)
			for src := 0; src < p; src++ {
				if src != own {
					b.PutWFlows([]transport.WFlow{{Dst: 11, G: 0, W: 1}})
				} else {
					b.PutWFlows(nil)
				}
			}
		}), func(b *transport.Buffer) error {
			_, w := column()
			_, _, err := decodeWGrant(b, own, lo, hi, nil, w)
			return err
		}},
		frameCase{"step-done", build(func(b *transport.Buffer) {
			b.PutU8(0)
			encodeWorkerStats(b, stats)
		}), func(b *transport.Buffer) error {
			var sum float64
			_, err := decodeStepDone(b, false, hi-lo, &sum)
			return err
		}},
		frameCase{"step-done-refold", build(func(b *transport.Buffer) {
			b.PutU8(1)
			b.PutF64s(make([]float64, hi-lo))
			encodeWorkerStats(b, stats)
		}), func(b *transport.Buffer) error {
			var sum float64
			_, err := decodeStepDone(b, true, hi-lo, &sum)
			return err
		}},
	)
	return cases
}

// TestFrameDecodersRefuseTrailingBytes: every frame decoder uses up its
// frame. One valid frame of each kind decodes, and the same frame with
// 8 bytes appended is refused with an error that counts them, which
// the coordinator turns into a barrier error naming the worker and the
// phase, or which ends the worker's session.
func TestFrameDecodersRefuseTrailingBytes(t *testing.T) {
	for _, tc := range validFrames(t) {
		var b transport.Buffer
		b.Load(tc.frame)
		if err := tc.decode(&b); err != nil {
			t.Errorf("%s: the valid frame was refused: %v", tc.name, err)
			continue
		}
		b.Load(append(append([]byte(nil), tc.frame...), 1, 2, 3, 4, 5, 6, 7, 8))
		if err := tc.decode(&b); err == nil || !strings.Contains(err.Error(), "8 trailing bytes") {
			t.Errorf("%s: with 8 trailing bytes, the decoder returned %v, want a refusal naming them", tc.name, err)
		}
	}
}

// TestGrantRefusesOwnFlows: a grant carries one flow list from each
// shard, and the one from the receiving worker to itself must be empty,
// since a worker's intra-shard moves never leave it. A grant that
// returns any of them is refused, for either model.
func TestGrantRefusesOwnFlows(t *testing.T) {
	const p, own, lo, hi = 3, 1, 4, 12
	for _, tc := range []struct {
		name   string
		put    func(b *transport.Buffer)
		decode func(b *transport.Buffer) error
	}{
		{"uniform", func(b *transport.Buffer) {
			b.PutU32(p)
			for range p {
				b.PutFlows([]transport.Flow{{Node: 5, Amount: 1}})
			}
		}, func(b *transport.Buffer) error {
			out := make([][][]transport.Flow, p)
			for src := range out {
				out[src] = make([][]transport.Flow, p)
			}
			return decodeGrant(b, own, lo, hi, out)
		}},
		{"weighted", func(b *transport.Buffer) {
			b.PutI64s([]int64{0, 1, 2})
			b.PutU8(0)
			b.PutU32(p)
			for range p {
				b.PutWFlows([]transport.WFlow{{Dst: 5, G: 0, W: 0.5}})
			}
		}, func(b *transport.Buffer) error {
			out := make([][][]transport.WFlow, p)
			for src := range out {
				out[src] = make([][]transport.WFlow, p)
			}
			_, _, err := decodeWGrant(b, own, lo, hi, nil, out)
			return err
		}},
	} {
		var b transport.Buffer
		tc.put(&b)
		b.Load(b.B)
		if err := tc.decode(&b); err == nil || !strings.Contains(err.Error(), "grant returns 1 of worker 1's own flows") {
			t.Errorf("%s: a grant returning worker 1's own flow decoded with %v, want a refusal", tc.name, err)
		}
	}
}

// putRoundHeader writes the fields of a round frame that precede its
// event slice: round r, the five stream words and the event flag.
func putRoundHeader(b *transport.Buffer, r uint64, events bool) {
	b.PutU64(r)
	for _, w := range rng.New(r).Words() {
		b.PutU64(w)
	}
	if events {
		b.PutU8(1)
	} else {
		b.PutU8(0)
	}
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
