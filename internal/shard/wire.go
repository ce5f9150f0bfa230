package shard

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/transport"
)

// Wire-level payload encodings shared by the cluster coordinator
// (cluster.go) and the shard worker (worker.go). Everything is built on
// transport.Buffer primitives; floats travel as IEEE bit patterns so
// state round-trips bit-exactly.

const (
	modelUniform  uint8 = 0
	modelWeighted uint8 = 1
)

// instanceWire is the static instance as a config frame and an LBCK v2
// checkpoint carry it. A graph that a generator built travels as its
// descriptor, node count and CSR digest, and the receiver rebuilds it; a
// graph without a descriptor travels as its explicit CSR arrays, which
// the receiver revalidates. Speeds and λ₂ always travel as values, so
// the receiver reconstructs the core.System without an eigensolve.
//
// Layout: name, n, family (u8), then offsets and adjacency for
// graph.Explicit or the two parameters and the digest (u32 each)
// otherwise, then speeds and λ₂. LBCK v1 has no family byte and always
// the explicit arrays.
type instanceWire struct {
	Name    string
	N       int
	Desc    graph.Descriptor
	Digest  uint32  // descriptor form
	Offsets []int32 // explicit form
	Adj     []int32 // explicit form
	Speeds  []float64
	Lambda2 float64
}

// wireWriter is where the shared encoders write: a transport.Buffer for
// frames, or the streaming checkpointWriter.
type wireWriter interface {
	PutU8(uint8)
	PutU32(uint32)
	PutF64(float64)
	PutString(string)
	PutI32s([]int32)
	PutI64s([]int64)
	PutF64s([]float64)
}

func (w *instanceWire) encode(b wireWriter) {
	b.PutString(w.Name)
	b.PutU32(uint32(w.N))
	b.PutU8(uint8(w.Desc.Family))
	if w.Desc.Family == graph.Explicit {
		b.PutI32s(w.Offsets)
		b.PutI32s(w.Adj)
	} else {
		b.PutU32(uint32(w.Desc.Params[0]))
		b.PutU32(uint32(w.Desc.Params[1]))
		b.PutU32(w.Digest)
	}
	b.PutF64s(w.Speeds)
	b.PutF64(w.Lambda2)
}

// encodedSize is the exact length of w's encoding.
func (w *instanceWire) encodedSize() int {
	size := 4 + len(w.Name) + 4 + 1 + 4 + 8*len(w.Speeds) + 8
	if w.Desc.Family == graph.Explicit {
		return size + 4 + 4*len(w.Offsets) + 4 + 4*len(w.Adj)
	}
	return size + 3*4
}

// decodeInstance reads an instanceWire; v1 reads the LBCK v1 layout. It
// allocates no more than the input holds and never builds the graph: n
// must equal the number of stored speeds, and a descriptor must describe
// exactly n nodes within the int32 offsets (graph.Descriptor.Nodes).
func decodeInstance(b *transport.Buffer, v1 bool) (instanceWire, error) {
	var w instanceWire
	var err error
	if w.Name, err = b.String(); err != nil {
		return w, err
	}
	n, err := b.U32()
	if err != nil {
		return w, err
	}
	w.N = int(n)
	if !v1 {
		fam, err := b.U8()
		if err != nil {
			return w, err
		}
		w.Desc.Family = graph.Family(fam)
	}
	if w.Desc.Family == graph.Explicit {
		if w.Offsets, err = b.I32s(nil); err != nil {
			return w, err
		}
		if len(w.Offsets) != w.N+1 {
			return w, fmt.Errorf("%d CSR offsets for %d nodes", len(w.Offsets), w.N)
		}
		if w.Adj, err = b.I32s(nil); err != nil {
			return w, err
		}
	} else {
		for k := range w.Desc.Params {
			v, err := b.U32()
			if err != nil {
				return w, err
			}
			w.Desc.Params[k] = int(v)
		}
		if w.Digest, err = b.U32(); err != nil {
			return w, err
		}
	}
	if w.Speeds, err = b.F64s(nil); err != nil {
		return w, err
	}
	if len(w.Speeds) != w.N {
		return w, fmt.Errorf("%d speeds for %d nodes", len(w.Speeds), w.N)
	}
	if w.Desc.Family != graph.Explicit {
		dn, err := w.Desc.Nodes()
		if err != nil {
			return w, fmt.Errorf("graph %s: %w", w.Name, err)
		}
		if dn != w.N {
			return w, fmt.Errorf("graph %s: descriptor builds %d nodes, not %d", w.Name, dn, w.N)
		}
	}
	w.Lambda2, err = b.F64()
	return w, err
}

// system rebuilds the instance's core.System. A descriptor graph is
// rebuilt through its generator and refused unless its node count and
// digest equal the sender's; an explicit one is revalidated by
// graph.NewCSR. The error names the graph either way.
func (w *instanceWire) system() (*core.System, error) {
	var csr *graph.CSR
	var err error
	if w.Desc.Family == graph.Explicit {
		csr, err = graph.NewCSR(w.Name, w.N, w.Offsets, w.Adj)
	} else if csr, err = graph.FromDescriptor(w.Desc); err == nil {
		if got := csr.Digest(); csr.N() != w.N || got != w.Digest {
			err = fmt.Errorf("rebuilt %d nodes with digest %#08x, sender has %d nodes with digest %#08x", csr.N(), got, w.N, w.Digest)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("graph %s: %w", w.Name, err)
	}
	return core.NewSystem(csr.Graph(), machine.Speeds(w.Speeds), core.WithLambda2(w.Lambda2))
}

// clusterConfig is the session-start frame: the instance a worker needs
// to build its engine, plus the initial (or restored) state of the
// worker's own index range only. A worker never holds another shard's
// tasks — decisions and commits touch only its own range, and foreign
// loads arrive per round through the halo exchange — so shipping (or
// retaining) out-of-range state would be a dead buffer. Lo anchors the
// range; its length is implied by the state vectors.
type clusterConfig struct {
	Model    uint8
	Proto    string  // registered protocol name
	Alpha    float64 // protocol damping (0 means default)
	P        int
	Shard    int // this worker's shard index
	Lo       int // first vertex of the worker's own range
	Strategy string

	Instance instanceWire

	// Own-range state. Uniform: Counts. Weighted: per-node segment
	// lengths plus the concatenated segment contents (the ownState
	// layout); when Restored, NodeWeight carries the checkpointed
	// cached per-node sums (which drift from the exact folds between
	// periodic recomputes and so cannot be recomputed from Segs).
	Counts     []int64
	SegLen     []int64
	Segs       []float64
	Restored   bool
	NodeWeight []float64
}

// encodedSize is the exact length of c's encodeConfig encoding, so the
// coordinator can size a config frame's buffer once instead of growing
// it by appends.
func (c *clusterConfig) encodedSize() int {
	size := 1 + 4 + len(c.Proto) + 8 + 3*4 + 4 + len(c.Strategy) + c.Instance.encodedSize() + 1
	if c.Model == modelUniform {
		return size + 4 + 8*len(c.Counts)
	}
	size += 4 + 8*len(c.SegLen) + 4 + 8*len(c.Segs)
	if c.Restored {
		size += 4 + 8*len(c.NodeWeight)
	}
	return size
}

func encodeConfig(b *transport.Buffer, c *clusterConfig) {
	b.PutU8(c.Model)
	b.PutString(c.Proto)
	b.PutF64(c.Alpha)
	b.PutU32(uint32(c.P))
	b.PutU32(uint32(c.Shard))
	b.PutU32(uint32(c.Lo))
	b.PutString(c.Strategy)
	c.Instance.encode(b)
	if c.Model == modelUniform {
		b.PutI64s(c.Counts)
	} else {
		b.PutI64s(c.SegLen)
		b.PutF64s(c.Segs)
	}
	if c.Restored {
		b.PutU8(1)
		if c.Model == modelWeighted {
			b.PutF64s(c.NodeWeight)
		}
	} else {
		b.PutU8(0)
	}
}

// decodeConfig decodes a config frame. Like decodeInstance it allocates
// in proportion to the frame and builds nothing; the shard count is held
// to [1, n], which the stored speeds bound.
func decodeConfig(b *transport.Buffer) (*clusterConfig, error) {
	c := &clusterConfig{}
	var err error
	read := func(f func() error) {
		if err == nil {
			err = f()
		}
	}
	read(func() (e error) { c.Model, e = b.U8(); return })
	read(func() (e error) { c.Proto, e = b.String(); return })
	read(func() (e error) { c.Alpha, e = b.F64(); return })
	read(func() (e error) { v, e := b.U32(); c.P = int(v); return e })
	read(func() (e error) { v, e := b.U32(); c.Shard = int(v); return e })
	read(func() (e error) { v, e := b.U32(); c.Lo = int(v); return e })
	read(func() (e error) { c.Strategy, e = b.String(); return })
	read(func() (e error) { c.Instance, e = decodeInstance(b, false); return })
	read(func() error {
		if c.P < 1 || c.P > c.Instance.N || c.Shard >= c.P {
			return fmt.Errorf("shard %d of %d for %d nodes", c.Shard, c.P, c.Instance.N)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("shard: decode cluster config: %w", err)
	}
	if c.Model == modelUniform {
		read(func() (e error) { c.Counts, e = b.I64s(nil); return })
	} else {
		read(func() (e error) { c.SegLen, e = b.I64s(nil); return })
		read(func() (e error) { c.Segs, e = b.F64s(nil); return })
	}
	read(func() (e error) {
		v, e := b.U8()
		c.Restored = v != 0
		return e
	})
	if err == nil && c.Restored && c.Model == modelWeighted {
		c.NodeWeight, err = b.F64s(nil)
	}
	if err != nil {
		return nil, fmt.Errorf("shard: decode cluster config: %w", err)
	}
	return c, nil
}

// encodeEventSlice writes the [lo,hi) slice of an event batch: sparse
// (node, payload) entries in ascending node order.
func encodeEventSlice(b *transport.Buffer, model uint8, batch *core.EventBatch, lo, hi int) {
	if model == modelUniform {
		putSparseI64 := func(v []int64) {
			cnt := uint32(0)
			for i := lo; i < hi && len(v) != 0; i++ {
				if v[i] != 0 {
					cnt++
				}
			}
			b.PutU32(cnt)
			for i := lo; i < hi && len(v) != 0; i++ {
				if v[i] != 0 {
					b.PutU32(uint32(i))
					b.PutI64(v[i])
				}
			}
		}
		putSparseI64(batch.Arrivals)
		putSparseI64(batch.Departures)
		return
	}
	cnt := uint32(0)
	for i := lo; i < hi && len(batch.WeightArrivals) != 0; i++ {
		if len(batch.WeightArrivals[i]) != 0 {
			cnt++
		}
	}
	b.PutU32(cnt)
	for i := lo; i < hi && len(batch.WeightArrivals) != 0; i++ {
		if ws := batch.WeightArrivals[i]; len(ws) != 0 {
			b.PutU32(uint32(i))
			b.PutF64s(ws)
		}
	}
	cnt = 0
	for i := lo; i < hi && len(batch.WeightDepartures) != 0; i++ {
		if batch.WeightDepartures[i] != 0 {
			cnt++
		}
	}
	b.PutU32(cnt)
	for i := lo; i < hi && len(batch.WeightDepartures) != 0; i++ {
		if k := batch.WeightDepartures[i]; k != 0 {
			b.PutU32(uint32(i))
			b.PutI64(k)
		}
	}
}

// decodeEventSlice rebuilds a full-length event batch whose entries
// outside the worker's range are zero.
func decodeEventSlice(b *transport.Buffer, model uint8, n int) (*core.EventBatch, error) {
	batch := &core.EventBatch{}
	if model == modelUniform {
		readSparse := func() ([]int64, error) {
			cnt, err := b.U32()
			if err != nil {
				return nil, err
			}
			if cnt == 0 {
				return nil, nil
			}
			v := make([]int64, n)
			for j := uint32(0); j < cnt; j++ {
				i, err := b.U32()
				if err != nil {
					return nil, err
				}
				k, err := b.I64()
				if err != nil {
					return nil, err
				}
				if int(i) >= n {
					return nil, fmt.Errorf("shard: event node %d of %d", i, n)
				}
				v[i] = k
			}
			return v, nil
		}
		var err error
		if batch.Arrivals, err = readSparse(); err != nil {
			return nil, err
		}
		if batch.Departures, err = readSparse(); err != nil {
			return nil, err
		}
		return batch, nil
	}
	cnt, err := b.U32()
	if err != nil {
		return nil, err
	}
	if cnt > 0 {
		batch.WeightArrivals = make([][]float64, n)
	}
	for j := uint32(0); j < cnt; j++ {
		i, err := b.U32()
		if err != nil {
			return nil, err
		}
		ws, err := b.F64s(nil)
		if err != nil {
			return nil, err
		}
		if int(i) >= n {
			return nil, fmt.Errorf("shard: event node %d of %d", i, n)
		}
		batch.WeightArrivals[i] = ws
	}
	cnt, err = b.U32()
	if err != nil {
		return nil, err
	}
	if cnt > 0 {
		batch.WeightDepartures = make([]int64, n)
	}
	for j := uint32(0); j < cnt; j++ {
		i, err := b.U32()
		if err != nil {
			return nil, err
		}
		k, err := b.I64()
		if err != nil {
			return nil, err
		}
		if int(i) >= n {
			return nil, fmt.Errorf("shard: event node %d of %d", i, n)
		}
		batch.WeightDepartures[i] = k
	}
	return batch, nil
}

// ownState is a worker's own-range state: the payload of KindState
// frames and the body of shard checkpoint files. Uniform: Counts.
// Weighted: per-node segment lengths, the concatenated segment
// contents, and the cached (drifting) per-node weight sums.
type ownState struct {
	Counts     []int64
	SegLen     []int64
	Segs       []float64
	NodeWeight []float64
}

func encodeOwnState(b wireWriter, model uint8, st *ownState) {
	if model == modelUniform {
		b.PutI64s(st.Counts)
		return
	}
	b.PutI64s(st.SegLen)
	b.PutF64s(st.Segs)
	b.PutF64s(st.NodeWeight)
}

func decodeOwnState(b *transport.Buffer, model uint8) (*ownState, error) {
	st := &ownState{}
	var err error
	if model == modelUniform {
		st.Counts, err = b.I64s(nil)
		return st, err
	}
	if st.SegLen, err = b.I64s(nil); err != nil {
		return nil, err
	}
	if st.Segs, err = b.F64s(nil); err != nil {
		return nil, err
	}
	if st.NodeWeight, err = b.F64s(nil); err != nil {
		return nil, err
	}
	return st, nil
}

// protoSpec extracts the wire (name, alpha) pair for a protocol the
// cluster can ship to workers. Only the paper's two algorithms are
// registered; anything else cannot cross the process boundary.
func protoSpec(proto any) (string, float64, error) {
	switch p := proto.(type) {
	case core.Algorithm1:
		return "algorithm1", p.Alpha, nil
	case core.Algorithm2:
		return "algorithm2", p.Alpha, nil
	}
	return "", 0, fmt.Errorf("shard: protocol %T is not registered for cluster execution (want core.Algorithm1 or core.Algorithm2)", proto)
}
