package shard

import (
	"fmt"

	"repro/internal/core"
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

// clusterConfig is the session-start frame: the full instance
// description a worker needs to build its engine, plus the initial (or
// restored) state of the worker's own index range only. A worker never
// holds another shard's tasks — decisions and commits touch only its
// own range, and foreign loads arrive per round through the halo
// exchange — so shipping (or retaining) out-of-range state would be a
// dead buffer. Lo anchors the range; its length is implied by the
// state vectors.
type clusterConfig struct {
	Model    uint8
	Proto    string  // registered protocol name
	Alpha    float64 // protocol damping (0 means default)
	P        int
	Shard    int // this worker's shard index
	Lo       int // first vertex of the worker's own range
	Strategy string

	// Instance: CSR + speeds + λ₂ reconstruct the core.System without
	// an eigensolve.
	CSRName string
	N       int
	Offsets []int32
	Adj     []int32
	Speeds  []float64
	Lambda2 float64

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
	size := 1 + 4 + len(c.Proto) + 8 + 3*4 + 4 + len(c.Strategy) + 4 + len(c.CSRName) + 4 +
		4 + 4*len(c.Offsets) + 4 + 4*len(c.Adj) + 4 + 8*len(c.Speeds) + 8 + 1
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
	b.PutString(c.CSRName)
	b.PutU32(uint32(c.N))
	b.PutI32s(c.Offsets)
	b.PutI32s(c.Adj)
	b.PutF64s(c.Speeds)
	b.PutF64(c.Lambda2)
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
	read(func() (e error) { c.CSRName, e = b.String(); return })
	read(func() (e error) { v, e := b.U32(); c.N = int(v); return e })
	read(func() (e error) { c.Offsets, e = b.I32s(nil); return })
	read(func() (e error) { c.Adj, e = b.I32s(nil); return })
	read(func() (e error) { c.Speeds, e = b.F64s(nil); return })
	read(func() (e error) { c.Lambda2, e = b.F64(); return })
	if err != nil {
		return nil, err
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

// arrayWriter is where encodeOwnState writes: a transport.Buffer for
// state frames, or the streaming checkpointWriter.
type arrayWriter interface {
	PutI64s([]int64)
	PutF64s([]float64)
}

func encodeOwnState(b arrayWriter, model uint8, st *ownState) {
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
