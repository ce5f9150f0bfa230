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
// state round-trips bit-exactly. Every frame decoder uses up its frame:
// layouts are private to one build, so bytes left over mean a peer from
// another source or a corrupt frame, and noTrailing refuses them.

// noTrailing refuses a frame that holds bytes past its last field.
func noTrailing(b *transport.Buffer) error {
	if n := b.Remaining(); n != 0 {
		return fmt.Errorf("%d trailing bytes", n)
	}
	return nil
}

const (
	modelUniform  uint8 = 0
	modelWeighted uint8 = 1
)

// instanceWire is the static instance as an LBCK v2 checkpoint carries
// it (a config frame carries only one worker's window of it, see
// windowWire). A graph that a generator built travels as its descriptor,
// node count and CSR digest, and resume rebuilds it; a graph without a
// descriptor travels as its explicit CSR arrays, which resume
// revalidates. Speeds and λ₂ always travel as values, so resume
// reconstructs the core.System without an eigensolve.
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

// windowWire is the instance as one worker holds it, the config frame's
// instance: the graph's name and node count, the worker's own rows, the
// instance-wide Δ and s_max, and the speeds of its own rows and of its
// halo, with each halo node's degree. Rows that a generator built travel
// as the descriptor plus the digest of those rows (graph.CSR.RowsDigest),
// and the worker rebuilds only them; rows without a descriptor travel as
// the rows themselves, rebased offsets and global-id adjacency, and the
// worker revalidates them. Halo entries follow the partition's halo-slot
// order, ascending global id, which the worker derives from its rows.
//
// Layout: name, n, family (u8), then offsets and adjacency for
// graph.Explicit or the two parameters and the rows digest (u32 each)
// otherwise, then Δ (u32), s_max, own speeds, halo speeds and halo
// degrees. The layout is private to one build: coordinator and workers
// must come from the same source, and checkpoints never carry it.
type windowWire struct {
	Name       string
	N          int
	Desc       graph.Descriptor
	Digest     uint32  // descriptor form: digest of the own rows
	Offsets    []int32 // explicit form: own rows, rebased
	Adj        []int32 // explicit form: own rows, global ids
	MaxDeg     int
	SMax       float64
	Speeds     []float64 // own rows
	HaloSpeeds []float64 // halo slots
	HaloDeg    []int32   // halo slots
}

func (w *windowWire) encode(b *transport.Buffer) {
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
	b.PutU32(uint32(w.MaxDeg))
	b.PutF64(w.SMax)
	b.PutF64s(w.Speeds)
	b.PutF64s(w.HaloSpeeds)
	b.PutI32s(w.HaloDeg)
}

// encodedSize is the exact length of w's encoding.
func (w *windowWire) encodedSize() int {
	size := 4 + len(w.Name) + 4 + 1 + 4 + 8 + 3*4 + 8*(len(w.Speeds)+len(w.HaloSpeeds)) + 4*len(w.HaloDeg)
	if w.Desc.Family == graph.Explicit {
		return size + 4 + 4*len(w.Offsets) + 4 + 4*len(w.Adj)
	}
	return size + 3*4
}

// decodeWindow reads a windowWire. Like decodeInstance it allocates no
// more than the input holds and builds nothing; a descriptor must
// describe exactly n nodes. decodeConfig checks the arrays against the
// own range.
func decodeWindow(b *transport.Buffer) (windowWire, error) {
	var w windowWire
	var err error
	read := func(f func() error) {
		if err == nil {
			err = f()
		}
	}
	read(func() (e error) { w.Name, e = b.String(); return })
	read(func() (e error) { v, e := b.U32(); w.N = int(v); return e })
	read(func() (e error) { v, e := b.U8(); w.Desc.Family = graph.Family(v); return e })
	if err != nil {
		return w, err
	}
	if w.Desc.Family == graph.Explicit {
		read(func() (e error) { w.Offsets, e = b.I32s(nil); return })
		read(func() (e error) { w.Adj, e = b.I32s(nil); return })
	} else {
		for k := range w.Desc.Params {
			read(func() (e error) { v, e := b.U32(); w.Desc.Params[k] = int(v); return e })
		}
		read(func() (e error) { w.Digest, e = b.U32(); return })
		read(func() error {
			dn, err := w.Desc.Nodes()
			if err != nil {
				return fmt.Errorf("graph %s: %w", w.Name, err)
			}
			if dn != w.N {
				return fmt.Errorf("graph %s: descriptor builds %d nodes, not %d", w.Name, dn, w.N)
			}
			return nil
		})
	}
	read(func() (e error) { v, e := b.U32(); w.MaxDeg = int(v); return e })
	read(func() (e error) { w.SMax, e = b.F64(); return })
	read(func() (e error) { w.Speeds, e = b.F64s(nil); return })
	read(func() (e error) { w.HaloSpeeds, e = b.F64s(nil); return })
	read(func() (e error) { w.HaloDeg, e = b.I32s(nil); return })
	return w, err
}

// clusterConfig is the session-start frame: the cut points of the
// partition, the worker's window of the instance, and the initial (or
// restored) state of the worker's own range only. A worker never holds
// another shard's rows or tasks — decisions and commits touch only its
// own range, and its halo's loads arrive per round — so shipping (or
// retaining) anything else would be a dead buffer.
type clusterConfig struct {
	Model uint8
	Proto string  // registered protocol name
	Alpha float64 // protocol damping (0 means default)
	Shard int     // this worker's shard index
	// Cuts holds the P+1 cut points: shard s owns the global ids
	// [Cuts[s], Cuts[s+1]).
	Cuts []int32

	Window windowWire

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

// P returns the number of shards.
func (c *clusterConfig) P() int { return len(c.Cuts) - 1 }

// ownRange returns the worker's global id range.
func (c *clusterConfig) ownRange() (lo, hi int) {
	return int(c.Cuts[c.Shard]), int(c.Cuts[c.Shard+1])
}

// encodedSize is the exact length of c's encodeConfig encoding, so the
// coordinator can size a config frame's buffer once instead of growing
// it by appends.
func (c *clusterConfig) encodedSize() int {
	size := 1 + 4 + len(c.Proto) + 8 + 4 + 4 + 4*len(c.Cuts) + c.Window.encodedSize() + 1
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
	b.PutU32(uint32(c.Shard))
	b.PutI32s(c.Cuts)
	c.Window.encode(b)
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
// in proportion to the frame and builds nothing. It refuses cut points
// that are not 0 = c₀ < c₁ < … < c_P = n with the shard in [0, P), and
// own-range arrays — explicit rows, own speeds, state — that do not
// cover exactly the shard's range; the halo arrays must agree in length
// and fit beside it.
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
	read(func() (e error) { v, e := b.U32(); c.Shard = int(v); return e })
	read(func() (e error) { c.Cuts, e = b.I32s(nil); return })
	read(func() (e error) { c.Window, e = decodeWindow(b); return })
	read(c.checkCuts)
	var m int
	read(func() error {
		lo, hi := c.ownRange()
		m = hi - lo
		w := &c.Window
		if w.Desc.Family == graph.Explicit && len(w.Offsets) != m+1 {
			return fmt.Errorf("%d row offsets for range [%d,%d)", len(w.Offsets), lo, hi)
		}
		if len(w.Speeds) != m {
			return fmt.Errorf("%d speeds for range [%d,%d)", len(w.Speeds), lo, hi)
		}
		if len(w.HaloSpeeds) != len(w.HaloDeg) || len(w.HaloDeg) > w.N-m {
			return fmt.Errorf("%d halo speeds and %d halo degrees beside %d of %d nodes", len(w.HaloSpeeds), len(w.HaloDeg), m, w.N)
		}
		return nil
	})
	if c.Model == modelUniform {
		read(func() (e error) { c.Counts, e = b.I64s(nil); return })
		read(func() error { return checkLen("counts", len(c.Counts), m) })
	} else {
		read(func() (e error) { c.SegLen, e = b.I64s(nil); return })
		read(func() (e error) { c.Segs, e = b.F64s(nil); return })
		read(func() error { return checkLen("segment lengths", len(c.SegLen), m) })
	}
	read(func() (e error) {
		v, e := b.U8()
		c.Restored = v != 0
		return e
	})
	if c.Restored && c.Model == modelWeighted {
		read(func() (e error) { c.NodeWeight, e = b.F64s(nil); return })
		read(func() error { return checkLen("restored weight sums", len(c.NodeWeight), m) })
	}
	read(func() error { return noTrailing(b) })
	if err != nil {
		return nil, fmt.Errorf("shard: decode cluster config: %w", err)
	}
	return c, nil
}

// checkCuts holds the cut points to 0 = c₀ < c₁ < … < c_P = n and the
// shard to [0, P).
func (c *clusterConfig) checkCuts() error {
	p, n := c.P(), c.Window.N
	if p < 1 || c.Shard >= p {
		return fmt.Errorf("shard %d of %d for %d nodes", c.Shard, max(p, 0), n)
	}
	if c.Cuts[0] != 0 || int(c.Cuts[p]) != n {
		return fmt.Errorf("cut points span [%d,%d), not the %d nodes", c.Cuts[0], c.Cuts[p], n)
	}
	for s := 0; s < p; s++ {
		if c.Cuts[s] >= c.Cuts[s+1] {
			return fmt.Errorf("cut points %d and %d leave shard %d empty", c.Cuts[s], c.Cuts[s+1], s)
		}
	}
	return nil
}

// checkLen refuses an own-range array of another length than the range.
func checkLen(what string, got, want int) error {
	if got != want {
		return fmt.Errorf("%d %s for a range of %d", got, what, want)
	}
	return nil
}

// build rebuilds the worker's window of the instance from a decoded
// config: its own rows — regenerated from the descriptor and refused
// unless their digest is the sender's, or the shipped rows, revalidated
// — rewritten into the local id space, the window partition over that
// space, and the window System the decide kernels run on. The error
// names the graph.
func (c *clusterConfig) build() (*core.System, *Partition, error) {
	w := &c.Window
	lo, hi := c.ownRange()
	var rows graph.Rows
	var err error
	if w.Desc.Family == graph.Explicit {
		rows = graph.Rows{Lo: lo, Offsets: w.Offsets, Adj: w.Adj}
		err = rows.Validate(w.N)
	} else if rows, err = w.Desc.Rows(lo, hi); err == nil {
		if got := rows.Digest(); got != w.Digest {
			err = fmt.Errorf("rebuilt rows [%d,%d) with digest %#08x, sender has digest %#08x", lo, hi, got, w.Digest)
		}
	}
	if err != nil {
		return nil, nil, fmt.Errorf("graph %s: %w", w.Name, err)
	}
	part := newWindowPartition(rows, c.Cuts, c.Shard)
	if h := len(part.Halo(c.Shard)); h != len(w.HaloDeg) {
		return nil, nil, fmt.Errorf("graph %s: rows [%d,%d) have %d halo nodes, sender has %d", w.Name, lo, hi, h, len(w.HaloDeg))
	}
	sys, err := core.NewWindowSystem(rows.Window(w.Name), w.Speeds, w.HaloSpeeds, w.HaloDeg, w.MaxDeg, w.SMax)
	if err != nil {
		return nil, nil, fmt.Errorf("graph %s: %w", w.Name, err)
	}
	return sys, part, nil
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

// decodeRound reads a round frame at the worker whose own range is
// [lo, hi): the round, the five state words of its stream
// (rng.StreamFromWords), the event flag and, when the flag is set, the
// worker's event slice, which ends the frame. batch is nil when no
// batch rides the round.
func decodeRound(b *transport.Buffer, model uint8, lo, hi int) (r uint64, words [5]uint64, batch *core.EventBatch, err error) {
	if r, err = b.U64(); err != nil {
		return 0, words, nil, err
	}
	for i := range words {
		if words[i], err = b.U64(); err != nil {
			return 0, words, nil, err
		}
	}
	flag, err := b.U8()
	if err != nil {
		return 0, words, nil, err
	}
	if flag != 0 {
		if batch, err = decodeEventSlice(b, model, lo, hi); err != nil {
			return 0, words, nil, err
		}
	}
	return r, words, batch, noTrailing(b)
}

// decodeEventSlice rebuilds a worker's slice of an event batch as
// own-range arrays: entry i−lo holds node i's events, for i in [lo, hi).
// An entry outside the range is refused. The arrays are sized by the
// range, never by n.
func decodeEventSlice(b *transport.Buffer, model uint8, lo, hi int) (*core.EventBatch, error) {
	batch := &core.EventBatch{}
	// node reads one entry's node id as an index into the own range.
	node := func() (int, error) {
		i, err := b.U32()
		if err != nil {
			return 0, err
		}
		if int64(i) < int64(lo) || int64(i) >= int64(hi) {
			return 0, fmt.Errorf("shard: event node %d outside own range [%d,%d)", i, lo, hi)
		}
		return int(i) - lo, nil
	}
	if model == modelUniform {
		readSparse := func() ([]int64, error) {
			cnt, err := b.U32()
			if err != nil || cnt == 0 {
				return nil, err
			}
			v := make([]int64, hi-lo)
			for j := uint32(0); j < cnt; j++ {
				k, err := node()
				if err != nil {
					return nil, err
				}
				if v[k], err = b.I64(); err != nil {
					return nil, err
				}
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
		batch.WeightArrivals = make([][]float64, hi-lo)
	}
	for j := uint32(0); j < cnt; j++ {
		k, err := node()
		if err != nil {
			return nil, err
		}
		if batch.WeightArrivals[k], err = b.F64s(nil); err != nil {
			return nil, err
		}
	}
	if cnt, err = b.U32(); err != nil {
		return nil, err
	}
	if cnt > 0 {
		batch.WeightDepartures = make([]int64, hi-lo)
	}
	for j := uint32(0); j < cnt; j++ {
		k, err := node()
		if err != nil {
			return nil, err
		}
		if batch.WeightDepartures[k], err = b.I64(); err != nil {
			return nil, err
		}
	}
	return batch, nil
}

// ownState is a worker's own-range state: the payload of KindState
// frames, for state gathers and checkpoints alike, and the body of
// shard checkpoint files. Uniform: Counts.
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

// decodeStateFrame reads a worker's state frame, which must cover its
// own range of m nodes and end there.
func decodeStateFrame(b *transport.Buffer, model uint8, m int) (*ownState, error) {
	st, err := decodeOwnState(b, model)
	if err != nil {
		return nil, err
	}
	if model == modelUniform {
		if len(st.Counts) != m {
			return nil, fmt.Errorf("sent %d counts for range of %d", len(st.Counts), m)
		}
	} else if len(st.SegLen) != m || len(st.NodeWeight) != m {
		return nil, fmt.Errorf("sent state sized %d/%d for range of %d", len(st.SegLen), len(st.NodeWeight), m)
	}
	if err := noTrailing(b); err != nil {
		return nil, err
	}
	return st, nil
}

// decodeFlows reads a worker's flows frame: its move count, then its
// flow list to each shard, uniform lists into f and weighted ones into
// w, reusing their capacity. f and w have one entry per shard, and the
// frame must carry exactly that many lists.
func decodeFlows(b *transport.Buffer, model uint8, f [][]transport.Flow, w [][]transport.WFlow) (int64, error) {
	moves, err := b.I64()
	if err != nil {
		return 0, err
	}
	p, err := b.U32()
	if err != nil {
		return 0, err
	}
	if int64(p) != int64(len(f)) {
		return 0, fmt.Errorf("sent %d flow lists for %d shards", p, len(f))
	}
	for d := range f {
		if model == modelUniform {
			f[d], err = b.Flows(f[d][:0])
		} else {
			w[d], err = b.WFlows(w[d][:0])
		}
		if err != nil {
			return 0, err
		}
	}
	return moves, noTrailing(b)
}

// decodeGrant reads a uniform grant frame at worker own, whose range is
// [lo, hi): one flow list from each shard src, decoded into the engine's
// own column, out[src][own], reusing its capacity. Every destination
// must lie in [lo, hi) and is rebased to its local id. The list from
// own itself must be empty (grantOwnList), and out[own] is not written.
func decodeGrant(b *transport.Buffer, own, lo, hi int, out [][][]transport.Flow) error {
	if err := grantShards(b, len(out)); err != nil {
		return err
	}
	for src := range out {
		if src == own {
			if err := grantOwnList(b, own); err != nil {
				return err
			}
			continue
		}
		l, err := b.Flows(out[src][own][:0])
		if err != nil {
			return err
		}
		for k := range l {
			if err := ownLocal(&l[k].Node, lo, hi); err != nil {
				return err
			}
		}
		out[src][own] = l
	}
	return noTrailing(b)
}

// decodeWGrant reads a weighted grant frame: the shards' global move
// bases into bases' storage and the refold flag (whether the round ends
// with a rebuild of the cached weight sums), then the task flows as
// decodeGrant does. out[own][own], the worker's intra-shard moves, is
// not written.
func decodeWGrant(b *transport.Buffer, own, lo, hi int, bases []int64, out [][][]transport.WFlow) ([]int64, bool, error) {
	bases, err := b.I64s(bases[:0])
	if err != nil {
		return nil, false, err
	}
	if len(bases) != len(out) {
		return nil, false, fmt.Errorf("shard: worker: %d move bases for %d shards", len(bases), len(out))
	}
	flag, err := b.U8()
	if err != nil {
		return nil, false, err
	}
	if flag > 1 {
		return nil, false, fmt.Errorf("shard: worker: refold flag %d", flag)
	}
	if err := grantShards(b, len(out)); err != nil {
		return nil, false, err
	}
	for src := range out {
		if src == own {
			if err := grantOwnList(b, own); err != nil {
				return nil, false, err
			}
			continue
		}
		l, err := b.WFlows(out[src][own][:0])
		if err != nil {
			return nil, false, err
		}
		for k := range l {
			if err := ownLocal(&l[k].Dst, lo, hi); err != nil {
				return nil, false, err
			}
		}
		out[src][own] = l
	}
	if err := noTrailing(b); err != nil {
		return nil, false, err
	}
	return bases, flag == 1, nil
}

// decodeHalo reads a worker's halo-loads frame, which must carry exactly
// len(dst) loads — one per halo slot — into dst, the halo slots of the
// engine's load vector.
func decodeHalo(b *transport.Buffer, dst []float64) error {
	hv, err := b.F64s(dst[:0:len(dst)])
	if err != nil {
		return err
	}
	if len(hv) != len(dst) {
		return fmt.Errorf("shard: worker: %d halo loads for %d halo nodes", len(hv), len(dst))
	}
	return noTrailing(b)
}

// decodeStepDone reads a worker's step-done frame: its refold flag,
// which must equal the grant's refold, on a refold round the m
// refolded sums of its own rows, which it adds to *sum in row order,
// and then the worker's cumulative telemetry, which ends the frame
// (decodeWorkerStats) and which it returns.
func decodeStepDone(b *transport.Buffer, refold bool, m int, sum *float64) (WorkerStats, error) {
	flag, err := b.U8()
	if err != nil {
		return WorkerStats{}, err
	}
	if flag > 1 || (flag == 1) != refold {
		return WorkerStats{}, fmt.Errorf("refold flag %d, grant's refold %v", flag, refold)
	}
	if refold {
		cnt, err := b.U32()
		if err != nil {
			return WorkerStats{}, err
		}
		if int64(cnt) != int64(m) {
			return WorkerStats{}, fmt.Errorf("sent %d sums for range of %d", cnt, m)
		}
		for range m {
			w, err := b.F64()
			if err != nil {
				return WorkerStats{}, err
			}
			*sum += w
		}
	}
	return decodeWorkerStats(b)
}

// grantShards reads a grant's list count, which must be p.
func grantShards(b *transport.Buffer, p int) error {
	n, err := b.U32()
	if err != nil {
		return err
	}
	if int64(n) != int64(p) {
		return fmt.Errorf("shard: worker: grant for %d shards, have %d", n, p)
	}
	return nil
}

// grantOwnList reads the list a grant carries from worker own to
// itself, which must be empty: a worker's intra-shard moves never leave
// it, so a grant that returns any is refused.
func grantOwnList(b *transport.Buffer, own int) error {
	n, err := b.U32()
	if err != nil {
		return err
	}
	if n != 0 {
		return fmt.Errorf("shard: worker: grant returns %d of worker %d's own flows", n, own)
	}
	return nil
}

// ownLocal rewrites an inbound flow's global destination into its local
// id, refusing a destination outside the own range [lo, hi).
func ownLocal(v *int32, lo, hi int) error {
	if int64(*v) < int64(lo) || int64(*v) >= int64(hi) {
		return fmt.Errorf("shard: worker: flow into node %d outside own range [%d,%d)", *v, lo, hi)
	}
	*v -= int32(lo)
	return nil
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
