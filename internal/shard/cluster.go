package shard

import (
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/task"
	"repro/internal/transport"
)

// The cluster coordinator executes one instance across P shard worker
// processes (worker.go), one shard each, over any io.ReadWriter pair —
// net.Pipe in process, unix or TCP sockets between processes
// (cmd/lbshard). Each round is the same three barrier-separated phases
// as the in-process engines, realized as a strict write-all-then-
// read-all lockstep per stage:
//
//	coordinator: round+rng (+ event batch) ▸ gather boundary loads
//	(+ event reports) ▸ scatter halo loads ▸ gather flows ▸ grant (move
//	bases, refold flag, inbound flows) ▸ gather step-done (+ telemetry)
//
// Workers run the identical decide/commit code as the in-process
// engines (same package, same functions), so trajectories, traces,
// ledgers and final states are bit-identical to the sequential engine
// for every P — the cross-process claim the cluster tests pin down.
//
// Floating-point accumulators that the sequential engine updates in
// global node order (totalW, the weighted event ledger) are owned by
// the coordinator and replayed in that exact order from per-worker
// reports; per-shard partial sums would change the rounding.
type clusterCore struct {
	sys  *core.System
	csr  *graph.CSR
	inst instanceWire // what checkpoints carry
	// rowDigest[s] is the digest of shard s's rows, which its config
	// frame carries instead of the rows when the graph has a descriptor.
	rowDigest []uint32
	part      *Partition
	model     uint8
	proto     string
	alpha     float64
	p         int
	n         int

	conns   []*transport.Conn
	closers []io.Closer
	wait    func()

	mu     sync.Mutex
	closed bool
	// broken is set when an exchange with a worker fails midway: the
	// frame streams are then out of lockstep, so no further exchange runs
	// and Close skips the done frames, which a worker blocked writing its
	// own frame would never read.
	broken bool

	buf       transport.Buffer
	moves     []int64
	shardBase []int64

	// Halo exchange staging: the per-round load traffic is O(cut), not
	// O(n). bstage holds every shard's gathered boundary loads
	// back-to-back (shard s's at [bbase[s], bbase[s+1])); haloSrc[d][k]
	// is the bstage index holding the load of halo vertex k of shard d
	// (every halo vertex is a boundary vertex of its owner, so the
	// gather always covers the scatter); hstage is the per-shard scatter
	// scratch.
	bbase   []int
	bstage  []float64
	haloSrc [][]int
	hstage  []float64

	// Authoritative weighted bookkeeping (the workers' engines keep
	// copies that nothing reads).
	totalW         float64
	count          int64
	sinceRecompute int64
	// tasks is the uniform model's global task total, which every batch's
	// arrivals are checked against before any slice goes out: a worker
	// sees only its own range. It is summed from the starting or restored
	// counts and moved by each ledger, never checkpointed.
	tasks int64

	// Relay storage: relayF[src][dst] (uniform) / relayW (weighted)
	// holds the decoded flow lists between the gather and grant stages,
	// reused across rounds.
	relayF [][][]transport.Flow
	relayW [][][]transport.WFlow

	// Event-report staging (weighted): each worker's drained weights,
	// one list per draining node.
	evW [][][]float64

	// Telemetry (stats.go): coordinator stage timings, the workers'
	// latest cumulative reports (carried by their step-done frames),
	// checkpoint-write durations, and an optional span recorder. Pure
	// observability — nothing here feeds back into the protocol.
	times                  PhaseTimes
	wstats                 []WorkerStats
	spans                  *obs.SpanRecorder
	ckCount, ckNs, ckMaxNs int64
}

// clusterPartition partitions sys's graph into exactly p shards, one per
// worker.
func clusterPartition(sys *core.System, p int, strategy Strategy) (*Partition, error) {
	if sys == nil {
		return nil, errors.New("shard: nil system")
	}
	if p == 0 {
		return nil, errors.New("shard: cluster needs at least one worker")
	}
	part, err := NewPartition(sys.Graph().CSR(), p, strategy)
	if err != nil {
		return nil, err
	}
	if part.P() != p {
		return nil, fmt.Errorf("shard: %d workers for a graph of %d nodes (partition supports at most %d)", p, sys.N(), part.P())
	}
	return part, nil
}

// newClusterCore sets up the coordinator for part, one worker per shard
// over rws (len(rws) == part.P()).
func newClusterCore(sys *core.System, model uint8, protoName string, alpha float64, part *Partition, rws []io.ReadWriter) (*clusterCore, error) {
	p := part.P()
	csr := part.csr
	n := csr.N()
	c := &clusterCore{
		sys:       sys,
		csr:       csr,
		part:      part,
		model:     model,
		proto:     protoName,
		alpha:     alpha,
		p:         p,
		n:         n,
		conns:     make([]*transport.Conn, p),
		moves:     make([]int64, p),
		shardBase: make([]int64, p),
		relayF:    make([][][]transport.Flow, p),
		relayW:    make([][][]transport.WFlow, p),
		evW:       make([][][]float64, p),
		wstats:    make([]WorkerStats, p),
	}
	// The static instance goes out with every checkpoint: the graph's
	// descriptor and digest, or its explicit CSR when it has no
	// descriptor, plus one copy of the speeds, which the config frames'
	// windows slice too.
	c.inst = instanceWire{
		Name:    csr.Name(),
		N:       n,
		Desc:    csr.Descriptor(),
		Speeds:  sys.Speeds(),
		Lambda2: sys.Lambda2(),
	}
	if c.inst.Desc.Family == graph.Explicit {
		c.inst.Offsets, c.inst.Adj = csr.Offsets(), csr.Adj()
	} else {
		c.inst.Digest = csr.Digest()
		c.rowDigest = make([]uint32, p)
		for s := range c.rowDigest {
			c.rowDigest[s] = csr.RowsDigest(part.Range(s))
		}
	}
	for s := 0; s < p; s++ {
		c.conns[s] = transport.NewConn(rws[s])
		c.relayF[s] = make([][]transport.Flow, p)
		c.relayW[s] = make([][]transport.WFlow, p)
	}
	// Halo routing plan, fixed for the partition's lifetime: where in
	// the boundary gather each shard's halo loads live.
	c.bbase = make([]int, p+1)
	for s := 0; s < p; s++ {
		c.bbase[s+1] = c.bbase[s] + len(part.Boundary(s))
	}
	c.bstage = make([]float64, c.bbase[p])
	c.haloSrc = make([][]int, p)
	maxHalo := 0
	for d := 0; d < p; d++ {
		halo := part.Halo(d)
		if len(halo) > maxHalo {
			maxHalo = len(halo)
		}
		c.haloSrc[d] = make([]int, len(halo))
		for k, v := range halo {
			owner := part.ShardOf(int(v))
			pos, ok := slices.BinarySearch(part.Boundary(owner), v)
			if !ok {
				return nil, fmt.Errorf("shard: halo vertex %d of shard %d is not a boundary vertex of shard %d", v, d, owner)
			}
			c.haloSrc[d][k] = c.bbase[owner] + pos
		}
	}
	c.hstage = make([]float64, 0, maxHalo)
	return c, nil
}

// configure ships each worker its config — the cut points, its window
// of the instance and its own-range slice of the initial (or restored)
// state, own[s]; NodeWeight travels only with a restored state. Each
// frame (3.67 MB on a d = 18 hypercube at P = 2) is staged in a local
// buffer sized once per frame, so none outlives the session start.
func (c *clusterCore) configure(own []*ownState, restored bool) error {
	var b transport.Buffer
	for s := 0; s < c.p; s++ {
		cfg := c.config(s, own[s], restored)
		b.Reset()
		b.B = slices.Grow(b.B, cfg.encodedSize())
		encodeConfig(&b, cfg)
		if err := c.conns[s].WriteFrame(transport.KindConfig, b.B); err != nil {
			return c.barrierErr(s, phaseConfigure, 0, err)
		}
	}
	for s := 0; s < c.p; s++ {
		if _, err := c.conns[s].Expect(transport.KindVote); err != nil {
			return c.barrierErr(s, phaseConfigure, 0, err)
		}
	}
	return nil
}

// config is shard s's config frame for its own-range state own.
func (c *clusterCore) config(s int, own *ownState, restored bool) *clusterConfig {
	cuts := make([]int32, c.p+1)
	for d := 0; d < c.p; d++ {
		_, hi := c.part.Range(d)
		cuts[d+1] = int32(hi)
	}
	cfg := &clusterConfig{
		Model:    c.model,
		Proto:    c.proto,
		Alpha:    c.alpha,
		Shard:    s,
		Cuts:     cuts,
		Window:   c.window(s),
		Restored: restored,
	}
	if c.model == modelUniform {
		cfg.Counts = own.Counts
	} else {
		cfg.SegLen = own.SegLen
		cfg.Segs = own.Segs
		if restored {
			cfg.NodeWeight = own.NodeWeight
		}
	}
	return cfg
}

// window is shard s's window of the instance: its rows (as the rows
// digest, or as the rebased rows of a graph without a descriptor), the
// instance's Δ and s_max, its own speeds and its halo's speeds and
// degrees in halo-slot order.
func (c *clusterCore) window(s int) windowWire {
	lo, hi := c.part.Range(s)
	halo := c.part.Halo(s)
	w := windowWire{
		Name:       c.inst.Name,
		N:          c.n,
		Desc:       c.inst.Desc,
		MaxDeg:     c.csr.MaxDegree(),
		SMax:       c.sys.SMax(),
		Speeds:     c.inst.Speeds[lo:hi],
		HaloSpeeds: make([]float64, len(halo)),
		HaloDeg:    make([]int32, len(halo)),
	}
	for k, v := range halo {
		w.HaloSpeeds[k] = c.inst.Speeds[v]
		w.HaloDeg[k] = int32(c.csr.Degree(int(v)))
	}
	if w.Desc.Family != graph.Explicit {
		w.Digest = c.rowDigest[s]
		return w
	}
	off := c.csr.Offsets()
	w.Offsets = make([]int32, hi-lo+1)
	for k := range w.Offsets {
		w.Offsets[k] = off[lo+k] - off[lo]
	}
	w.Adj = c.csr.Adj()[off[lo]:off[hi]]
	return w
}

// Step implements core.Engine: one synchronous round r, bit-identical
// to the in-process engines under the At(r, i) rng contract.
func (c *clusterCore) Step(r uint64, base *rng.Stream) (int64, error) {
	moves, _, err := c.StepEvents(r, base, nil)
	return moves, err
}

// StepEvents implements core.EventStepper, the cluster's only event
// path: apply batch (none when nil) and run round r in one lockstep
// exchange. The batch rides the round frame and the per-worker event
// reports ride the boundary-loads gather, so a batch costs no frame of
// its own; the result matches the sequential engine's
// ApplyEvents-then-Step semantics bit-for-bit. A batch that the
// sequential engine would refuse is refused before any frame goes out:
// one that Validate rejects, or, in the uniform model, whose arrivals
// take the global task total, which no worker sees, past
// math.MaxInt64.
func (c *clusterCore) StepEvents(r uint64, base *rng.Stream, batch *core.EventBatch) (int64, core.EventLedger, error) {
	var led core.EventLedger
	if base == nil {
		return 0, led, errors.New("shard: nil base stream")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.usable(); err != nil {
		return 0, led, err
	}
	if batch != nil {
		if err := batch.Validate(c.n); err != nil {
			return 0, led, err
		}
		if c.model == modelUniform {
			if _, err := core.AddTasks(c.tasks, batch.Arrivals); err != nil {
				return 0, led, err
			}
		}
	}
	moves, led, err := c.step(r, base, batch)
	c.tasks += led.Arrived - led.Departed
	return moves, led, err
}

// Exchange phases, as barrierErr names them: the barriers of a cluster
// round in frame order, then the exchanges outside a round: configure
// (config / vote), and state and checkpoint, the two uses of the state
// gather (state request / state).
const (
	phaseConfigure  = "configure"
	phaseRound      = "round announce"
	phaseBoundary   = "boundary loads"
	phaseHalo       = "halo loads"
	phaseFlows      = "flows"
	phaseGrant      = "grant"
	phaseStepDone   = "step done"
	phaseState      = "state"
	phaseCheckpoint = "checkpoint"
)

// errBroken refuses an exchange after a failed one.
var errBroken = errors.New("shard: cluster out of lockstep after a failed exchange")

// usable refuses an exchange on a closed or broken cluster. Callers hold
// c.mu.
func (c *clusterCore) usable() error {
	if c.closed {
		return ErrClosed
	}
	if c.broken {
		return errBroken
	}
	return nil
}

// barrierErr marks the cluster broken and names the worker, the phase
// and, for a round's barriers, the round of a failed exchange; the
// exchanges outside a round pass r = 0 (rounds count from 1).
func (c *clusterCore) barrierErr(s int, phase string, r uint64, err error) error {
	c.broken = true
	if r == 0 {
		return fmt.Errorf("shard: worker %d, %s: %w", s, phase, err)
	}
	return fmt.Errorf("shard: worker %d, %s, round %d: %w", s, phase, r, err)
}

// step runs one round, optionally fusing a pre-validated event batch
// into the round's frames. Every failure is a barrierErr.
func (c *clusterCore) step(r uint64, base *rng.Stream, batch *core.EventBatch) (int64, core.EventLedger, error) {
	var led core.EventLedger
	t0 := time.Now()
	words := base.Split(r).Words()
	for s := 0; s < c.p; s++ {
		c.buf.Reset()
		c.buf.PutU64(r)
		for _, w := range words {
			c.buf.PutU64(w)
		}
		if batch != nil {
			c.buf.PutU8(1)
			lo, hi := c.part.Range(s)
			encodeEventSlice(&c.buf, c.model, batch, lo, hi)
		} else {
			c.buf.PutU8(0)
		}
		if err := c.conns[s].WriteFrame(transport.KindRound, c.buf.B); err != nil {
			return 0, led, c.barrierErr(s, phaseRound, r, err)
		}
	}
	// Loads: gather each shard's boundary loads (with its event report
	// when a batch rode the round frame), scatter each shard's halo
	// loads — O(cut) traffic, independent of n.
	for s := 0; s < c.p; s++ {
		if err := c.gatherBoundary(s, batch != nil, &led); err != nil {
			return 0, led, c.barrierErr(s, phaseBoundary, r, err)
		}
	}
	if batch != nil && c.model == modelWeighted {
		led = c.foldWeightedReports(batch)
	}
	for s := 0; s < c.p; s++ {
		src := c.haloSrc[s]
		vals := c.hstage[:0]
		for _, idx := range src {
			vals = append(vals, c.bstage[idx])
		}
		c.hstage = vals[:0]
		c.buf.Reset()
		c.buf.PutF64s(vals)
		if err := c.conns[s].WriteFrame(transport.KindHaloLoads, c.buf.B); err != nil {
			return 0, led, c.barrierErr(s, phaseHalo, r, err)
		}
	}
	t1 := time.Now()
	// Decide: gather each worker's move count and cross-shard lists.
	for s := 0; s < c.p; s++ {
		if err := c.gatherFlows(s); err != nil {
			return 0, led, c.barrierErr(s, phaseFlows, r, err)
		}
	}
	// The serial inter-barrier bookkeeping of WeightedEngine.Step: the
	// global move bases, and whether the round ends with a refold of the
	// cached weight sums.
	total := int64(0)
	for s, m := range c.moves {
		c.shardBase[s] = total
		total += m
	}
	refold := false
	if c.model == modelWeighted {
		c.sinceRecompute += total
		refold = core.RecomputeDue(c.sinceRecompute)
	}
	t2 := time.Now()
	// Grant: relay every inbound list (workers keep their own intra-
	// shard lists locally; relay[s][s] arrived empty and goes out empty).
	for s := 0; s < c.p; s++ {
		c.buf.Reset()
		if c.model == modelWeighted {
			c.buf.PutI64s(c.shardBase)
			if refold {
				c.buf.PutU8(1)
			} else {
				c.buf.PutU8(0)
			}
		}
		c.buf.PutU32(uint32(c.p))
		for src := 0; src < c.p; src++ {
			if c.model == modelUniform {
				c.buf.PutFlows(c.relayF[src][s])
			} else {
				c.buf.PutWFlows(c.relayW[src][s])
			}
		}
		if err := c.conns[s].WriteFrame(transport.KindGrant, c.buf.B); err != nil {
			return 0, led, c.barrierErr(s, phaseGrant, r, err)
		}
	}
	// Commit: collect step-done, with each worker's telemetry. On a
	// refold round each worker returns its refolded own-row sums, which
	// fold into the total weight in shard order — node order, as the
	// sequential RecomputeWeights folds.
	totalW := 0.0
	for s := 0; s < c.p; s++ {
		payload, err := c.conns[s].Expect(transport.KindStepDone)
		if err == nil {
			var b transport.Buffer
			b.Load(payload)
			lo, hi := c.part.Range(s)
			var ws WorkerStats
			if ws, err = decodeStepDone(&b, refold, hi-lo, &totalW); err == nil {
				c.wstats[s] = ws
			}
		}
		if err != nil {
			return 0, led, c.barrierErr(s, phaseStepDone, r, err)
		}
	}
	if refold {
		c.totalW = totalW
		c.sinceRecompute = 0
	}
	c.observeStep(t0, t1, t2, time.Now())
	return total, led, nil
}

// gatherBoundary reads worker s's boundary-loads frame (decodeBoundary).
func (c *clusterCore) gatherBoundary(s int, batch bool, led *core.EventLedger) error {
	payload, err := c.conns[s].Expect(transport.KindBoundaryLoads)
	if err != nil {
		return err
	}
	var b transport.Buffer
	b.Load(payload)
	return c.decodeBoundary(s, &b, batch, led)
}

// decodeBoundary decodes worker s's boundary-loads frame from b: its
// boundary loads into its bstage range, then, when a batch rode the
// round frame, its event report — the uniform ledger counts, added to
// led, or the weighted drained weights per node, staged for
// foldWeightedReports.
func (c *clusterCore) decodeBoundary(s int, b *transport.Buffer, batch bool, led *core.EventLedger) error {
	lo, hi := c.bbase[s], c.bbase[s+1]
	bl, err := b.F64s(c.bstage[lo:lo:hi])
	if err != nil {
		return err
	}
	if len(bl) != hi-lo {
		return fmt.Errorf("sent %d boundary loads for %d boundary nodes", len(bl), hi-lo)
	}
	if !batch {
		return nil
	}
	if c.model == modelUniform {
		arr, err := b.I64()
		if err != nil {
			return err
		}
		dep, err := b.I64()
		if err != nil {
			return err
		}
		led.Arrived += arr
		led.Departed += dep
		return nil
	}
	cnt, err := b.U32()
	if err != nil {
		return err
	}
	c.evW[s] = c.evW[s][:0]
	for j := uint32(0); j < cnt; j++ {
		if _, err := b.U32(); err != nil { // the node, which the fold does not need
			return err
		}
		ws, err := b.F64s(nil)
		if err != nil {
			return err
		}
		c.evW[s] = append(c.evW[s], ws)
	}
	return nil
}

// gatherFlows reads worker s's move count and its flow list to every
// shard into the relay.
func (c *clusterCore) gatherFlows(s int) error {
	payload, err := c.conns[s].Expect(transport.KindFlows)
	if err != nil {
		return err
	}
	var b transport.Buffer
	b.Load(payload)
	c.moves[s], err = decodeFlows(&b, c.model, c.relayF[s], c.relayW[s])
	return err
}

// foldWeightedReports replays the sequential fast path's accumulator
// order over the staged reports: all injections (nodes ascending,
// weights in order), then all drains (nodes ascending — shards are
// contiguous ascending ranges, and each report is node-ascending within
// its shard) — updating totalW, count and sinceRecompute exactly as the
// sequential ApplyEvents would.
func (c *clusterCore) foldWeightedReports(batch *core.EventBatch) core.EventLedger {
	var led core.EventLedger
	for _, ws := range batch.WeightArrivals {
		if len(ws) == 0 {
			continue
		}
		for _, w := range ws {
			c.totalW += w
		}
		c.count += int64(len(ws))
		led.ArrivedTasks += int64(len(ws))
		for _, w := range ws {
			led.ArrivedWeight += w
		}
	}
	for s := 0; s < c.p; s++ {
		for _, ws := range c.evW[s] {
			t := 0.0
			for _, w := range ws {
				c.totalW -= w
				t += w
			}
			c.count -= int64(len(ws))
			led.DepartedTasks += int64(len(ws))
			led.DepartedWeight += t
		}
	}
	c.sinceRecompute += led.ArrivedTasks + led.DepartedTasks
	return led
}

// gatherOwnStates requests and decodes every worker's own-range state,
// for a state gather or a checkpoint, the phase every failure names as
// a barrierErr.
func (c *clusterCore) gatherOwnStates(phase string) ([]*ownState, error) {
	for s := 0; s < c.p; s++ {
		if err := c.conns[s].WriteFrame(transport.KindStateReq, nil); err != nil {
			return nil, c.barrierErr(s, phase, 0, err)
		}
	}
	states := make([]*ownState, c.p)
	for s := 0; s < c.p; s++ {
		var err error
		if states[s], err = c.readOwnState(s); err != nil {
			return nil, c.barrierErr(s, phase, 0, err)
		}
	}
	return states, nil
}

// readOwnState reads worker s's own-range state reply and checks that it
// covers the worker's range.
func (c *clusterCore) readOwnState(s int) (*ownState, error) {
	reply, err := c.conns[s].Expect(transport.KindState)
	if err != nil {
		return nil, err
	}
	var b transport.Buffer
	b.Load(reply)
	st, err := decodeOwnState(&b, c.model)
	if err != nil {
		return nil, err
	}
	lo, hi := c.part.Range(s)
	if c.model == modelUniform {
		if len(st.Counts) != hi-lo {
			return nil, fmt.Errorf("sent %d counts for range of %d", len(st.Counts), hi-lo)
		}
	} else if len(st.SegLen) != hi-lo || len(st.NodeWeight) != hi-lo {
		return nil, fmt.Errorf("sent state sized %d/%d for range of %d", len(st.SegLen), len(st.NodeWeight), hi-lo)
	}
	return st, nil
}

// assembleUniform stitches gathered own-range counts into a full vector.
func (c *clusterCore) assembleUniform(states []*ownState) []int64 {
	counts := make([]int64, c.n)
	for s := 0; s < c.p; s++ {
		lo, _ := c.part.Range(s)
		copy(counts[lo:], states[s].Counts)
	}
	return counts
}

// assembleWeighted slices the gathered per-worker pools into per-node
// segments and stitches the cached sums into one vector, in node order.
// The segments alias the freshly decoded pools; nothing else holds them.
func (c *clusterCore) assembleWeighted(states []*ownState) (segs [][]float64, nw []float64, err error) {
	segs = make([][]float64, c.n)
	nw = make([]float64, c.n)
	for s := 0; s < c.p; s++ {
		pool := states[s].Segs
		for _, l := range states[s].SegLen {
			if l < 0 {
				return nil, nil, fmt.Errorf("shard: worker %d sent negative segment length", s)
			}
		}
		if int64(len(pool)) != sum64(states[s].SegLen) {
			return nil, nil, fmt.Errorf("shard: worker %d segment pool/length mismatch", s)
		}
		lo, hi := c.part.Range(s)
		idx := int64(0)
		for i := lo; i < hi; i++ {
			l := states[s].SegLen[i-lo]
			segs[i] = pool[idx : idx+l]
			idx += l
		}
		copy(nw[lo:], states[s].NodeWeight)
	}
	return segs, nw, nil
}

func sum64(v []int64) int64 {
	t := int64(0)
	for _, x := range v {
		t += x
	}
	return t
}

// Close sends done frames and tears the connections down. Idempotent.
func (c *clusterCore) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	if !c.broken {
		for s := 0; s < c.p; s++ {
			_ = c.conns[s].WriteFrame(transport.KindDone, nil)
		}
	}
	for _, cl := range c.closers {
		_ = cl.Close()
	}
	if c.wait != nil {
		c.wait()
	}
	return nil
}

// Partition exposes the cluster's partition (for stats and tests).
func (c *clusterCore) Partition() *Partition { return c.part }

// UniformCluster drives a uniform-model instance across P worker
// processes. It implements core.Engine[*core.UniformState] and takes
// events as a core.EventStepper, so core.Drive (and the harness) treats
// it exactly like any in-process engine.
type UniformCluster struct {
	*clusterCore
}

var _ core.Engine[*core.UniformState] = (*UniformCluster)(nil)
var _ core.EventStepper = (*UniformCluster)(nil)

// NewUniformCluster connects to one worker per shard over rws and ships
// them the instance. counts is validated and encoded, not retained.
func NewUniformCluster(sys *core.System, proto core.UniformNodeProtocol, counts []int64, rws []io.ReadWriter, strategy Strategy) (*UniformCluster, error) {
	part, err := clusterPartition(sys, len(rws), strategy)
	if err != nil {
		return nil, err
	}
	return newUniformCluster(sys, proto, counts, part, rws)
}

func newUniformCluster(sys *core.System, proto core.UniformNodeProtocol, counts []int64, part *Partition, rws []io.ReadWriter) (*UniformCluster, error) {
	name, alpha, err := protoSpec(proto)
	if err != nil {
		return nil, err
	}
	st, err := core.NewUniformState(sys, counts)
	if err != nil {
		return nil, err
	}
	cc, err := newClusterCore(sys, modelUniform, name, alpha, part, rws)
	if err != nil {
		return nil, err
	}
	c := &UniformCluster{clusterCore: cc}
	c.tasks = st.Total()
	own := make([]*ownState, c.p)
	for s := range own {
		lo, hi := c.part.Range(s)
		own[s] = &ownState{Counts: counts[lo:hi]}
	}
	if err := c.configure(own, false); err != nil {
		return nil, err
	}
	return c, nil
}

// State implements core.Engine by gathering every worker's counts.
func (c *UniformCluster) State() (*core.UniformState, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.usable(); err != nil {
		return nil, err
	}
	states, err := c.gatherOwnStates(phaseState)
	if err != nil {
		return nil, err
	}
	return core.NewUniformState(c.sys, c.assembleUniform(states))
}

// Counts gathers the current per-node task counts.
func (c *UniformCluster) Counts() ([]int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.usable(); err != nil {
		return nil, err
	}
	states, err := c.gatherOwnStates(phaseState)
	if err != nil {
		return nil, err
	}
	return c.assembleUniform(states), nil
}

// WeightedCluster drives a weighted-model instance across P worker
// processes; the cluster twin of WeightedEngine.
type WeightedCluster struct {
	*clusterCore
}

var _ core.Engine[*core.WeightedState] = (*WeightedCluster)(nil)
var _ core.EventStepper = (*WeightedCluster)(nil)

// NewWeightedCluster connects to one worker per shard over rws and
// ships them the instance. perNode is flattened and copied.
func NewWeightedCluster(sys *core.System, proto core.WeightedFlatProtocol, perNode []task.Weights, rws []io.ReadWriter, strategy Strategy) (*WeightedCluster, error) {
	part, err := clusterPartition(sys, len(rws), strategy)
	if err != nil {
		return nil, err
	}
	return newWeightedCluster(sys, proto, perNode, part, rws)
}

func newWeightedCluster(sys *core.System, proto core.WeightedFlatProtocol, perNode []task.Weights, part *Partition, rws []io.ReadWriter) (*WeightedCluster, error) {
	name, alpha, err := protoSpec(proto)
	if err != nil {
		return nil, err
	}
	if len(perNode) != sys.N() {
		return nil, fmt.Errorf("shard: %d nodes of tasks for %d processors", len(perNode), sys.N())
	}
	for i, ws := range perNode {
		if err := ws.Validate(); err != nil {
			return nil, fmt.Errorf("shard: node %d: %w", i, err)
		}
	}
	cc, err := newClusterCore(sys, modelWeighted, name, alpha, part, rws)
	if err != nil {
		return nil, err
	}
	c := &WeightedCluster{clusterCore: cc}
	own := make([]*ownState, c.p)
	// Initial accumulators in NewWeightedState's exact operation order:
	// per-node Total() (ascending fold), then totalW += per node.
	for s := range own {
		lo, hi := c.part.Range(s)
		total := 0
		for _, ws := range perNode[lo:hi] {
			total += len(ws)
		}
		o := &ownState{SegLen: make([]int64, hi-lo), Segs: make([]float64, 0, total)}
		for i := lo; i < hi; i++ {
			o.SegLen[i-lo] = int64(len(perNode[i]))
			o.Segs = append(o.Segs, perNode[i]...)
			c.totalW += perNode[i].Total()
			c.count += int64(len(perNode[i]))
		}
		own[s] = o
	}
	if err := c.configure(own, false); err != nil {
		return nil, err
	}
	return c, nil
}

// State implements core.Engine by gathering every worker's segments and
// cached sums into a sequential WeightedState, bit-identical to the
// in-process engine's State.
func (c *WeightedCluster) State() (*core.WeightedState, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.usable(); err != nil {
		return nil, err
	}
	states, err := c.gatherOwnStates(phaseState)
	if err != nil {
		return nil, err
	}
	segs, nw, err := c.assembleWeighted(states)
	if err != nil {
		return nil, err
	}
	return core.NewWeightedStateFromSegments(c.sys, segs, nw, c.totalW, int(c.sinceRecompute))
}

// TaskCount returns the cluster's current task count.
func (c *WeightedCluster) TaskCount() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.count
}

// localWorkers spawns p in-process workers over net.Pipe and returns
// the coordinator ends plus the teardown bookkeeping. The goroutine
// closes its pipe end when the worker exits, so a coordinator-side
// close never blocks on a dead worker.
func localWorkers(p int) (rws []io.ReadWriter, closers []io.Closer, wait func()) {
	rws = make([]io.ReadWriter, p)
	closers = make([]io.Closer, p)
	var wg sync.WaitGroup
	for i := 0; i < p; i++ {
		a, b := net.Pipe()
		rws[i] = a
		closers[i] = a
		wg.Add(1)
		go func(end net.Conn) {
			defer wg.Done()
			_ = RunWorker(end)
			_ = end.Close()
		}(b)
	}
	return rws, closers, wg.Wait
}

// StartLocalUniformCluster runs a full coordinator/worker cluster
// inside this process over net.Pipe — every wire frame is exercised,
// no sockets needed. It partitions as the in-process engines do (P =
// Shards, else Workers, else GOMAXPROCS, clamped to [1, n]) and starts
// one worker per shard. Closing the cluster stops the workers.
func StartLocalUniformCluster(sys *core.System, proto core.UniformNodeProtocol, counts []int64, opts Options) (*UniformCluster, error) {
	part, _, err := enginePartition(sys, opts)
	if err != nil {
		return nil, err
	}
	rws, closers, wait := localWorkers(part.P())
	c, err := newUniformCluster(sys, proto, counts, part, rws)
	if err != nil {
		for _, cl := range closers {
			_ = cl.Close()
		}
		wait()
		return nil, err
	}
	c.closers = closers
	c.wait = wait
	return c, nil
}

// StartLocalWeightedCluster is StartLocalUniformCluster for the
// weighted model.
func StartLocalWeightedCluster(sys *core.System, proto core.WeightedFlatProtocol, perNode []task.Weights, opts Options) (*WeightedCluster, error) {
	part, _, err := enginePartition(sys, opts)
	if err != nil {
		return nil, err
	}
	rws, closers, wait := localWorkers(part.P())
	c, err := newWeightedCluster(sys, proto, perNode, part, rws)
	if err != nil {
		for _, cl := range closers {
			_ = cl.Close()
		}
		wait()
		return nil, err
	}
	c.closers = closers
	c.wait = wait
	return c, nil
}
