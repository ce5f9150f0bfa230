package shard

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/task"
	"repro/internal/transport"
)

// WeightedEngine is the CSR-backed sharded execution engine for
// weighted tasks (Algorithm 2). State is a flat structure of arrays:
// shard s's task weights live in one contiguous pool with per-node
// offsets, and the cached per-node weight sums and the load snapshot
// are plain []float64 vectors — no per-node slice headers, no maps.
// Each round runs in the same three barrier-separated phases as the
// uniform Engine (snapshot loads, decide, commit) over P shards on the
// phase pool.
//
// What makes the flat execution possible is the paper's own design
// decision: Algorithm 2's migration probability is independent of the
// moving task's weight, so the per-node decision needs only the task
// count, the cached node weight and the load snapshot
// (core.WeightedFlatProtocol), never the weight multiset. Tasks enter
// the picture only at commit, where the engine replays, per node, the
// exact operation sequence of the sequential core.ApplyMoves — same
// swap-deletes, same append order, same floating-point updates to the
// cached weight sums — and ends the round with the same check, a
// parallel per-shard refold of the sums once core.RecomputeDue says
// so, so trajectories, traces and final task multisets are
// bit-identical to core.RunWeighted for any shard count, worker count
// and partition strategy.
//
// WeightedEngine implements core.Engine[*core.WeightedState] and
// core.DynamicEngine; public methods serialize on an internal mutex.
type WeightedEngine struct {
	phasePool
	sys   *core.System
	csr   *graph.CSR
	proto core.WeightedFlatProtocol
	gbase int // the global id of row 0 (see newEngine)

	// Flat SoA state: node i of shard s owns the first segLen[s][i-lo]
	// elements of its segment. A pool-resident node's segment is
	// pool[s][off[s][i-lo] : off[s][i-lo+1]] — off is the fixed slot
	// layout, so a node whose count shrinks leaves slack at the end of
	// its slot and the commit mutates it in place, never moving its
	// neighbors. A node that outgrows its slot is privatized: its tasks
	// move once into a dedicated slice (priv[s][i-lo], amortized-doubling
	// capacity) and every later commit or event batch runs in place
	// there. spare and noff are maybeCompact's scratch: it rebuilds a
	// shard into a packed slot layout and releases its private segments.
	pool   [][]float64
	spare  [][]float64
	off    [][]int64
	noff   [][]int64
	segLen [][]int64
	priv   [][][]float64

	nodeWeight []float64
	loads      []float64 // the round-start load snapshot (see Engine.loads)
	// segView holds the per-node slice headers of the State() view.
	segView        [][]float64
	totalW         float64
	count          int64
	sinceRecompute int64

	// Decide outputs (indexed by shard, not worker, so the worker
	// striping cannot influence the trajectory). Each outbound entry is
	// one migrating task — unlike the uniform engine's per-edge
	// aggregates — stamped with its shard-local move index G, so the
	// committer can reconstruct the global move timeline from the flow
	// record plus the source shard's move base alone (see
	// transport.WFlow). That self-containment is what lets the lists
	// travel across a process boundary.
	outFlows [][][]transport.WFlow // outFlows[s][d]: tasks moving from shard s into shard d (d == s included)
	remIdx   [][]int32             // shard s's removal indices: source-ascending, idx-descending
	remPos   [][]int64             // per-node prefix into remIdx (len shardSize+1)
	moves    []int64               // per-shard move totals

	// Commit scratch (indexed by destination shard): the arrival
	// buckets, filled in global source order.
	arrCnt  [][]int32
	arrFill [][]int32
	arrPos  [][]int64
	arrW    [][]float64
	arrG    [][]int64

	// Privatization arena (indexed by destination shard): private
	// segments are carved from monotone-doubling bump blocks instead of
	// individually allocated, so the commit's per-node privatizations
	// and regrowths amortize to O(log growth) allocations per shard —
	// the per-round cost is zero once the blocks reach working-set
	// size. arenaCur is the block being carved, arenaOff its fill
	// point; blocks that no longer fit a carve retire into arenaOld
	// (live segments still point into them). arenaDead counts floats
	// carved and later abandoned (a node re-carving a larger segment)
	// plus retired-block tails; when it exceeds the shard's pool
	// footprint the commit compacts the shard — rebuilding the packed
	// slot layout and releasing every block — which bounds resident
	// memory at O(live tasks).
	arenaCur  [][]float64
	arenaOff  []int64
	arenaOld  [][][]float64
	arenaDead []int64

	// shardBase[s] is the global move index of shard s's first move this
	// round, shared across the decide and commit phases.
	shardBase []int64

	scratch []*weightedScratch
}

// weightedScratch is one worker's reusable decide storage.
type weightedScratch struct {
	ws    *core.WeightedScratch
	child rng.Stream
}

// NewWeighted validates the instance, copies the per-node weight
// multisets into the flat shard pools, partitions the CSR view and
// starts the worker pool. The initial cached weight sums are computed
// with the exact operation order of core.NewWeightedState, so the
// engine starts bit-identical to a freshly built sequential state.
func NewWeighted(sys *core.System, proto core.WeightedFlatProtocol, perNode []task.Weights, opts Options) (*WeightedEngine, error) {
	part, workers, err := enginePartition(sys, opts)
	if err != nil {
		return nil, err
	}
	e, err := newWeighted(sys, proto, perNode, part, workers, 0)
	if err != nil {
		return nil, err
	}
	e.start(e.runShard)
	return e, nil
}

// newWeighted builds the weighted shard kernel over part, with decide
// scratch for the given worker count, and starts no goroutine: task
// pools, weight sums and commit buffers for sys's N() rows, loads for
// every id of part's id space, node streams keyed by gbase+i (see
// newEngine).
func newWeighted(sys *core.System, proto core.WeightedFlatProtocol, perNode []task.Weights, part *Partition, workers, gbase int) (*WeightedEngine, error) {
	if proto == nil {
		return nil, errors.New("shard: nil protocol")
	}
	n := sys.N()
	if len(perNode) != n {
		return nil, fmt.Errorf("shard: %d nodes of tasks for %d processors", len(perNode), n)
	}
	for i, ws := range perNode {
		if err := ws.Validate(); err != nil {
			return nil, fmt.Errorf("shard: node %d: %w", i, err)
		}
	}
	csr := sys.Graph().CSR()
	p := part.P()
	e := &WeightedEngine{
		phasePool:  phasePool{part: part, workers: workers, busy: make([]ShardTimes, p)},
		sys:        sys,
		csr:        csr,
		proto:      proto,
		gbase:      gbase,
		pool:       make([][]float64, p),
		spare:      make([][]float64, p),
		off:        make([][]int64, p),
		noff:       make([][]int64, p),
		segLen:     make([][]int64, p),
		priv:       make([][][]float64, p),
		nodeWeight: make([]float64, n),
		loads:      make([]float64, len(part.shardOf)),
		outFlows:   make([][][]transport.WFlow, p),
		remIdx:     make([][]int32, p),
		remPos:     make([][]int64, p),
		moves:      make([]int64, p),
		arrCnt:     make([][]int32, p),
		arrFill:    make([][]int32, p),
		arrPos:     make([][]int64, p),
		arrW:       make([][]float64, p),
		arrG:       make([][]int64, p),
		arenaCur:   make([][]float64, p),
		arenaOff:   make([]int64, p),
		arenaOld:   make([][][]float64, p),
		arenaDead:  make([]int64, p),
		shardBase:  make([]int64, p),
		scratch:    make([]*weightedScratch, workers),
	}
	for s := 0; s < p; s++ {
		lo, hi := part.Range(s)
		size := hi - lo
		total := 0
		for i := lo; i < hi; i++ {
			total += len(perNode[i])
		}
		pool := make([]float64, 0, total)
		off := make([]int64, size+1)
		segLen := make([]int64, size)
		for i := lo; i < hi; i++ {
			pool = append(pool, perNode[i]...)
			off[i-lo+1] = int64(len(pool))
			segLen[i-lo] = int64(len(perNode[i]))
		}
		e.pool[s] = pool
		e.off[s] = off
		e.noff[s] = make([]int64, size+1)
		e.segLen[s] = segLen
		e.priv[s] = make([][]float64, size)
		e.outFlows[s] = make([][]transport.WFlow, p)
		e.remPos[s] = make([]int64, size+1)
		e.arrCnt[s] = make([]int32, size)
		e.arrFill[s] = make([]int32, size)
		e.arrPos[s] = make([]int64, size+1)
	}
	// Cached weight sums with NewWeightedState's exact operation order:
	// nodeWeight[i] = Σ (ascending), then totalW += nodeWeight[i],
	// i ascending.
	for i := 0; i < n; i++ {
		w := perNode[i].Total()
		e.nodeWeight[i] = w
		e.totalW += w
		e.count += int64(len(perNode[i]))
	}
	maxDeg := csr.MaxDegree()
	for w := range e.scratch {
		e.scratch[w] = &weightedScratch{ws: core.NewWeightedScratch(maxDeg)}
	}
	return e, nil
}

// runShard runs one phase of shard s on pool worker w.
func (e *WeightedEngine) runShard(s, w int, ph phase) {
	switch ph.kind {
	case phaseLoads:
		e.snapshotLoads(s)
	case phaseDecide:
		e.decideShard(s, ph.round, e.scratch[w])
	case phaseCommit:
		e.commitShard(s)
	case phaseRefold:
		e.refoldShard(s)
	}
}

// snapshotLoads refreshes shard s's slice of the round-start load
// snapshot; the division matches WeightedState.Load exactly.
func (e *WeightedEngine) snapshotLoads(s int) {
	lo, hi := e.part.Range(s)
	for i := lo; i < hi; i++ {
		e.loads[i] = e.nodeWeight[i] / e.sys.Speed(i)
	}
}

// decideShard evaluates shard s's protocol decisions against the
// round-start snapshot. Each node's moves arrive sorted by task index
// descending (the WeightedFlatProtocol contract and core.ApplyMoves
// application order) and are recorded twice: the removal
// indices land in the shard's flat removal list, and each move emits a
// flow entry — carrying the task's round-start weight and the move's
// position within the node's list — into the per-destination-shard flow
// buffer. Only shard-s buffers are written.
func (e *WeightedEngine) decideShard(s int, roundStream *rng.Stream, sc *weightedScratch) {
	part := e.part
	lo, hi := part.Range(s)
	flows := e.outFlows[s]
	for d := range flows {
		// Presize from last round's volume before truncating: growing via
		// append would memmove the (dead) old contents on every
		// reallocation, so when the buffer looks too tight replace it with
		// a fresh empty one instead — allocation without the copy. Caps
		// are monotone (at least doubling), so a run performs O(log peak)
		// allocations total and the steady state allocates nothing;
		// underestimates just fall back to append's normal growth.
		if prev := len(flows[d]); cap(flows[d]) < prev+prev/8 {
			flows[d] = make([]transport.WFlow, 0, max(prev+prev/2, 2*cap(flows[d])))
		} else {
			flows[d] = flows[d][:0]
		}
	}
	remIdx := e.remIdx[s]
	if prev := len(remIdx); cap(remIdx) < prev+prev/8 {
		remIdx = make([]int32, 0, max(prev+prev/2, 2*cap(remIdx)))
	} else {
		remIdx = remIdx[:0]
	}
	remPos := e.remPos[s]
	remPos[0] = 0
	segLen := e.segLen[s]
	mv := int64(0)
	for i := lo; i < hi; i++ {
		k := i - lo
		cnt := int(segLen[k])
		var ms []core.TaskMove
		if cnt > 0 {
			roundStream.SplitTo(uint64(e.gbase+i), &sc.child)
			ms = e.proto.DecideNodeFlat(e.sys, i, cnt, e.nodeWeight[i], e.loads, &sc.child, sc.ws)
		}
		if len(ms) > 0 {
			seg := e.seg(s, k)
			for p, m := range ms {
				remIdx = append(remIdx, int32(m.Idx))
				d := int(part.shardOf[m.To])
				// G = mv + p is the move's shard-local index: the count
				// of moves this shard emitted before it this round.
				flows[d] = append(flows[d], transport.WFlow{Dst: int32(m.To), G: mv + int64(p), W: seg[m.Idx]})
			}
			mv += int64(len(ms))
		}
		remPos[k+1] = remPos[k] + int64(len(ms))
	}
	e.remIdx[s] = remIdx
	e.moves[s] = mv
}

// seg returns the current task segment of node lo+k of shard s: its
// private slice if it has been privatized, its pool slot prefix
// otherwise.
func (e *WeightedEngine) seg(s, k int) []float64 {
	if pv := e.priv[s][k]; pv != nil {
		return pv[:e.segLen[s][k]]
	}
	o := e.off[s]
	return e.pool[s][o[k] : o[k]+e.segLen[s][k]]
}

// commitShard applies every move addressed to shard d — the lists
// outFlows[src][d] of every shard, d's own intra-shard list included (in
// a cluster worker, the others' lists are the ones its grant frame
// carried) — against the flat pool, node by node, replaying the
// sequential engine's exact operation sequence. The global move
// timeline orders all moves as ApplyMoves does — source nodes
// ascending, indices descending within a source — and each node's
// operations (task arrivals from other nodes, its own swap-delete
// removals) are merged by their position on that timeline, which
// reproduces the interleaving the sequential loop would produce:
// arrivals from lower-numbered sources land before the node's own
// removals and can be swapped into freed slots, exactly as in moveTask.
// The replay runs in place on each touched node's own segment —
// untouched nodes are not even read — so commit work is proportional to
// the round's operations, not to the shard's task count. Shard d's
// segments and weight-sum entries are written only here, only by the
// worker running d, after the decide barrier.
func (e *WeightedEngine) commitShard(d int) {
	part := e.part
	lo, hi := part.Range(d)
	size := hi - lo
	e.maybeCompact(d)
	// Pass 1: count arrivals per destination node.
	arrCnt := e.arrCnt[d]
	for k := range arrCnt {
		arrCnt[k] = 0
	}
	totalArr := int64(0)
	for src := 0; src < part.P(); src++ {
		for _, f := range e.outFlows[src][d] {
			arrCnt[int(f.Dst)-lo]++
			totalArr++
		}
	}
	remPos := e.remPos[d]
	if totalArr == 0 && remPos[size] == 0 {
		return // quiet shard: no tasks leave it or enter it
	}
	// Pass 2: bucket the arrivals per destination node, walking the
	// source shards in ascending order — shards are contiguous index
	// ranges and each flow list is source-ascending, so every bucket
	// ends up in global source order. Each entry records its global move
	// index g for the timeline merge below.
	arrPos := e.arrPos[d]
	arrPos[0] = 0
	for k := 0; k < size; k++ {
		arrPos[k+1] = arrPos[k] + int64(arrCnt[k])
	}
	arrW := growFloats(e.arrW[d], totalArr)
	arrG := growInt64s(e.arrG[d], totalArr)
	e.arrW[d], e.arrG[d] = arrW, arrG
	fill := e.arrFill[d]
	for k := range fill {
		fill[k] = 0
	}
	for src := 0; src < part.P(); src++ {
		base := e.shardBase[src]
		for _, f := range e.outFlows[src][d] {
			k := int(f.Dst) - lo
			at := arrPos[k] + int64(fill[k])
			fill[k]++
			arrW[at] = f.W
			arrG[at] = base + f.G
		}
	}
	// Pass 3: per-node in-place replay; nodes without operations are
	// not touched.
	gbase := e.shardBase[d]
	remIdxAll := e.remIdx[d]
	for k := 0; k < size; k++ {
		aw := arrW[arrPos[k]:arrPos[k+1]]
		ag := arrG[arrPos[k]:arrPos[k+1]]
		rem := remIdxAll[remPos[k]:remPos[k+1]]
		if len(aw) == 0 && len(rem) == 0 {
			continue
		}
		e.replayNode(d, k, lo+k, aw, ag, rem, gbase+remPos[k])
	}
}

// refoldShard rebuilds shard s's cached weight sums from its segments,
// each folded left to right as WeightedState.RecomputeWeights folds a
// node's task list. It runs after the commit on the rounds that end
// with core.RecomputeDue.
func (e *WeightedEngine) refoldShard(s int) {
	lo, hi := e.part.Range(s)
	for i := lo; i < hi; i++ {
		e.nodeWeight[i] = sumFloats(e.seg(s, i-lo))
	}
}

// arenaMinBlock is the smallest bump block the privatization arena
// allocates; blocks double from here, so a shard whose privatized
// working set peaks at W floats allocates O(log(W/arenaMinBlock))
// blocks over its lifetime.
const arenaMinBlock = 4096

// carve returns a zero-length slice with exactly capNeeded capacity
// from shard s's bump arena, allocating a new (doubled) block only
// when the current one cannot fit the request. The three-index
// expression pins the capacity so a later append cannot bleed into the
// next carve.
func (e *WeightedEngine) carve(s int, capNeeded int64) []float64 {
	blk := e.arenaCur[s]
	if int64(len(blk))-e.arenaOff[s] < capNeeded {
		if blk != nil {
			e.arenaOld[s] = append(e.arenaOld[s], blk)
			e.arenaDead[s] += int64(len(blk)) - e.arenaOff[s]
		}
		size := max(2*int64(len(blk)), capNeeded, arenaMinBlock)
		blk = make([]float64, size)
		e.arenaCur[s] = blk
		e.arenaOff[s] = 0
	}
	off := e.arenaOff[s]
	e.arenaOff[s] += capNeeded
	return blk[off : off : off+capNeeded]
}

// resetArena releases shard s's arena blocks; the caller must have
// repointed (or be about to rebuild) every private segment first.
func (e *WeightedEngine) resetArena(s int) {
	e.arenaCur[s] = nil
	e.arenaOff[s] = 0
	e.arenaOld[s] = nil
	e.arenaDead[s] = 0
}

// maybeCompact bounds the arena's dead space: once the floats carved
// and abandoned exceed the shard's packed pool size (or a fixed floor
// for small shards), the shard is rebuilt into a fresh packed slot
// layout — each node's segment copied verbatim, so contents and the
// trajectory are untouched — and the arena is released.
// Runs at the top of commitShard, before the round's replay carves.
func (e *WeightedEngine) maybeCompact(s int) {
	if e.arenaDead[s] <= max(int64(len(e.pool[s])), 4*arenaMinBlock) {
		return
	}
	lo, hi := e.part.Range(s)
	size := hi - lo
	segLen, noff := e.segLen[s], e.noff[s]
	noff[0] = 0
	for k := 0; k < size; k++ {
		noff[k+1] = noff[k] + segLen[k]
	}
	spare := growFloats(e.spare[s], noff[size])
	for k := 0; k < size; k++ {
		copy(spare[noff[k]:noff[k+1]], e.seg(s, k))
	}
	e.pool[s], e.spare[s] = spare, e.pool[s][:0]
	e.off[s], e.noff[s] = e.noff[s], e.off[s]
	for k := 0; k < size; k++ {
		e.priv[s][k] = nil
	}
	e.resetArena(s)
}

// replayNode replays node i (lo+k of shard d)'s slice of the round's move
// sequence: a two-way merge of its incoming tasks (aw/ag, in global
// source order) and its own removals (rem, idx-descending, occupying the
// contiguous global index range starting at remG0), ordered by global
// move index. Appends and swap-deletes run in place on the node's own
// segment — literally the moveTask operations — and the cached weight
// sum receives the identical sequence of float64 additions and
// subtractions the sequential engine would apply. The segment needs
// capacity for the transient peak length (every arrival can precede
// every removal); a pool-resident node that outgrows its slot is
// privatized first, with headroom so subsequent growth stays amortized
// O(1) per task.
func (e *WeightedEngine) replayNode(d, k, i int, aw []float64, ag []int64, rem []int32, remG0 int64) {
	segLen := e.segLen[d]
	seg := e.segFor(d, k, segLen[k]+int64(len(aw)))
	nw := e.nodeWeight[i]
	// One-sided nodes skip the merge: the corner source is removals-only
	// and the spreading frontier's leading edge is arrivals-only, so
	// these tight loops carry most of a corner-start round's operations.
	// The float64 operation sequence on nw is that of the merge.
	switch {
	case len(aw) == 0:
		for _, idx := range rem {
			last := len(seg) - 1
			w := seg[idx]
			seg[idx] = seg[last]
			seg = seg[:last]
			nw -= w
		}
	case len(rem) == 0:
		seg = append(seg, aw...)
		for _, w := range aw {
			nw += w
		}
	default:
		ai, ri := 0, 0
		for ai < len(aw) || ri < len(rem) {
			if ri >= len(rem) || (ai < len(aw) && ag[ai] < remG0+int64(ri)) {
				seg = append(seg, aw[ai])
				nw += aw[ai]
				ai++
				continue
			}
			idx := rem[ri]
			last := len(seg) - 1
			w := seg[idx]
			seg[idx] = seg[last]
			seg = seg[:last]
			nw -= w
			ri++
		}
	}
	e.nodeWeight[i] = nw
	segLen[k] = int64(len(seg))
	if e.priv[d][k] != nil {
		e.priv[d][k] = seg
	}
}

// segFor returns node lo+k of shard d's current segment with capacity
// for peak tasks: its slot or private segment when that is large
// enough, otherwise a private segment carved from the arena with
// growCap headroom, into which the tasks are copied — the node is
// privatized, or regrown with the old segment's capacity counted dead.
func (e *WeightedEngine) segFor(d, k int, peak int64) []float64 {
	cur := e.segLen[d][k]
	if pv := e.priv[d][k]; pv != nil {
		if int64(cap(pv)) >= peak {
			return pv[:cur]
		}
		e.arenaDead[d] += int64(cap(pv))
	} else if o := e.off[d]; o[k+1]-o[k] >= peak {
		return e.pool[d][o[k] : o[k]+cur : o[k+1]]
	}
	np := e.carve(d, growCap(peak))[:cur]
	copy(np, e.seg(d, k))
	e.priv[d][k] = np
	return np
}

// growCap sizes a privatized segment: the transient peak plus headroom
// so a node growing across consecutive rounds reallocates O(log growth)
// times.
func growCap(peak int64) int64 {
	return peak + peak/2 + 8
}

// sumFloats folds left to right — the summation order of
// WeightedState.RecomputeWeights over one node's task array.
func sumFloats(v []float64) float64 {
	w := 0.0
	for _, x := range v {
		w += x
	}
	return w
}

// WeightedEngine is driven through the shared core.Drive loop.
var _ core.Engine[*core.WeightedState] = (*WeightedEngine)(nil)
var _ core.DynamicEngine = (*WeightedEngine)(nil)

// Step implements core.Engine: one synchronous round r drawing
// randomness from base under the At(r, i) contract.
func (e *WeightedEngine) Step(r uint64, base *rng.Stream) (int64, error) {
	if base == nil {
		return 0, errors.New("shard: nil base stream")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return 0, ErrClosed
	}
	t0 := time.Now()
	e.dispatch(phase{kind: phaseLoads})
	t1 := time.Now()
	e.dispatch(phase{kind: phaseDecide, round: base.Split(r)})
	e.flowsCross += crossFlows(e.outFlows)
	// Serial inter-barrier bookkeeping: lay the shards' moves onto the
	// round's global move timeline (sources ascending — shards are
	// contiguous ascending index ranges).
	total := int64(0)
	for s, m := range e.moves {
		e.shardBase[s] = total
		total += m
	}
	t2 := time.Now()
	e.dispatch(phase{kind: phaseCommit})
	// The round-end check of core.ApplyMoves: refold every shard's sums,
	// then the total in node order, as RecomputeWeights does.
	e.sinceRecompute += total
	if core.RecomputeDue(e.sinceRecompute) {
		e.dispatch(phase{kind: phaseRefold})
		e.totalW = 0
		for _, w := range e.nodeWeight {
			e.totalW += w
		}
		e.sinceRecompute = 0
	}
	e.endRound(t0, t1, t2, time.Now())
	return total, nil
}

// ArenaStats reports the privatization arena's occupancy: the bytes in
// the active bump blocks, the bytes in retired blocks that live
// segments still reference, and the float64 slots stranded dead inside
// them. A RetiredBytes share that keeps growing across event batches
// signals segment churn outpacing the compaction heuristic.
type ArenaStats struct {
	CurBytes     int64 `json:"curBytes"`
	RetiredBytes int64 `json:"retiredBytes"`
	DeadFloats   int64 `json:"deadFloats"`
}

// Arena snapshots the privatization arena occupancy across all shards.
func (e *WeightedEngine) Arena() ArenaStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	var st ArenaStats
	for s := range e.arenaCur {
		st.CurBytes += int64(len(e.arenaCur[s])) * 8
		for _, blk := range e.arenaOld[s] {
			st.RetiredBytes += int64(len(blk)) * 8
		}
		st.DeadFloats += e.arenaDead[s]
	}
	return st
}

// ApplyEvents implements core.DynamicEngine: pre-round weighted
// workload mutation with WeightedState.ApplyEvents semantics — arrivals
// injected first (nodes ascending), then departures drained most-recent
// first, clamped to the queue — and with its exact floating-point
// bookkeeping order, so ledgers and trajectories stay bit-identical.
// Like the sequential state, it only counts its updates toward the
// next rebuild of the cached sums, which a round's end runs. A batch
// that core.EventBatch.Validate refuses fails with no partial
// application.
func (e *WeightedEngine) ApplyEvents(batch *core.EventBatch) (core.EventLedger, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return core.EventLedger{}, ErrClosed
	}
	var led core.EventLedger
	if batch == nil {
		return led, nil
	}
	if err := batch.Validate(e.csr.N()); err != nil {
		return led, err
	}
	// Two global passes mirror the sequential loops — all injections
	// (nodes ascending), then all drains — so the shared totalW and
	// ledger accumulators receive their float64 operations in the
	// identical global order; the per-node weight sums see only their
	// own operations, whose order the per-node grouping preserves.
	for i, ws := range batch.WeightArrivals {
		if len(ws) == 0 {
			continue
		}
		for _, w := range ws {
			e.nodeWeight[i] += w
			e.totalW += w
		}
		e.count += int64(len(ws))
		led.ArrivedTasks += int64(len(ws))
		for _, w := range ws {
			led.ArrivedWeight += w
		}
	}
	for i, d := range batch.WeightDepartures {
		k := e.drainCount(i, batch)
		if d <= 0 || k <= 0 {
			continue
		}
		oldCnt := e.nodeCount(i)
		var arr []float64
		if len(batch.WeightArrivals) != 0 {
			arr = batch.WeightArrivals[i]
		}
		cut := oldCnt + int64(len(arr)) - k
		seg := e.nodeSegment(i)
		t := 0.0
		for p := cut; p < oldCnt+int64(len(arr)); p++ {
			var w float64
			if p < oldCnt {
				w = seg[p]
			} else {
				w = arr[p-oldCnt]
			}
			e.nodeWeight[i] -= w
			e.totalW -= w
			t += w
		}
		e.count -= k
		led.DepartedTasks += k
		led.DepartedWeight += t
	}
	e.sinceRecompute += led.ArrivedTasks + led.DepartedTasks
	e.placeEvents(batch)
	return led, nil
}

// drainCount returns the number of tasks a departure request at node i
// actually removes: the request clamped to the queue after arrivals,
// exactly as WeightedState.Drain clamps it.
func (e *WeightedEngine) drainCount(i int, batch *core.EventBatch) int64 {
	if len(batch.WeightDepartures) == 0 {
		return 0
	}
	d := batch.WeightDepartures[i]
	if d <= 0 {
		return 0
	}
	have := e.nodeCount(i)
	if len(batch.WeightArrivals) != 0 {
		have += int64(len(batch.WeightArrivals[i]))
	}
	if d > have {
		d = have
	}
	return d
}

// nodeCount returns |x(i)| from the flat segment lengths.
func (e *WeightedEngine) nodeCount(i int) int64 {
	s := int(e.part.shardOf[i])
	lo, _ := e.part.Range(s)
	return e.segLen[s][i-lo]
}

// nodeSegment returns node i's current task segment (read-only view).
func (e *WeightedEngine) nodeSegment(i int) []float64 {
	s := int(e.part.shardOf[i])
	lo, _ := e.part.Range(s)
	return e.seg(s, i-lo)
}

// placeEvents lays a batch into the segments in place: each
// node the batch touches ends with (old ++ arrivals) cut by its applied
// drain — the layout Inject-then-Drain produces — and no other node
// moves. Departures leave most-recent first, so a drain that reaches
// the old tasks only shortens the segment, and the arrivals a drain
// leaves append into the node's slot slack or, when the slot or
// private segment is full, into a segment carved from the arena
// exactly as the commit grows a node (segFor). Beyond the batch's
// dense scan the work is O(events); maybeCompact bounds the dead space
// the regrowths leave. Runs after the caller's accounting, which reads
// the pre-batch segments.
func (e *WeightedEngine) placeEvents(batch *core.EventBatch) {
	for i := range e.csr.N() {
		var arr []float64
		if len(batch.WeightArrivals) != 0 {
			arr = batch.WeightArrivals[i]
		}
		keep := int64(len(arr)) - e.drainCount(i, batch)
		if keep == 0 && len(arr) == 0 {
			continue
		}
		s := int(e.part.shardOf[i])
		lo, _ := e.part.Range(s)
		k := i - lo
		if keep <= 0 {
			e.segLen[s][k] += keep
			continue
		}
		seg := append(e.segFor(s, k, e.segLen[s][k]+keep), arr[:keep]...)
		e.segLen[s][k] = int64(len(seg))
	}
}

// State implements core.Engine with a read-only view of the live
// storage, built by core.NewWeightedStateFromSegments: each node's task
// list aliases its pool slot or private segment (capacity-pinned, so an
// append copies out), and the cached weight sums, total and recompute
// counter are adopted as they are, so the state's loads and potentials
// equal the sequential engine's exactly. Only the n slice headers are
// written, into one engine-owned buffer allocated on the first call;
// the view is valid until the next Step, ApplyEvents or Close.
func (e *WeightedEngine) State() (*core.WeightedState, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, ErrClosed
	}
	if e.segView == nil {
		e.segView = make([][]float64, e.csr.N())
	}
	// The stop check runs this every round, so the loop is seg() with the
	// per-shard slices hoisted and the capacities pinned here: the
	// refresh is then one streaming pass over the headers.
	for s := 0; s < e.part.P(); s++ {
		lo, hi := e.part.Range(s)
		pool, off, segLen, priv := e.pool[s], e.off[s], e.segLen[s], e.priv[s]
		view := e.segView[lo:hi]
		for k := range view {
			l := segLen[k]
			if pv := priv[k]; pv != nil {
				view[k] = pv[:l:l]
			} else {
				o := off[k]
				view[k] = pool[o : o+l : o+l]
			}
		}
	}
	return core.NewWeightedStateFromSegments(e.sys, e.segView, e.nodeWeight, e.totalW, int(e.sinceRecompute))
}

// NodeWeights returns a copy of the cached per-node weight sums Wᵢ.
func (e *WeightedEngine) NodeWeights() []float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]float64(nil), e.nodeWeight...)
}

// NodeLoad returns node i's current load ℓᵢ = Wᵢ/sᵢ from the cached
// weight sums — an O(1) read (WeightedState.Load semantics) that lets
// a live observer (the serve daemon's GET /load) answer per-node
// queries without materializing the full state.
func (e *WeightedEngine) NodeLoad(i int) (float64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if i < 0 || i >= e.csr.N() {
		return 0, fmt.Errorf("shard: load of node %d of %d", i, e.csr.N())
	}
	return e.nodeWeight[i] / e.sys.Speed(i), nil
}

// TaskCount returns the current number of tasks.
func (e *WeightedEngine) TaskCount() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.count
}

// Footprint returns the engine's resident state in bytes: the CSR
// arrays, the task-weight pools and private segments, the offset and
// length arrays, every flat vector, the partition's tables and lists
// and the decide scratch — the "bytes per node" numerator of the
// weighted scaling benchmark. The in-place commit and event paths keep
// no ping-pong twin of the pool; spare is empty until the arena's dead
// space forces a compaction. A cluster worker's engine holds its own
// rows and halo only (see Engine.Footprint).
func (e *WeightedEngine) Footprint() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	bytes := e.csr.Bytes()
	bytes += int64(len(e.nodeWeight)+len(e.loads)) * 8
	bytes += e.part.bytes() + int64(len(e.segView))*24
	for _, sc := range e.scratch {
		bytes += sc.ws.Footprint()
	}
	for s := range e.pool {
		bytes += int64(cap(e.pool[s])+cap(e.spare[s])) * 8
		bytes += int64(len(e.off[s])+len(e.noff[s])+len(e.segLen[s])+len(e.remPos[s])+len(e.arrPos[s])) * 8
		bytes += int64(cap(e.remIdx[s]))*4 + int64(len(e.arrCnt[s])+len(e.arrFill[s]))*4
		bytes += int64(cap(e.arrW[s]))*8 + int64(cap(e.arrG[s]))*8
		// Private segments are carved from the arena blocks, so the
		// blocks — not the per-node views — carry the resident bytes.
		bytes += int64(len(e.priv[s])) * 24
		bytes += int64(len(e.arenaCur[s])) * 8
		for _, blk := range e.arenaOld[s] {
			bytes += int64(len(blk)) * 8
		}
		for d := range e.outFlows[s] {
			bytes += int64(cap(e.outFlows[s][d])) * 24
		}
	}
	return bytes
}

// String describes the engine configuration.
func (e *WeightedEngine) String() string {
	return fmt.Sprintf("shard.WeightedEngine(n=%d, P=%d, workers=%d, %s)", e.csr.N(), e.part.P(), e.workers, e.part.Strategy())
}

// growFloats returns buf resized to n elements, reallocating — with at
// least doubled capacity, so a buffer oscillating around a slowly
// rising peak reallocates O(log peak) times, not once per round — only
// when the capacity is insufficient (contents are unspecified).
func growFloats(buf []float64, n int64) []float64 {
	if int64(cap(buf)) < n {
		return make([]float64, n, max(n, 2*int64(cap(buf))))
	}
	return buf[:n]
}

// growInt64s is growFloats for []int64.
func growInt64s(buf []int64, n int64) []int64 {
	if int64(cap(buf)) < n {
		return make([]int64, n, max(n, 2*int64(cap(buf))))
	}
	return buf[:n]
}
