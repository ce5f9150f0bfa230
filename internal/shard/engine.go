package shard

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/transport"
)

// ErrClosed is returned by Step on an engine whose Close has been
// called.
var ErrClosed = errors.New("shard: engine is closed")

// Options configures engine construction. The zero value is valid:
// one shard per worker, one worker per core, contiguous cuts.
type Options struct {
	// Shards is the partition size P (0 means Workers; clamped to
	// [1, n]). The trajectory is identical for every value.
	Shards int
	// Workers bounds the worker goroutines (0 means GOMAXPROCS; never
	// more than Shards).
	Workers int
	// Strategy selects the partitioner ("" means Contiguous).
	Strategy Strategy
}

// Engine is the CSR-backed sharded execution engine for uniform tasks.
// State lives in flat arrays (counts, loads); each round runs in three
// barrier-separated phases (snapshot loads, decide, commit) across P
// shards on a persistent worker pool. See the package comment for the
// race-freedom and determinism argument.
//
// Engine implements core.Engine[*core.UniformState] and
// core.DynamicEngine, so core.Drive gives it stop conditions, traces
// and dynamic workloads exactly as for every other engine. Public
// methods serialize on an internal mutex.
type Engine struct {
	sys   *core.System
	csr   *graph.CSR
	proto core.UniformNodeProtocol
	part  *Partition
	// gbase is the global id of row 0 (see newEngine): 0 in process, the
	// first own node in a cluster worker.
	gbase int

	mu     sync.Mutex
	counts []int64
	loads  []float64
	// view is the decide phase's read surface over loads. In process it
	// aliases loads zero-copy and every entry is fresh; a cluster worker
	// refreshes only its own span and halo slots (see LoadView).
	view LoadView

	// Per-shard buffers (indexed by shard, not worker, so results do
	// not depend on which worker evaluates a shard).
	local    [][]int64            // dense deltas for the shard's own range
	outFlows [][][]transport.Flow // outFlows[s][d]: migrations from shard s into shard d
	moves    []int64

	// tr exchanges the outbound flow lists across the decide/commit
	// barrier: memTransport (zero-copy slice handoff) in process, a
	// socket-backed transport in a cluster worker.
	tr Transport

	// Per-worker scratch for the decide loop.
	scratch []*decideScratch

	workers int
	kick    []chan phase
	wg      sync.WaitGroup
	closed  bool
	times   PhaseTimes
	busy    []ShardTimes // per-shard busy time, written by the shard's worker

	// flowsCross counts the cross-shard flow records produced by decide
	// phases so far (telemetry; read via CrossFlows).
	flowsCross int64
}

// decideScratch is one worker's reusable decide-loop storage: outflows
// holds a node's outflows (capacity Δ, so DecideNode never grows it),
// and child is the SplitTo target, so deriving a node stream allocates
// nothing.
type decideScratch struct {
	outflows []core.Outflow
	child    rng.Stream
}

// phase is one barrier-separated stage of a round, dispatched to every
// worker.
type phase struct {
	kind  int // phaseLoads | phaseDecide | phaseCommit
	round *rng.Stream
}

const (
	phaseLoads = iota
	phaseDecide
	phaseCommit
)

// New validates the instance, partitions the CSR view of the network,
// and starts the worker pool. counts is copied.
func New(sys *core.System, proto core.UniformNodeProtocol, counts []int64, opts Options) (*Engine, error) {
	part, workers, err := enginePartition(sys, opts)
	if err != nil {
		return nil, err
	}
	return newEngine(sys, proto, counts, part, workers, 0)
}

// newEngine builds an engine over part with the given worker count. The
// engine holds counts for sys's N() rows and loads for every id of
// part's id space. gbase is the global id of row 0: node i's stream is
// keyed by gbase+i, so a cluster worker deciding its own rows in local
// ids draws the streams of their global ids. In process gbase is 0 and
// the id space is the whole instance.
func newEngine(sys *core.System, proto core.UniformNodeProtocol, counts []int64, part *Partition, workers, gbase int) (*Engine, error) {
	if proto == nil {
		return nil, errors.New("shard: nil protocol")
	}
	// Reuse the state constructor for count validation (length, sign).
	st, err := core.NewUniformState(sys, counts)
	if err != nil {
		return nil, err
	}
	csr := sys.Graph().CSR()
	p := part.P()
	e := &Engine{
		sys:      sys,
		csr:      csr,
		proto:    proto,
		part:     part,
		gbase:    gbase,
		counts:   st.Counts(),
		loads:    make([]float64, len(part.shardOf)),
		local:    make([][]int64, p),
		outFlows: make([][][]transport.Flow, p),
		moves:    make([]int64, p),
		busy:     make([]ShardTimes, p),
		tr:       newMemTransport(p),
		scratch:  make([]*decideScratch, workers),
		workers:  workers,
		kick:     make([]chan phase, workers),
	}
	e.view = newLoadView(e.loads, sys.N())
	maxDeg := csr.MaxDegree()
	for s := 0; s < p; s++ {
		lo, hi := part.Range(s)
		e.local[s] = make([]int64, hi-lo)
		e.outFlows[s] = make([][]transport.Flow, p)
		for d := 0; d < p; d++ {
			if c := part.CrossEdges(s, d); c > 0 {
				// A shard emits at most one flow entry per cross edge
				// per round, so this capacity is never exceeded: the
				// decide loop appends without ever growing.
				e.outFlows[s][d] = make([]transport.Flow, 0, c)
			}
		}
	}
	for w := 0; w < workers; w++ {
		e.scratch[w] = &decideScratch{outflows: make([]core.Outflow, 0, maxDeg)}
		e.kick[w] = make(chan phase)
		go func(w int) {
			for ph := range e.kick[w] {
				e.runPhase(w, ph)
				e.wg.Done()
			}
		}(w)
	}
	return e, nil
}

// enginePartition partitions sys's graph for an in-process engine: P =
// opts.Shards (0 means the worker count), clamped to [1, n], and the
// worker count opts.Workers (0 means GOMAXPROCS), at most P.
func enginePartition(sys *core.System, opts Options) (*Partition, int, error) {
	if sys == nil {
		return nil, 0, errors.New("shard: nil system")
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	shards := opts.Shards
	if shards <= 0 {
		shards = workers
	}
	part, err := NewPartition(sys.Graph().CSR(), shards, opts.Strategy)
	if err != nil {
		return nil, 0, err
	}
	return part, min(workers, part.P()), nil
}

// dispatch runs one phase on every worker and blocks at the barrier.
// Callers hold e.mu.
func (e *Engine) dispatch(ph phase) {
	e.wg.Add(e.workers)
	for _, ch := range e.kick {
		ch <- ph
	}
	e.wg.Wait()
}

// runPhase executes a phase for every shard assigned to worker w
// (shards are striped over workers: s ≡ w mod workers). Shard results
// land in per-shard buffers, so the striping never influences the
// trajectory.
func (e *Engine) runPhase(w int, ph phase) {
	for s := w; s < e.part.P(); s += e.workers {
		switch ph.kind {
		case phaseLoads:
			e.snapshotLoads(s)
		case phaseDecide:
			t := time.Now()
			e.decideShard(s, ph.round, e.scratch[w])
			e.tr.PublishFlows(s, e.outFlows[s])
			e.busy[s].Decide += time.Since(t)
		case phaseCommit:
			t := time.Now()
			e.commitShard(s)
			e.busy[s].Commit += time.Since(t)
		}
	}
}

// snapshotLoads refreshes shard s's slice of the round-start load
// snapshot. The division matches the sequential engine's Load exactly.
func (e *Engine) snapshotLoads(s int) {
	lo, hi := e.part.Range(s)
	for i := lo; i < hi; i++ {
		e.loads[i] = float64(e.counts[i]) / e.sys.Speed(i)
	}
}

// decideShard evaluates shard s's protocol decisions against the
// round-start snapshot, scattering migrations into the shard's dense
// local delta (in-shard destinations) and its per-destination flow
// lists (cross-shard destinations). It only reads shared state and only
// writes shard-s buffers. The node stream is the contract stream
// roundStream.Split(i), derived allocation-free via SplitTo.
func (e *Engine) decideShard(s int, roundStream *rng.Stream, sc *decideScratch) {
	part, sys := e.part, e.sys
	lo, hi := part.Range(s)
	local := e.local[s]
	for k := range local {
		local[k] = 0
	}
	flows := e.outFlows[s]
	for d := range flows {
		if flows[d] != nil {
			flows[d] = flows[d][:0]
		}
	}
	loads := e.view.Dense()
	moves := int64(0)
	for i := lo; i < hi; i++ {
		wi := e.counts[i]
		if wi == 0 {
			continue
		}
		roundStream.SplitTo(uint64(e.gbase+i), &sc.child)
		out, m := e.proto.DecideNode(sys, i, wi, loads, &sc.child, sc.outflows)
		if m == 0 {
			continue
		}
		moves += m
		local[i-lo] -= m
		for _, f := range out {
			if d := int(part.shardOf[f.To]); d == s {
				local[int(f.To)-lo] += f.Count
			} else {
				flows[d] = append(flows[d], transport.Flow{Node: f.To, Amount: f.Count})
			}
		}
	}
	e.moves[s] = moves
}

// commitShard applies every delta addressed to shard s: its own dense
// local buffer plus the flow lists every other shard published through
// the transport. Shard s's counts are written only here, only by the
// worker running s, after the decide barrier — hence no data races and
// no locked hot path.
func (e *Engine) commitShard(s int) {
	lo, _ := e.part.Range(s)
	for k, d := range e.local[s] {
		if d != 0 {
			e.counts[lo+k] += d
		}
	}
	for src := 0; src < e.part.P(); src++ {
		if src == s {
			continue
		}
		for _, f := range e.tr.Flows(src, s) {
			e.counts[f.Node] += f.Amount
		}
	}
}

// Engine is driven through the shared core.Drive loop.
var _ core.Engine[*core.UniformState] = (*Engine)(nil)
var _ core.DynamicEngine = (*Engine)(nil)

// Step implements core.Engine: one synchronous round r drawing
// randomness from base under the At(r, i) contract.
func (e *Engine) Step(r uint64, base *rng.Stream) (int64, error) {
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
	// Telemetry only: tally this round's cross-shard flow records.
	// Integer length reads after the decide barrier — no effect on the
	// trajectory.
	for s := range e.outFlows {
		for d, l := range e.outFlows[s] {
			if d != s {
				e.flowsCross += int64(len(l))
			}
		}
	}
	t2 := time.Now()
	e.dispatch(phase{kind: phaseCommit})
	t3 := time.Now()
	e.times.Snapshot += t1.Sub(t0)
	e.times.Decide += t2.Sub(t1)
	e.times.Commit += t3.Sub(t2)
	e.times.Rounds++
	moves := int64(0)
	for _, m := range e.moves {
		moves += m
	}
	return moves, nil
}

// Phases implements PhaseTimer: cumulative per-phase wall-clock time
// across every Step so far.
func (e *Engine) Phases() PhaseTimes {
	e.mu.Lock()
	defer e.mu.Unlock()
	t := e.times
	t.Shards = append([]ShardTimes(nil), e.busy...)
	return t
}

// CrossFlows returns the cumulative number of cross-shard flow records
// the decide phases have produced — the engine's inter-shard traffic
// volume, the in-process analogue of the cluster's wire flows.
func (e *Engine) CrossFlows() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.flowsCross
}

// ApplyEvents implements core.DynamicEngine: pre-round workload
// mutation through the shared ApplyCountsBatch semantics.
func (e *Engine) ApplyEvents(batch *core.EventBatch) (core.EventLedger, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return core.EventLedger{}, ErrClosed
	}
	return core.ApplyCountsBatch(e.counts, batch)
}

// State implements core.Engine by materializing the flat counts as a
// core.UniformState for stop conditions and potential sampling.
func (e *Engine) State() (*core.UniformState, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, ErrClosed
	}
	return core.NewUniformState(e.sys, e.counts)
}

// Counts returns a copy of the current per-node task counts.
func (e *Engine) Counts() []int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]int64, len(e.counts))
	copy(out, e.counts)
	return out
}

// NodeLoad returns node i's current load ℓᵢ = wᵢ/sᵢ from the flat
// counts — an O(1) read (UniformState.Load semantics) that lets a live
// observer (the serve daemon's GET /load) answer per-node queries
// without materializing the full state.
func (e *Engine) NodeLoad(i int) (float64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if i < 0 || i >= len(e.counts) {
		return 0, fmt.Errorf("shard: load of node %d of %d", i, len(e.counts))
	}
	return float64(e.counts[i]) / e.sys.Speed(i), nil
}

// Partition exposes the engine's partition (for stats and tests).
func (e *Engine) Partition() *Partition { return e.part }

// Workers returns the worker-pool size.
func (e *Engine) Workers() int { return e.workers }

// Footprint returns the engine's resident state in bytes: the CSR
// arrays, every flat vector, the partition's tables and lists, and every
// preallocated shard and decide buffer. It is the "bytes per node"
// numerator of the scaling benchmarks — memory is bounded by the CSR
// arrays plus O(n) vectors and O(cut) flow capacity, never by edge
// maps. A cluster worker's engine holds its own rows and halo only, so
// its footprint is O(n/P + |halo|). The System's vectors are counted by
// System.Footprint.
func (e *Engine) Footprint() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	bytes := e.csr.Bytes()
	bytes += int64(len(e.counts)) * 8
	bytes += int64(len(e.loads)) * 8
	bytes += e.part.bytes()
	for _, sc := range e.scratch {
		bytes += int64(cap(sc.outflows)) * 16
	}
	for s := range e.local {
		bytes += int64(len(e.local[s])) * 8
		for d := range e.outFlows[s] {
			bytes += int64(cap(e.outFlows[s][d])) * 16
		}
	}
	return bytes
}

// Close stops the worker pool. Idempotent; Step after Close returns
// ErrClosed.
func (e *Engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil
	}
	e.closed = true
	for _, ch := range e.kick {
		close(ch)
	}
	return nil
}

// String describes the engine configuration.
func (e *Engine) String() string {
	return fmt.Sprintf("shard.Engine(n=%d, P=%d, workers=%d, %s)", e.csr.N(), e.part.P(), e.workers, e.part.Strategy())
}
