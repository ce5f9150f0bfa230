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
// shards on the phase pool. See the package comment for the
// race-freedom and determinism argument.
//
// Engine implements core.Engine[*core.UniformState] and
// core.DynamicEngine, so core.Drive gives it stop conditions, traces
// and dynamic workloads exactly as for every other engine. Public
// methods serialize on an internal mutex.
type Engine struct {
	phasePool
	sys   *core.System
	csr   *graph.CSR
	proto core.UniformNodeProtocol
	// gbase is the global id of row 0 (see newEngine): 0 in process, the
	// first own node in a cluster worker.
	gbase int

	counts []int64
	// loads is the round-start load snapshot the decide phase reads. In
	// process every entry is a row; a cluster worker's rows are followed
	// by its halo slots, which the halo-loads frame refreshes.
	loads []float64

	// Per-shard buffers (indexed by shard, not worker, so results do
	// not depend on which worker evaluates a shard).
	local    [][]int64            // dense deltas for the shard's own range
	outFlows [][][]transport.Flow // outFlows[s][d]: migrations from shard s into shard d
	moves    []int64

	// Per-worker scratch for the decide loop.
	scratch []*decideScratch
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
	kind  int // phaseLoads | phaseDecide | phaseCommit | phaseRefold
	round *rng.Stream
}

const (
	phaseLoads = iota
	phaseDecide
	phaseCommit
	phaseRefold // weighted only: rebuild the cached weight sums
)

// phasePool is the persistent worker pool both in-process engines
// embed: the kick channels and the barrier that run one phase on every
// shard, each shard's busy time and the phases' wall times, and the
// cross-shard flow tally. Shards are striped over the workers (s ≡ w
// mod workers) and every result lands in a per-shard buffer, so the
// striping never influences the trajectory. Only New and NewWeighted
// start it: a cluster worker's engine runs its one shard's phases
// itself and starts no goroutine.
type phasePool struct {
	part    *Partition
	mu      sync.Mutex
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

// start launches the pool's workers. Worker w runs run(s, w, ph) for
// every shard s striped onto it and adds the time it took to the
// shard's decide or commit busy time (a refold counts as commit).
func (p *phasePool) start(run func(s, w int, ph phase)) {
	p.kick = make([]chan phase, p.workers)
	for w := range p.kick {
		p.kick[w] = make(chan phase)
		go func() {
			for ph := range p.kick[w] {
				for s := w; s < p.part.P(); s += p.workers {
					t := time.Now()
					run(s, w, ph)
					switch ph.kind {
					case phaseDecide:
						p.busy[s].Decide += time.Since(t)
					case phaseCommit, phaseRefold:
						p.busy[s].Commit += time.Since(t)
					}
				}
				p.wg.Done()
			}
		}()
	}
}

// dispatch runs one phase on every worker and blocks at the barrier.
// Callers hold p.mu.
func (p *phasePool) dispatch(ph phase) {
	p.wg.Add(p.workers)
	for _, ch := range p.kick {
		ch <- ph
	}
	p.wg.Wait()
}

// endRound adds one round's phase wall times: snapshot from t0 to t1,
// decide to t2 and commit to t3. Callers hold p.mu.
func (p *phasePool) endRound(t0, t1, t2, t3 time.Time) {
	p.times.Snapshot += t1.Sub(t0)
	p.times.Decide += t2.Sub(t1)
	p.times.Commit += t3.Sub(t2)
	p.times.Rounds++
}

// crossFlows counts the flow records of outFlows[s][d] with d ≠ s: one
// round's cross-shard traffic, read after the decide barrier. Telemetry
// only; it has no effect on the trajectory.
func crossFlows[F any](outFlows [][][]F) int64 {
	n := int64(0)
	for s := range outFlows {
		for d, l := range outFlows[s] {
			if d != s {
				n += int64(len(l))
			}
		}
	}
	return n
}

// Phases implements PhaseTimer: cumulative per-phase wall-clock time
// across every Step so far, with each shard's busy time.
func (p *phasePool) Phases() PhaseTimes {
	p.mu.Lock()
	defer p.mu.Unlock()
	t := p.times
	t.Shards = append([]ShardTimes(nil), p.busy...)
	return t
}

// CrossFlows returns the cumulative number of cross-shard flow records
// the decide phases have produced — the engine's inter-shard traffic
// volume, the in-process analogue of the cluster's wire flows.
func (p *phasePool) CrossFlows() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.flowsCross
}

// Partition exposes the engine's partition (for stats and tests).
func (p *phasePool) Partition() *Partition { return p.part }

// Workers returns the worker-pool size.
func (p *phasePool) Workers() int { return p.workers }

// Close stops the worker pool. Idempotent; Step after Close returns
// ErrClosed.
func (p *phasePool) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	p.closed = true
	for _, ch := range p.kick {
		close(ch)
	}
	return nil
}

// New validates the instance, partitions the CSR view of the network,
// and starts the worker pool. counts is copied.
func New(sys *core.System, proto core.UniformNodeProtocol, counts []int64, opts Options) (*Engine, error) {
	part, workers, err := enginePartition(sys, opts)
	if err != nil {
		return nil, err
	}
	e, err := newEngine(sys, proto, counts, part, workers, 0)
	if err != nil {
		return nil, err
	}
	e.start(e.runShard)
	return e, nil
}

// newEngine builds the shard kernel over part, with decide scratch for
// the given worker count, and starts no goroutine. The engine holds
// counts for sys's N() rows and loads for every id of part's id space. gbase is the global id of row 0: node i's stream is
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
		phasePool: phasePool{part: part, workers: workers, busy: make([]ShardTimes, p)},
		sys:       sys,
		csr:       csr,
		proto:     proto,
		gbase:     gbase,
		counts:    st.Counts(),
		loads:     make([]float64, len(part.shardOf)),
		local:     make([][]int64, p),
		outFlows:  make([][][]transport.Flow, p),
		moves:     make([]int64, p),
		scratch:   make([]*decideScratch, workers),
	}
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
	for w := range e.scratch {
		e.scratch[w] = &decideScratch{outflows: make([]core.Outflow, 0, maxDeg)}
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

// runShard runs one phase of shard s on pool worker w.
func (e *Engine) runShard(s, w int, ph phase) {
	switch ph.kind {
	case phaseLoads:
		e.snapshotLoads(s)
	case phaseDecide:
		e.decideShard(s, ph.round, e.scratch[w])
	case phaseCommit:
		e.commitShard(s)
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
	moves := int64(0)
	for i := lo; i < hi; i++ {
		wi := e.counts[i]
		if wi == 0 {
			continue
		}
		roundStream.SplitTo(uint64(e.gbase+i), &sc.child)
		out, m := e.proto.DecideNode(sys, i, wi, e.loads, &sc.child, sc.outflows)
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
// local buffer plus the flow list outFlows[src][s] of every other shard
// (in a cluster worker, the lists its grant frame carried). Shard s's
// counts are written only here, only by the worker running s, after the
// decide barrier — hence no data races and no locked hot path.
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
		for _, f := range e.outFlows[src][s] {
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
	e.flowsCross += crossFlows(e.outFlows)
	t2 := time.Now()
	e.dispatch(phase{kind: phaseCommit})
	e.endRound(t0, t1, t2, time.Now())
	moves := int64(0)
	for _, m := range e.moves {
		moves += m
	}
	return moves, nil
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

// String describes the engine configuration.
func (e *Engine) String() string {
	return fmt.Sprintf("shard.Engine(n=%d, P=%d, workers=%d, %s)", e.csr.N(), e.part.P(), e.workers, e.part.Strategy())
}
