package harness

import (
	"fmt"
	"runtime"

	"repro/internal/core"
	"repro/internal/shard"
	"repro/internal/task"
)

// Engine names accepted by the dispatchers. Every engine draws node i's
// round-r randomness from the same (seed, r, i)-keyed stream, so for a
// given seed all of them execute the identical trajectory — the choice
// only affects how the rounds are computed (one goroutine, a CSR-sharded
// two-phase pipeline, or that pipeline's shards behind the wire
// protocol).
const (
	// EngineSeq is the sequential reference engine in package core.
	EngineSeq = "seq"
	// EngineShard is the CSR-backed sharded engine (shard.Engine for
	// uniform tasks, shard.WeightedEngine for weighted ones), built for
	// 10⁵⁺-node instances.
	EngineShard = "shard"
	// EngineCluster is the cross-process coordinator/worker execution
	// (shard.UniformCluster / shard.WeightedCluster): one worker per
	// shard, each running the shard engine's decide/commit code behind
	// the wire transport. The harness spawns the workers in process over
	// net.Pipe, so every frame of the wire protocol is exercised;
	// cmd/lbshard runs the same workers as separate OS processes.
	EngineCluster = "cluster"
)

// UniformEngines lists the engine names RunUniformEngine accepts.
func UniformEngines() []string {
	return []string{EngineSeq, EngineShard, EngineCluster}
}

// WeightedEngines lists the engine names RunWeightedEngine accepts.
func WeightedEngines() []string {
	return []string{EngineSeq, EngineShard, EngineCluster}
}

// WeightedEngineSupports reports whether the named engine can execute
// the given weighted protocol: shard needs a round that factorizes into
// per-node decisions against flat state (core.WeightedFlatProtocol);
// seq executes anything. Experiments that race several protocols on one
// engine use this to fall back to seq for the ones an engine cannot
// run.
func WeightedEngineSupports(engine string, proto core.WeightedProtocol) bool {
	switch engine {
	case "", EngineSeq:
		return true
	case EngineShard:
		_, ok := proto.(core.WeightedFlatProtocol)
		return ok
	case EngineCluster:
		// The cluster additionally needs the protocol to be expressible
		// on the wire; only the paper's Algorithm 2 is registered.
		_, ok := proto.(core.Algorithm2)
		return ok
	}
	return false
}

// EngineOpts tunes how a named engine executes — never what it
// computes: every combination yields the bit-identical trajectory, so
// these knobs are free to vary per benchmark or deployment.
type EngineOpts struct {
	// Workers pins the shard engine's worker-pool size (≤ 0 means
	// GOMAXPROCS).
	Workers int
	// Shards sets the shard engine's partition count P (0 means
	// Workers).
	Shards int
	// Strategy selects the shard partitioner: "contiguous" (default)
	// or "degree".
	Strategy string
	// Probe, when non-nil, receives the live engine after the run
	// completes but before it is closed, so callers can extract
	// engine-specific diagnostics (phase timings, footprints) that the
	// uniform return values cannot carry. The engine is quiescent during
	// the call; the seq engine passes its *core.UniformState /
	// *core.WeightedState. Probe must not retain the value.
	Probe func(engine any)
}

// Resolved returns the execution parameters that actually run for the
// named engine on an n-node instance: the zero-value defaults filled in
// exactly as the engine constructors fill them (GOMAXPROCS workers
// capped at the node or shard count, shard count defaulting to the
// worker count and clamped to [1, n], the default partition strategy
// spelled out). Reports and headers should print the resolved values,
// not the raw flags.
func (eo EngineOpts) Resolved(engine string, n int) EngineOpts {
	if n < 1 {
		n = 1
	}
	switch engine {
	case "", EngineSeq:
		return EngineOpts{Workers: 1}
	case EngineShard:
		w := eo.Workers
		if w <= 0 {
			w = runtime.GOMAXPROCS(0)
		}
		p := eo.Shards
		if p <= 0 {
			p = w
		}
		if p < 1 {
			p = 1
		}
		if p > n {
			p = n
		}
		if w > p {
			w = p
		}
		strategy := eo.Strategy
		if strategy == "" {
			strategy = string(shard.Contiguous)
		}
		return EngineOpts{Workers: w, Shards: p, Strategy: strategy}
	case EngineCluster:
		// One worker process per shard.
		p := eo.Shards
		if p <= 0 {
			p = eo.Workers
		}
		if p <= 0 {
			p = runtime.GOMAXPROCS(0)
		}
		if p < 1 {
			p = 1
		}
		if p > n {
			p = n
		}
		strategy := eo.Strategy
		if strategy == "" {
			strategy = string(shard.Contiguous)
		}
		return EngineOpts{Workers: p, Shards: p, Strategy: strategy}
	}
	return eo
}

// UniformEngineHandle is a constructed-but-not-yet-driven uniform
// engine. Run*EngineOpts builds one, drives it through core.Drive, and
// closes it; long-lived owners (the serve daemon) instead keep the
// handle and step the engine themselves.
type UniformEngineHandle struct {
	// Engine executes rounds; every engine also takes workload events
	// (core.RequireEvents): seq and shard as core.DynamicEngine, the
	// cluster as core.EventStepper.
	Engine core.Engine[*core.UniformState]
	// Counts snapshots the final per-node task counts.
	Counts func() []int64
	// Raw is the value EngineOpts.Probe receives: the concrete engine,
	// except for seq where it is the *core.UniformState itself.
	Raw any
	// Close releases engine goroutines; safe to call exactly once.
	Close func() error
}

// BuildUniformEngine constructs the named uniform engine ("" means seq)
// without running it.
func BuildUniformEngine(engine string, sys *core.System, proto core.UniformNodeProtocol, counts []int64, eo EngineOpts) (*UniformEngineHandle, error) {
	switch engine {
	case "", EngineSeq:
		st, err := core.NewUniformState(sys, counts)
		if err != nil {
			return nil, err
		}
		eng, err := core.SeqUniformEngine(st, proto)
		if err != nil {
			return nil, err
		}
		return &UniformEngineHandle{Engine: eng, Counts: st.Counts, Raw: st, Close: func() error { return nil }}, nil
	case EngineShard:
		eng, err := shard.New(sys, proto, counts, shard.Options{
			Shards:   eo.Shards,
			Workers:  eo.Workers,
			Strategy: shard.Strategy(eo.Strategy),
		})
		if err != nil {
			return nil, err
		}
		return &UniformEngineHandle{Engine: eng, Counts: eng.Counts, Raw: eng, Close: eng.Close}, nil
	case EngineCluster:
		cl, err := shard.StartLocalUniformCluster(sys, proto, counts, shard.Options{
			Shards:   eo.Shards,
			Workers:  eo.Workers,
			Strategy: shard.Strategy(eo.Strategy),
		})
		if err != nil {
			return nil, err
		}
		return &UniformEngineHandle{
			Engine: cl,
			Counts: func() []int64 {
				cs, err := cl.Counts()
				if err != nil {
					return nil
				}
				return cs
			},
			Raw:   cl,
			Close: cl.Close,
		}, nil
	default:
		return nil, fmt.Errorf("harness: unknown uniform engine %q (want seq|shard|cluster)", engine)
	}
}

// RunUniformEngine runs one uniform-task simulation on the named engine
// ("" means seq) through the shared core.Drive loop with default
// engine tuning; see RunUniformEngineOpts.
func RunUniformEngine(engine string, sys *core.System, proto core.UniformNodeProtocol, counts []int64, stop core.UniformStop, opts core.RunOpts) (core.RunResult, []int64, error) {
	return RunUniformEngineOpts(engine, sys, proto, counts, stop, opts, EngineOpts{})
}

// RunUniformEngineOpts runs one uniform-task simulation on the named
// engine ("" means seq) through the shared core.Drive loop, and returns
// the run result together with the final per-node task counts (valid on
// the ErrMaxRounds path too, so callers can chain phases).
func RunUniformEngineOpts(engine string, sys *core.System, proto core.UniformNodeProtocol, counts []int64, stop core.UniformStop, opts core.RunOpts, eo EngineOpts) (core.RunResult, []int64, error) {
	h, err := BuildUniformEngine(engine, sys, proto, counts, eo)
	if err != nil {
		return core.RunResult{}, nil, err
	}
	defer h.Close()
	res, err := core.Drive[*core.UniformState](h.Engine, stop, opts)
	if eo.Probe != nil {
		eo.Probe(h.Raw)
	}
	return res, h.Counts(), err
}

// RunWeightedEngine runs one weighted-task simulation on the named
// engine ("" means seq) with default engine tuning; see
// RunWeightedEngineOpts.
func RunWeightedEngine(engine string, sys *core.System, proto core.WeightedProtocol, perNode []task.Weights, stop core.WeightedStop, opts core.RunOpts) (core.RunResult, *core.WeightedState, error) {
	return RunWeightedEngineOpts(engine, sys, proto, perNode, stop, opts, EngineOpts{})
}

// RunWeightedEngineOpts runs one weighted-task simulation on the named
// engine ("" means seq) through the shared core.Drive loop, and returns
// the run result together with the final weighted state. The shard
// engine requires a protocol whose round factorizes into per-node
// decisions against flat state (core.WeightedFlatProtocol, e.g.
// Algorithm 2). See WeightedEngineSupports.
//
// The final state is the engine's last State view, read after Drive
// and returned once the engine is closed. That is safe for every engine
// dispatched here because none of them writes its storage on Close, so
// nothing can invalidate the view afterwards; it is still read-only —
// Clone it before mutating.
func RunWeightedEngineOpts(engine string, sys *core.System, proto core.WeightedProtocol, perNode []task.Weights, stop core.WeightedStop, opts core.RunOpts, eo EngineOpts) (core.RunResult, *core.WeightedState, error) {
	h, err := BuildWeightedEngine(engine, sys, proto, perNode, eo)
	if err != nil {
		return core.RunResult{}, nil, err
	}
	defer h.Close()
	res, err := core.Drive[*core.WeightedState](h.Engine, stop, opts)
	if eo.Probe != nil {
		eo.Probe(h.Raw)
	}
	st, stErr := h.State()
	if stErr != nil && err == nil {
		err = stErr
	}
	return res, st, err
}

// WeightedEngineHandle is a constructed-but-not-yet-driven weighted
// engine; the weighted counterpart of UniformEngineHandle.
type WeightedEngineHandle struct {
	// Engine executes rounds; every engine also takes workload events
	// (core.RequireEvents): seq and shard as core.DynamicEngine, the
	// cluster as core.EventStepper.
	Engine core.Engine[*core.WeightedState]
	// State returns the engine's current weighted state under the
	// core.Engine view rule: read-only, valid until the engine next
	// steps, applies events or closes; Clone() it to keep or mutate it.
	State func() (*core.WeightedState, error)
	// Raw is the value EngineOpts.Probe receives: the concrete engine,
	// except for seq where it is the *core.WeightedState itself.
	Raw any
	// Close releases engine goroutines; safe to call exactly once.
	Close func() error
}

// BuildWeightedEngine constructs the named weighted engine ("" means
// seq) without running it. The shard and cluster engines require a
// core.WeightedFlatProtocol; see WeightedEngineSupports.
func BuildWeightedEngine(engine string, sys *core.System, proto core.WeightedProtocol, perNode []task.Weights, eo EngineOpts) (*WeightedEngineHandle, error) {
	switch engine {
	case "", EngineSeq:
		st, err := core.NewWeightedState(sys, perNode)
		if err != nil {
			return nil, err
		}
		eng, err := core.SeqWeightedEngine(st, proto)
		if err != nil {
			return nil, err
		}
		return &WeightedEngineHandle{
			Engine: eng,
			State:  func() (*core.WeightedState, error) { return st, nil },
			Raw:    st,
			Close:  func() error { return nil },
		}, nil
	case EngineShard:
		fp, ok := proto.(core.WeightedFlatProtocol)
		if !ok {
			return nil, fmt.Errorf("harness: protocol %s cannot decide against flat state; the shard engine requires a core.WeightedFlatProtocol", proto.Name())
		}
		eng, err := shard.NewWeighted(sys, fp, perNode, shard.Options{
			Shards:   eo.Shards,
			Workers:  eo.Workers,
			Strategy: shard.Strategy(eo.Strategy),
		})
		if err != nil {
			return nil, err
		}
		return &WeightedEngineHandle{Engine: eng, State: eng.State, Raw: eng, Close: eng.Close}, nil
	case EngineCluster:
		fp, ok := proto.(core.WeightedFlatProtocol)
		if !ok {
			return nil, fmt.Errorf("harness: protocol %s cannot decide against flat state; the cluster engine requires a core.WeightedFlatProtocol", proto.Name())
		}
		cl, err := shard.StartLocalWeightedCluster(sys, fp, perNode, shard.Options{
			Shards:   eo.Shards,
			Workers:  eo.Workers,
			Strategy: shard.Strategy(eo.Strategy),
		})
		if err != nil {
			return nil, err
		}
		return &WeightedEngineHandle{Engine: cl, State: cl.State, Raw: cl, Close: cl.Close}, nil
	default:
		return nil, fmt.Errorf("harness: unknown weighted engine %q (want seq|shard|cluster)", engine)
	}
}
