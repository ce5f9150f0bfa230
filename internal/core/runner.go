package core

import (
	"errors"
	"fmt"

	"repro/internal/rng"
)

// ErrMaxRounds is wrapped into run results that stop without converging.
var ErrMaxRounds = errors.New("core: maximum rounds reached without convergence")

// TracePoint is one sampled observation of a running simulation.
type TracePoint struct {
	Round  int     `json:"round"`
	Psi0   float64 `json:"psi0"`
	Psi1   float64 `json:"psi1,omitempty"`
	LDelta float64 `json:"lDelta"`
	Moves  int64   `json:"movesCumulative"`
}

// RunResult summarizes a simulation run.
type RunResult struct {
	// Rounds is the number of protocol rounds executed.
	Rounds int
	// Converged reports whether the stop condition was met (as opposed to
	// hitting MaxRounds).
	Converged bool
	// Moves is the total number of task migrations.
	Moves int64
	// Trace holds sampled potentials if tracing was enabled.
	Trace []TracePoint
	// Ledger accumulates the workload events applied through
	// RunOpts.Events (zero for static runs).
	Ledger EventLedger
}

// RunOpts configures a simulation run.
type RunOpts struct {
	// MaxRounds bounds the run (required, > 0).
	MaxRounds int
	// Seed determines the full trajectory.
	Seed uint64
	// TraceEvery samples a TracePoint every k rounds (0 disables tracing;
	// round 0 and the final round are always included when enabled).
	TraceEvery int
	// CheckEvery evaluates the stop condition every k rounds (default 1).
	CheckEvery int
	// Events, when non-nil, supplies the workload mutation applied
	// immediately before each round r (a nil batch means no events that
	// round). The engine must implement DynamicEngine. Events must be a
	// pure function of r — it is how the dynamics layer keys its event
	// streams — so that every engine replays the identical workload.
	Events func(round uint64) *EventBatch
}

func (o RunOpts) validate() error {
	if o.MaxRounds <= 0 {
		return fmt.Errorf("core: RunOpts.MaxRounds must be positive, got %d", o.MaxRounds)
	}
	if o.TraceEvery < 0 || o.CheckEvery < 0 {
		return fmt.Errorf("core: negative sampling interval")
	}
	return nil
}

// State is the observable surface a simulation state exposes to the
// shared driver: the potentials sampled into TracePoints. Both
// *UniformState and *WeightedState implement it, which is what lets one
// generic driver serve both task models.
type State interface {
	Psi0() float64
	Psi1() float64
	LDelta() float64
}

// Engine is a simulation that the shared driver advances round by round.
// Step executes synchronous round r, drawing all randomness from streams
// derived from base (the keying contract rng.Stream.At pins down), and
// returns the number of migrated tasks. State exposes the current
// distribution for stop conditions and trace sampling. The returned
// value is a read-only view: it may share storage with the engine, and
// it is valid until the next Step, StepEvents, ApplyEvents or Close on
// that engine. A caller that keeps a state past that point, or mutates
// it, Clone()s it first.
//
// The sequential protocols implement Engine through the adapters behind
// RunUniform/RunWeighted, whose State is the live state itself; the
// concurrent engines in package dist (fork–join Runtime, actor Network,
// WeightedRuntime), the in-process shard engines (shard.Engine,
// shard.WeightedEngine, whose weighted State aliases its task pools and
// weight sums) and the process clusters (shard.UniformCluster,
// shard.WeightedCluster, which gather a fresh state from their workers)
// implement it directly. Because every engine draws node i's round-r
// randomness from base.At(r, i), driving any of them through Drive with
// the same seed yields bit-identical trajectories — and therefore
// identical RunResults and traces.
type Engine[S State] interface {
	Step(round uint64, base *rng.Stream) (int64, error)
	State() (S, error)
}

// Drive is the single run loop shared by every engine and both task
// models: it executes protocol rounds until stop returns true or
// opts.MaxRounds is exhausted, evaluating the stop condition every
// CheckEvery rounds and sampling a TracePoint every TraceEvery rounds.
// On every completed run — convergence, nil-stop completion, or the
// ErrMaxRounds exit — round 0 and the final round are always included
// in the trace; only an engine failure (a Step or State error, e.g.
// ErrClosed) returns the partial result as-is. A nil stop runs all
// MaxRounds and reports convergence; a non-nil stop that never fires
// yields an error wrapping ErrMaxRounds.
func Drive[S State](e Engine[S], stop func(S) bool, opts RunOpts) (RunResult, error) {
	if err := opts.validate(); err != nil {
		return RunResult{}, err
	}
	if e == nil {
		return RunResult{}, errors.New("core: nil engine")
	}
	check := opts.CheckEvery
	if check == 0 {
		check = 1
	}
	var dyn DynamicEngine
	if opts.Events != nil {
		var ok bool
		dyn, ok = any(e).(DynamicEngine)
		if !ok {
			return RunResult{}, fmt.Errorf("core: engine %T does not support workload events", e)
		}
	}
	base := rng.New(opts.Seed)
	var res RunResult
	lastTraced := -1
	record := func(round int) error {
		if opts.TraceEvery <= 0 || round == lastTraced {
			return nil
		}
		st, err := e.State()
		if err != nil {
			return err
		}
		res.Trace = append(res.Trace, TracePoint{
			Round:  round,
			Psi0:   st.Psi0(),
			Psi1:   st.Psi1(),
			LDelta: st.LDelta(),
			Moves:  res.Moves,
		})
		lastTraced = round
		return nil
	}
	if err := record(0); err != nil {
		return res, err
	}
	if stop != nil {
		st, err := e.State()
		if err != nil {
			return res, err
		}
		if stop(st) {
			res.Converged = true
			return res, nil
		}
	}
	es, _ := any(e).(EventStepper)
	for round := 1; round <= opts.MaxRounds; round++ {
		var batch *EventBatch
		if dyn != nil {
			batch = opts.Events(uint64(round))
		}
		var moves int64
		var err error
		if batch != nil && es != nil {
			// Fused path: the engine carries the batch into the round
			// itself (the cluster piggybacks it on the round frame),
			// saving a barrier round-trip. Bit-identical to the split
			// path below.
			var led EventLedger
			moves, led, err = es.StepEvents(uint64(round), base, batch)
			if err != nil {
				return res, err
			}
			led.Batches = 1
			res.Ledger.Add(led)
		} else {
			if batch != nil {
				led, err := dyn.ApplyEvents(batch)
				if err != nil {
					return res, err
				}
				led.Batches = 1
				res.Ledger.Add(led)
			}
			if moves, err = e.Step(uint64(round), base); err != nil {
				return res, err
			}
		}
		res.Moves += moves
		res.Rounds = round
		if opts.TraceEvery > 0 && round%opts.TraceEvery == 0 {
			if err := record(round); err != nil {
				return res, err
			}
		}
		if stop != nil && round%check == 0 {
			st, err := e.State()
			if err != nil {
				return res, err
			}
			if stop(st) {
				res.Converged = true
				if err := record(round); err != nil {
					return res, err
				}
				return res, nil
			}
		}
	}
	// The run ended at MaxRounds (either a nil stop ran to completion or
	// the stop condition never fired): the final round still belongs in
	// the trace.
	if err := record(res.Rounds); err != nil {
		return res, err
	}
	if stop == nil {
		res.Converged = true
		return res, nil
	}
	return res, fmt.Errorf("%w after %d rounds", ErrMaxRounds, res.Rounds)
}

// seqUniform adapts a sequential (state, protocol) pair to the Engine
// surface. Step mutates the caller's state in place, so after Drive
// returns the state holds the final distribution.
type seqUniform struct {
	st *UniformState
	p  UniformProtocol
}

func (e seqUniform) Step(round uint64, base *rng.Stream) (int64, error) {
	return e.p.Step(e.st, round, base), nil
}

func (e seqUniform) State() (*UniformState, error) { return e.st, nil }

// ApplyEvents implements DynamicEngine by mutating the caller's state.
func (e seqUniform) ApplyEvents(batch *EventBatch) (EventLedger, error) {
	return e.st.ApplyEvents(batch)
}

// seqWeighted adapts a sequential weighted (state, protocol) pair.
type seqWeighted struct {
	st *WeightedState
	p  WeightedProtocol
}

func (e seqWeighted) Step(round uint64, base *rng.Stream) (int64, error) {
	return int64(e.p.Step(e.st, round, base)), nil
}

func (e seqWeighted) State() (*WeightedState, error) { return e.st, nil }

// ApplyEvents implements DynamicEngine by mutating the caller's state.
func (e seqWeighted) ApplyEvents(batch *EventBatch) (EventLedger, error) {
	return e.st.ApplyEvents(batch)
}

// SeqUniformEngine wraps a sequential (state, protocol) pair as an
// Engine (and DynamicEngine) so callers that drive rounds themselves —
// the serve daemon's live loop, custom harnesses — can use the same
// adapter RunUniform uses internally. Step mutates st in place.
func SeqUniformEngine(st *UniformState, p UniformProtocol) (Engine[*UniformState], error) {
	if st == nil || p == nil {
		return nil, errors.New("core: nil state or protocol")
	}
	return seqUniform{st: st, p: p}, nil
}

// SeqWeightedEngine wraps a sequential weighted (state, protocol) pair
// as an Engine (and DynamicEngine); the weighted counterpart of
// SeqUniformEngine.
func SeqWeightedEngine(st *WeightedState, p WeightedProtocol) (Engine[*WeightedState], error) {
	if st == nil || p == nil {
		return nil, errors.New("core: nil state or protocol")
	}
	return seqWeighted{st: st, p: p}, nil
}

// UniformStop decides whether a uniform-state run may stop.
type UniformStop func(*UniformState) bool

// StopAtNash stops at an exact Nash equilibrium.
func StopAtNash() UniformStop { return IsNash }

// StopAtApproxNash stops at an ε-approximate Nash equilibrium.
func StopAtApproxNash(eps float64) UniformStop {
	return func(st *UniformState) bool { return IsApproxNash(st, eps) }
}

// StopAtPsi0Below stops once Ψ₀(x) ≤ threshold (e.g. 4·ψ_c for the
// Theorem 1.1 phase).
func StopAtPsi0Below(threshold float64) UniformStop {
	return func(st *UniformState) bool { return st.Psi0() <= threshold }
}

// RunUniform executes protocol rounds on the sequential engine until
// stop returns true or opts.MaxRounds is exhausted. A nil stop runs all
// MaxRounds. It is a thin wrapper over Drive.
func RunUniform(st *UniformState, p UniformProtocol, stop UniformStop, opts RunOpts) (RunResult, error) {
	e, err := SeqUniformEngine(st, p)
	if err != nil {
		return RunResult{}, err
	}
	return Drive[*UniformState](e, stop, opts)
}

// WeightedStop decides whether a weighted-state run may stop.
type WeightedStop func(*WeightedState) bool

// StopAtWeightedThreshold stops at the threshold state ℓᵢ−ℓⱼ ≤ 1/sⱼ that
// Algorithm 2 converges to.
func StopAtWeightedThreshold() WeightedStop { return IsWeightedThresholdNE }

// StopAtWeightedNash stops at an exact weighted Nash equilibrium.
func StopAtWeightedNash() WeightedStop { return IsWeightedNash }

// StopAtWeightedApproxNash stops at an ε-approximate NE.
func StopAtWeightedApproxNash(eps float64) WeightedStop {
	return func(st *WeightedState) bool { return IsWeightedApproxNash(st, eps) }
}

// StopAtWeightedPsi0Below stops once Ψ₀ ≤ threshold.
func StopAtWeightedPsi0Below(threshold float64) WeightedStop {
	return func(st *WeightedState) bool { return st.Psi0() <= threshold }
}

// RunWeighted executes weighted protocol rounds on the sequential engine
// until stop returns true or opts.MaxRounds is exhausted. A nil stop
// runs all MaxRounds. It is a thin wrapper over Drive.
func RunWeighted(st *WeightedState, p WeightedProtocol, stop WeightedStop, opts RunOpts) (RunResult, error) {
	e, err := SeqWeightedEngine(st, p)
	if err != nil {
		return RunResult{}, err
	}
	return Drive[*WeightedState](e, stop, opts)
}
