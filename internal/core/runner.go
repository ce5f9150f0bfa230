package core

import (
	"errors"
	"fmt"
	"slices"

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
	// round). The engine must take events (RequireEvents). Events must be a
	// pure function of r — it is how the dynamics layer keys its event
	// streams — so that every engine replays the identical workload.
	Events func(round uint64) *EventBatch
}

// Validate reports whether o describes a runnable fixed-horizon run:
// MaxRounds positive and no negative sampling interval.
func (o RunOpts) Validate() error {
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

// Engine is a simulation that a Runner advances round by round.
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
// in-process shard engines (shard.Engine, shard.WeightedEngine, whose
// weighted State aliases its task pools and weight sums) and the
// process clusters (shard.UniformCluster, shard.WeightedCluster, which
// gather a fresh state from their workers) implement it directly.
// Because every engine draws node i's round-r randomness from
// base.At(r, i), and every run loop — Drive, the serve daemon, the
// cluster's checkpointing Drive — advances its engine through a Runner,
// any engine driven with the same seed yields bit-identical
// trajectories, and therefore identical RunResults and traces.
type Engine[S State] interface {
	Step(round uint64, base *rng.Stream) (int64, error)
	State() (S, error)
}

// Runner advances one engine a round at a time. It is the only code
// that steps an engine to make a run: it owns the base stream
// rng.New(seed) and the round counter, the event path (StepEvents on an
// EventStepper, else ApplyEvents then Step), the ledger and move
// counts, and the trace sampling. A caller interleaves its own
// per-round work — stop checks, journaling, checkpoints — between
// calls; there are no hooks.
//
// Trace sampling: with traceEvery > 0 a fresh run samples round 0,
// every traceEvery-th round, and (through Finish) the final round, each
// round at most once.
type Runner[S State] struct {
	e       Engine[S]
	es      EventStepper
	base    *rng.Stream
	every   int
	res     RunResult
	pending *EventBatch // the next round's batch, held for es
}

// NewRunner starts a run of e keyed by seed that continues after the
// from.Rounds rounds whose partial result is from: a zero from starts a
// fresh run and samples the round-0 trace point, a checkpoint's partial
// result resumes one. The next Step executes round from.Rounds+1. A
// traceEvery ≤ 0 disables tracing. The caller validates its options
// and passes a non-nil engine.
func NewRunner[S State](e Engine[S], seed uint64, traceEvery int, from RunResult) (*Runner[S], error) {
	r := &Runner[S]{e: e, base: rng.New(seed), every: traceEvery, res: from}
	// A resumed run appends to its own copy of the trace, never into
	// the spare capacity of the caller's.
	r.res.Trace = slices.Clip(from.Trace)
	r.es, _ = any(e).(EventStepper)
	if from.Rounds == 0 {
		if err := r.record(); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// Apply hands batch to the next round: a nil batch is no event, an
// EventStepper engine receives it inside the next Step's exchange, and
// any other engine applies it now. A round takes at most one batch.
func (r *Runner[S]) Apply(batch *EventBatch) error {
	if batch == nil {
		return nil
	}
	if r.pending != nil {
		return fmt.Errorf("core: a second event batch for round %d", r.res.Rounds+1)
	}
	if r.es != nil {
		r.pending = batch
		return nil
	}
	dyn, ok := any(r.e).(DynamicEngine)
	if !ok {
		return RequireEvents(r.e)
	}
	led, err := dyn.ApplyEvents(batch)
	if err != nil {
		return err
	}
	led.Batches = 1
	r.res.Ledger.Add(led)
	return nil
}

// Step executes the next round, with the batch Apply handed it, and
// samples its trace point when the round is a multiple of traceEvery.
func (r *Runner[S]) Step() error {
	round := r.res.Rounds + 1
	var moves int64
	var err error
	if batch := r.pending; batch != nil {
		// Fused path: the engine carries the batch into the round
		// itself (the clusters, whose only event path this is, on the
		// round frame). Bit-identical to ApplyEvents then Step.
		r.pending = nil
		var led EventLedger
		if moves, led, err = r.es.StepEvents(uint64(round), r.base, batch); err != nil {
			return err
		}
		led.Batches = 1
		r.res.Ledger.Add(led)
	} else if moves, err = r.e.Step(uint64(round), r.base); err != nil {
		return err
	}
	r.res.Moves += moves
	r.res.Rounds = round
	if r.every > 0 && round%r.every == 0 {
		return r.record()
	}
	return nil
}

// Result returns the run's result so far. Its trace shares storage with
// the runner until the next trace point is appended.
func (r *Runner[S]) Result() RunResult { return r.res }

// Finish samples the final round's trace point, unless that round is
// already the last one in the trace, and returns the result. It leaves
// Converged to the caller, which alone knows why the run ended.
func (r *Runner[S]) Finish() (RunResult, error) {
	err := r.record()
	return r.res, err
}

// record appends the current round's TracePoint unless tracing is off
// or the trace already ends at this round.
func (r *Runner[S]) record() error {
	round := r.res.Rounds
	if r.every <= 0 || (len(r.res.Trace) > 0 && r.res.Trace[len(r.res.Trace)-1].Round == round) {
		return nil
	}
	st, err := r.e.State()
	if err != nil {
		return err
	}
	r.res.Trace = append(r.res.Trace, TracePoint{
		Round:  round,
		Psi0:   st.Psi0(),
		Psi1:   st.Psi1(),
		LDelta: st.LDelta(),
		Moves:  r.res.Moves,
	})
	return nil
}

// Drive is the fixed-horizon run loop over a Runner, shared by every
// engine and both task models: it executes protocol rounds until stop
// returns true or opts.MaxRounds is exhausted, applying opts.Events
// before each round, evaluating the stop condition every CheckEvery
// rounds and sampling a TracePoint every TraceEvery rounds.
// On every completed run — convergence, nil-stop completion, or the
// ErrMaxRounds exit — round 0 and the final round are always included
// in the trace; only an engine failure (a Step or State error, e.g.
// ErrClosed) returns the partial result as-is. A nil stop runs all
// MaxRounds and reports convergence; a non-nil stop that never fires
// yields an error wrapping ErrMaxRounds.
func Drive[S State](e Engine[S], stop func(S) bool, opts RunOpts) (RunResult, error) {
	if err := opts.Validate(); err != nil {
		return RunResult{}, err
	}
	if e == nil {
		return RunResult{}, errors.New("core: nil engine")
	}
	check := opts.CheckEvery
	if check == 0 {
		check = 1
	}
	if opts.Events != nil {
		if err := RequireEvents(e); err != nil {
			return RunResult{}, err
		}
	}
	r, err := NewRunner(e, opts.Seed, opts.TraceEvery, RunResult{})
	if err != nil {
		return RunResult{}, err
	}
	// Round 0 only checks the initial state.
	for round := 0; round <= opts.MaxRounds; round++ {
		if round > 0 {
			if opts.Events != nil {
				if err := r.Apply(opts.Events(uint64(round))); err != nil {
					return r.Result(), err
				}
			}
			if err := r.Step(); err != nil {
				return r.Result(), err
			}
		}
		if stop != nil && round%check == 0 {
			st, err := e.State()
			if err != nil {
				return r.Result(), err
			}
			if stop(st) {
				res, err := r.Finish()
				res.Converged = true
				return res, err
			}
		}
	}
	// The run ended at MaxRounds (either a nil stop ran to completion or
	// the stop condition never fired): the final round still belongs in
	// the trace.
	res, err := r.Finish()
	if err != nil {
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
