package main

import (
	"time"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/shard"
)

// roundRec holds one round's timings as seen from outside the engine,
// in nanoseconds since the run's epoch. applyStart == applyEnd == 0
// means the round applied no events; stateStart == 0 means nobody read
// the state after the round.
type roundRec struct {
	applyStart, applyEnd int64
	stepStart, stepEnd   int64
	stateStart, stateEnd int64
	// Phase times inside Step, from the engine's own PhaseTimer.
	snapshot, decide, commit int64
}

// maxTracedRounds bounds the preallocated round log (a 60 s serve-ingest
// window runs about 30,000 rounds). The log is never reallocated, so a
// reader may read a finished round while the engine writes a later one.
const maxTracedRounds = 1 << 16

// tracedEngine wraps the weighted shard engine for the traced window.
// Embedding keeps every method the callers type-assert for (serve's
// core.DynamicEngine and shard.PhaseTimer, the prober's NodeLoad) and
// overrides the three calls whose timing the benchmark records. Only
// the goroutine that drives the engine calls into it.
type tracedEngine struct {
	*shard.WeightedEngine
	epoch time.Time
	log   []roundRec
	round uint64 // last round stepped
	last  shard.PhaseTimes

	pendingApply [2]int64
	dropped      int64
}

func newTracedEngine(eng *shard.WeightedEngine, epoch time.Time) *tracedEngine {
	return &tracedEngine{WeightedEngine: eng, epoch: epoch, log: make([]roundRec, maxTracedRounds), last: eng.Phases()}
}

func (e *tracedEngine) now() int64 { return time.Since(e.epoch).Nanoseconds() }

// ApplyEvents times the pre-round batch; serve applies it right before
// Step of the same round, so the times are attached there.
func (e *tracedEngine) ApplyEvents(b *core.EventBatch) (core.EventLedger, error) {
	t0 := e.now()
	led, err := e.WeightedEngine.ApplyEvents(b)
	e.pendingApply = [2]int64{t0, e.now()}
	return led, err
}

func (e *tracedEngine) Step(r uint64, base *rng.Stream) (int64, error) {
	t0 := e.now()
	moves, err := e.WeightedEngine.Step(r, base)
	t1 := e.now()
	ph := e.WeightedEngine.Phases()
	if r < uint64(len(e.log)) {
		e.log[r] = roundRec{
			applyStart: e.pendingApply[0], applyEnd: e.pendingApply[1],
			stepStart: t0, stepEnd: t1,
			snapshot: int64(ph.Snapshot - e.last.Snapshot),
			decide:   int64(ph.Decide - e.last.Decide),
			commit:   int64(ph.Commit - e.last.Commit),
		}
	} else {
		e.dropped++
	}
	e.last = ph
	e.pendingApply = [2]int64{}
	e.round = r
	return moves, err
}

// State times the state copy a stop condition reads after the round.
func (e *tracedEngine) State() (*core.WeightedState, error) {
	t0 := e.now()
	st, err := e.WeightedEngine.State()
	if e.round < uint64(len(e.log)) {
		e.log[e.round].stateStart, e.log[e.round].stateEnd = t0, e.now()
	}
	return st, err
}

// resetFor clears the log for a fresh run on a new engine.
func (e *tracedEngine) resetFor(eng *shard.WeightedEngine) {
	e.WeightedEngine = eng
	e.round = 0
	e.last = eng.Phases()
	e.pendingApply = [2]int64{}
	e.resetLog()
}

// resetLog forgets the rounds recorded so far; the engine keeps
// stepping where it was.
func (e *tracedEngine) resetLog() {
	clear(e.log)
	e.dropped = 0
}
