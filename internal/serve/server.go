package serve

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/shard"
)

// Config tunes a Server. The zero value of every field has a sensible
// default; N and (for weighted engines) Weighted must match the engine.
// There is no batching knob: the round loop takes every pending
// submission whenever it is free (see Batcher).
type Config struct {
	// N is the node count of the engine's system (required).
	N int
	// Weighted selects the weighted task model; it gates which Op kinds
	// the batcher accepts and how journaled batches are rebuilt.
	Weighted bool
	// IdleRounds keeps the engine stepping this many event-less rounds
	// after traffic pauses, letting the protocol finish rebalancing the
	// last admitted batch before the loop parks (default 0: step only
	// when submissions arrive).
	IdleRounds int
	// Seed keys the whole trajectory, exactly like core.RunOpts.Seed.
	Seed uint64
	// TraceEvery samples a TracePoint every k rounds (0 disables; round
	// 0 and the final round are always included when enabled). Sampling
	// materializes engine state — keep 0 for 10⁶-node daemons.
	TraceEvery int
	// Sink, when non-nil, journals every admitted batch: it streams
	// each one to its segment files as its round completes, and the
	// owner finalizes the chain with Sink.Close after Stop. A nil Sink
	// keeps no journal.
	Sink *JournalSink
	// Meta is copied into the journal header for the daemon owner's
	// replay bookkeeping (graph family, placement, engine name, ...).
	Meta map[string]string
	// Spans, when non-nil, records per-round phase spans
	// (apply/step/snapshot/decide/commit) for a Chrome-trace dump.
	// Purely wall-clock telemetry; it cannot affect the trajectory.
	Spans *obs.SpanRecorder
}

// Server owns a live engine and the single round loop that drives it:
// submissions accumulate in the Batcher, each wake hands the taken
// group to a core.Runner as one pre-round EventBatch (journaled), steps
// the round, and completes the group's tickets with the admission
// round. The Runner is the one core.Drive runs on — same base stream,
// same event path (fused into the round on a core.EventStepper), same
// ledger and trace bookkeeping — which is what makes the journal
// replayable to a bit-identical RunResult. The Server adds batching,
// metrics, spans, tickets and the journal sink.
type Server[S core.State] struct {
	run *core.Runner[S]
	cfg Config
	b   *Batcher
	m   *Metrics

	pt         shard.PhaseTimer
	lastPhases shard.PhaseTimes

	ctrl       chan func()
	stopc      chan struct{}
	stopOnce   sync.Once
	loopExited chan struct{}

	// loop-owned; published via loopExited happens-before.
	res core.RunResult
	err error
}

// New builds a server around eng and starts its round loop. The engine
// must take workload events (core.RequireEvents; every engine in this
// repo does) and must not be stepped by anyone else while the server
// runs; close it only after Stop returns. With TraceEvery > 0, New
// samples the round-0 trace point, so an engine that cannot report its
// state fails here.
func New[S core.State](eng core.Engine[S], cfg Config) (*Server[S], error) {
	if eng == nil {
		return nil, fmt.Errorf("serve: nil engine")
	}
	if err := core.RequireEvents(eng); err != nil {
		return nil, err
	}
	m := NewMetrics()
	b, err := NewBatcher(cfg.N, cfg.Weighted, m)
	if err != nil {
		return nil, err
	}
	if !cfg.Weighted {
		st, err := eng.State()
		if err != nil {
			return nil, err
		}
		if u, ok := any(st).(*core.UniformState); ok {
			b.total = u.Total()
		}
	}
	run, err := core.NewRunner(eng, cfg.Seed, cfg.TraceEvery, core.RunResult{})
	if err != nil {
		return nil, err
	}
	s := &Server[S]{
		run:        run,
		cfg:        cfg,
		b:          b,
		m:          m,
		ctrl:       make(chan func()),
		stopc:      make(chan struct{}),
		loopExited: make(chan struct{}),
	}
	if pt, ok := any(eng).(shard.PhaseTimer); ok {
		s.pt = pt
	}
	go s.loop()
	return s, nil
}

// Submit appends one operation to the pending batch; the ticket reports
// the admission round. Safe for concurrent use at submission rates far
// above the round rate — that amortization is the point.
func (s *Server[S]) Submit(op Op) (Ticket, error) { return s.b.Submit(op) }

// Stats snapshots the flat metrics.
func (s *Server[S]) Stats() Stats { return s.m.Snapshot() }

// Metrics exposes the live counter set (shared with the batcher).
func (s *Server[S]) Metrics() *Metrics { return s.m }

// Registry exposes the obs registry behind the metrics, so owners can
// register engine-level series next to the serve set and render
// everything on one /metrics page.
func (s *Server[S]) Registry() *obs.Registry { return s.m.Registry() }

// Do runs f on the round-loop goroutine between rounds, giving f a
// quiescent engine (nothing steps or applies while it runs). After the
// loop has exited the engine is permanently quiescent and f runs
// inline. Used by /load and /stats probes that read engine state.
func (s *Server[S]) Do(f func()) {
	done := make(chan struct{})
	w := func() { f(); close(done) }
	select {
	case s.ctrl <- w:
		<-done
	case <-s.loopExited:
		f()
	}
}

// Stop closes submission intake, drains every in-flight group through a
// final round, records the final trace point, and returns the live
// RunResult (Converged=true, matching a nil-stop core.Drive run of the
// same length). Idempotent; every call returns the same result.
func (s *Server[S]) Stop() (core.RunResult, error) {
	s.stopOnce.Do(func() { close(s.stopc) })
	<-s.loopExited
	return s.res, s.err
}

// samplePhases folds the engine's cumulative phase times into the
// metrics as per-round deltas, and (when span recording is on) lays
// the three phases out as sub-spans of the step that started at
// stepStart — the phases run in exactly that order inside Step.
func (s *Server[S]) samplePhases(stepStart time.Time) {
	if s.pt == nil {
		return
	}
	cur := s.pt.Phases()
	dS := cur.Snapshot - s.lastPhases.Snapshot
	dD := cur.Decide - s.lastPhases.Decide
	dC := cur.Commit - s.lastPhases.Commit
	s.m.snapshotNs.Add(uint64(dS))
	s.m.decideNs.Add(uint64(dD))
	s.m.commitNs.Add(uint64(dC))
	if sp := s.cfg.Spans; sp != nil {
		t := stepStart
		sp.Span(0, 1, "snapshot", t, dS)
		t = t.Add(dS)
		sp.Span(0, 1, "decide", t, dD)
		t = t.Add(dD)
		sp.Span(0, 1, "commit", t, dC)
	}
	s.lastPhases = cur
}

// runRound executes one protocol round, handing g's batch to the
// runner first when g is non-nil. For a core.EventStepper engine the
// apply timer reads ~0: the batch rides the round, inside the step
// timer.
func (s *Server[S]) runRound(g *group) error {
	round := s.run.Result().Rounds + 1
	departed := s.run.Result().Ledger.Departed
	if g != nil {
		s.m.recordBatch(g.subs, time.Since(g.first))
		t0 := time.Now()
		err := s.run.Apply(&g.pb.batch)
		d := time.Since(t0)
		s.m.applyNs.Add(uint64(d))
		s.cfg.Spans.Span(0, 0, "apply", t0, d)
		if err != nil {
			return err
		}
	} else {
		s.m.idleRounds.Add(1)
	}
	t0 := time.Now()
	err := s.run.Step()
	d := time.Since(t0)
	s.m.stepNs.Add(uint64(d))
	s.cfg.Spans.Span(0, 0, "step", t0, d)
	if err != nil {
		return err
	}
	s.samplePhases(t0)
	res := s.run.Result()
	if d := res.Ledger.Departed - departed; d != 0 {
		s.b.settle(d)
	}
	s.m.rounds.Set(uint64(round))
	s.m.moves.Set(uint64(res.Moves))
	// The sink sees the entry after the round completes, so the partial
	// result it may anchor a rotation on reflects that round.
	if s.cfg.Sink != nil && g != nil {
		return s.cfg.Sink.Append(entryFromBatch(round, g.pb), res)
	}
	return nil
}

// finish closes intake and publishes the result. On the clean path
// (err == nil) the group still pending runs through one last round, so
// no in-flight submission is dropped, and the result is finalized as
// core.Drive finalizes a nil-stop run. After a failed round, g (that
// round's group) and the pending group complete with the error.
func (s *Server[S]) finish(g *group, err error) {
	s.b.CloseSubmit()
	tail := s.b.Take()
	if tail != nil && tail.subs == 0 {
		tail = nil
	}
	if err == nil && tail != nil {
		s.m.flushFinal.Add(1)
		err = s.runRound(tail)
	}
	if err == nil {
		s.res, err = s.run.Finish()
		s.res.Converged = err == nil
	} else {
		s.res = s.run.Result()
	}
	s.err = err
	for _, grp := range []*group{g, tail} {
		if grp != nil {
			grp.complete(uint64(s.res.Rounds), err)
		}
	}
	close(s.loopExited)
}

// loop is the single consumer: it owns the engine, the sink's appends
// and the RunResult. One iteration = at most one round. A stop request
// wins over pending work, which then drains in finish's final round.
func (s *Server[S]) loop() {
	idleLeft := 0
	for {
		select {
		case <-s.stopc:
			s.finish(nil, nil)
			return
		default:
		}
		var g *group
		// A group that opened while the loop was busy (a round or a Do)
		// left its wake behind: take it without parking.
		cause := s.m.flushBusy
		select {
		case f := <-s.ctrl:
			f()
			continue
		case <-s.b.Ready():
			g = s.b.Take()
		default:
			if idleLeft > 0 {
				idleLeft--
				if err := s.runRound(nil); err != nil {
					s.finish(nil, err)
					return
				}
				continue
			}
			// Park until something happens.
			select {
			case <-s.stopc:
				s.finish(nil, nil)
				return
			case f := <-s.ctrl:
				f()
				continue
			case <-s.b.Ready():
				g = s.b.Take()
				cause = s.m.flushIdle
			}
		}
		if g == nil || g.subs == 0 {
			continue // spurious wake
		}
		cause.Add(1)
		err := s.runRound(g)
		if err != nil {
			s.finish(g, err)
			return
		}
		g.complete(uint64(s.run.Result().Rounds), nil)
		s.b.Recycle(g.pb)
		idleLeft = s.cfg.IdleRounds
	}
}
