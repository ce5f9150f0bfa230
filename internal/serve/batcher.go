// Package serve turns the simulator into a serving system: a live
// engine owned by a round loop, fed by a Batcher that amortizes
// individual task submissions into one core.EventBatch per protocol
// round (the loop takes every pending submission whenever it is free),
// with per-request completion so callers learn the round their event
// was admitted in. Every admitted batch is journaled, so any
// serve-mode run replays offline through core.Drive to a bit-identical
// Ψ trace.
package serve

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
)

// ErrClosed is returned by Submit once the batcher no longer accepts
// submissions (server stopping or failed).
var ErrClosed = errors.New("serve: closed to new submissions")

// OpKind selects the event type a submission contributes.
type OpKind uint8

const (
	// OpArrive adds Count unit tasks at Node (uniform model).
	OpArrive OpKind = iota
	// OpArriveWeighted adds one task of weight Weight ∈ (0,1] at Node
	// (weighted model).
	OpArriveWeighted
	// OpComplete requests completion of Count unit tasks at Node,
	// clamped to the tasks present (uniform model).
	OpComplete
	// OpCompleteWeighted requests completion of Count weighted tasks at
	// Node, most-recent-first, clamped (weighted model).
	OpCompleteWeighted
)

// Op is one task submission. The zero Count means 1.
type Op struct {
	Kind   OpKind
	Node   int
	Count  int64
	Weight float64
}

// pendingBatch is a dense n-node EventBatch plus touched-index lists so
// it can be recycled round after round by clearing only the entries a
// batch actually used — at n=10⁶ zeroing the full 8 MB vectors per
// round would dominate the flush path.
type pendingBatch struct {
	n     int
	batch core.EventBatch
	tA    []int32 // touched Arrivals indices
	tD    []int32 // touched Departures indices
	tWA   []int32 // touched WeightArrivals indices
	tWD   []int32 // touched WeightDepartures indices
}

func newPendingBatch(n int) *pendingBatch { return &pendingBatch{n: n} }

func (pb *pendingBatch) add(op Op) {
	k := op.Count
	if k == 0 {
		k = 1
	}
	switch op.Kind {
	case OpArrive:
		if pb.batch.Arrivals == nil {
			pb.batch.Arrivals = make([]int64, pb.n)
		}
		if pb.batch.Arrivals[op.Node] == 0 {
			pb.tA = append(pb.tA, int32(op.Node))
		}
		pb.batch.Arrivals[op.Node] += k
	case OpComplete:
		if pb.batch.Departures == nil {
			pb.batch.Departures = make([]int64, pb.n)
		}
		if pb.batch.Departures[op.Node] == 0 {
			pb.tD = append(pb.tD, int32(op.Node))
		}
		pb.batch.Departures[op.Node] += k
	case OpArriveWeighted:
		if pb.batch.WeightArrivals == nil {
			pb.batch.WeightArrivals = make([][]float64, pb.n)
		}
		if len(pb.batch.WeightArrivals[op.Node]) == 0 {
			pb.tWA = append(pb.tWA, int32(op.Node))
		}
		pb.batch.WeightArrivals[op.Node] = append(pb.batch.WeightArrivals[op.Node], op.Weight)
	case OpCompleteWeighted:
		if pb.batch.WeightDepartures == nil {
			pb.batch.WeightDepartures = make([]int64, pb.n)
		}
		if pb.batch.WeightDepartures[op.Node] == 0 {
			pb.tWD = append(pb.tWD, int32(op.Node))
		}
		pb.batch.WeightDepartures[op.Node] += k
	}
}

// reset clears only the touched entries, keeping the dense vectors and
// per-node weight-list capacity for the next group.
func (pb *pendingBatch) reset() {
	for _, i := range pb.tA {
		pb.batch.Arrivals[i] = 0
	}
	for _, i := range pb.tD {
		pb.batch.Departures[i] = 0
	}
	for _, i := range pb.tWA {
		pb.batch.WeightArrivals[i] = pb.batch.WeightArrivals[i][:0]
	}
	for _, i := range pb.tWD {
		pb.batch.WeightDepartures[i] = 0
	}
	pb.tA, pb.tD, pb.tWA, pb.tWD = pb.tA[:0], pb.tD[:0], pb.tWA[:0], pb.tWD[:0]
}

// group is one flush unit: the submissions accumulated between two
// round boundaries. All of a group's callers share one completion
// channel; round and err are written before done is closed and are
// immutable afterwards, which is what makes Ticket.Wait race-free.
type group struct {
	pb    *pendingBatch
	subs  int
	first time.Time
	done  chan struct{}
	round uint64
	err   error
}

// Ticket is a caller's handle on an in-flight submission.
type Ticket struct {
	g        *group
	t0       time.Time
	m        *Metrics
	recorded bool
}

// Done is closed once the submission's batch has been applied (or the
// server failed).
func (t *Ticket) Done() <-chan struct{} { return t.g.done }

// Wait blocks until the submission is admitted and returns the protocol
// round whose pre-round batch carried it. The first Wait on a ticket
// records the admission latency into the server metrics.
func (t *Ticket) Wait() (round uint64, err error) {
	<-t.g.done
	if t.m != nil && !t.recorded {
		t.recorded = true
		t.m.recordAdmit(time.Since(t.t0))
	}
	return t.g.round, t.g.err
}

// Batcher accumulates submissions into a pending group. A group's
// first submission wakes the round loop at once, and the loop, its
// single consumer, takes the whole pending group whenever it is free:
// a loop parked between rounds admits the group in the next round,
// and every submission that arrives while a round runs joins the
// group the loop takes as soon as that round ends. So one engine round
// absorbs everything that arrived during the previous one (the
// amortization that makes 100k/s feasible against a 10⁶-node engine
// stepping a few rounds per second), with no deadline or size trigger
// holding a group back from an idle loop.
type Batcher struct {
	n        int
	weighted bool
	m        *Metrics

	mu      sync.Mutex
	pending *group
	free    []*pendingBatch
	closed  bool

	ready chan struct{} // cap 1; wake signal for the round loop
}

// NewBatcher builds a batcher for an n-node system. weighted selects
// which Op kinds are accepted (the two task models never mix in one
// engine).
func NewBatcher(n int, weighted bool, m *Metrics) (*Batcher, error) {
	if n <= 0 {
		return nil, fmt.Errorf("serve: batcher for %d nodes", n)
	}
	if m == nil {
		m = NewMetrics()
	}
	return &Batcher{
		n:        n,
		weighted: weighted,
		m:        m,
		ready:    make(chan struct{}, 1),
	}, nil
}

// Ready is the wake channel the round loop selects on; a receive means
// a group has opened since the loop's last take. A Take without a
// receive (the final drain) can leave a wake whose group is gone; the
// next Take then returns nil.
func (b *Batcher) Ready() <-chan struct{} { return b.ready }

func (b *Batcher) validate(op Op) error {
	if op.Node < 0 || op.Node >= b.n {
		return fmt.Errorf("serve: node %d outside [0,%d)", op.Node, b.n)
	}
	if op.Count < 0 {
		return fmt.Errorf("serve: negative count %d", op.Count)
	}
	switch op.Kind {
	case OpArrive, OpComplete:
		if b.weighted {
			return fmt.Errorf("serve: uniform op on a weighted-model server")
		}
	case OpArriveWeighted:
		if !b.weighted {
			return fmt.Errorf("serve: weighted op on a uniform-model server")
		}
		if !(op.Weight > 0 && op.Weight <= 1) {
			return fmt.Errorf("serve: task weight %v outside (0,1]", op.Weight)
		}
	case OpCompleteWeighted:
		if !b.weighted {
			return fmt.Errorf("serve: weighted op on a uniform-model server")
		}
	default:
		return fmt.Errorf("serve: unknown op kind %d", op.Kind)
	}
	return nil
}

// Submit appends op to the pending group and returns a ticket for the
// admission round. Safe for concurrent use.
func (b *Batcher) Submit(op Op) (Ticket, error) {
	if err := b.validate(op); err != nil {
		b.m.rejected.Add(1)
		return Ticket{}, err
	}
	now := time.Now()
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		b.m.rejected.Add(1)
		return Ticket{}, ErrClosed
	}
	g := b.pending
	opened := g == nil
	if opened {
		g = &group{pb: b.takeFreeLocked(), first: now, done: make(chan struct{})}
		b.pending = g
	}
	g.pb.add(op)
	g.subs++
	b.mu.Unlock()
	b.m.submissions.Add(1)
	if opened {
		b.wake()
	}
	return Ticket{g: g, t0: now, m: b.m}, nil
}

func (b *Batcher) takeFreeLocked() *pendingBatch {
	if k := len(b.free); k > 0 {
		pb := b.free[k-1]
		b.free = b.free[:k-1]
		return pb
	}
	return newPendingBatch(b.n)
}

func (b *Batcher) wake() {
	select {
	case b.ready <- struct{}{}:
	default:
	}
}

// Take detaches and returns the pending group (nil if none). Only the
// round loop calls it; the returned group's batch is exclusively the
// caller's until Recycle.
func (b *Batcher) Take() *group {
	b.mu.Lock()
	g := b.pending
	b.pending = nil
	b.mu.Unlock()
	return g
}

// Recycle returns a completed group's dense batch to the free pool.
// Call only after the batch has been applied and journaled; the group's
// done channel may be closed before or after.
func (b *Batcher) Recycle(pb *pendingBatch) {
	pb.reset()
	b.mu.Lock()
	b.free = append(b.free, pb)
	b.mu.Unlock()
}

// CloseSubmit stops accepting new submissions. Submissions already in
// the pending group stay in-flight; the round loop drains them with a
// final Take. Idempotent.
func (b *Batcher) CloseSubmit() {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
}

// complete publishes the admission outcome to every waiter.
func (g *group) complete(round uint64, err error) {
	g.round = round
	g.err = err
	close(g.done)
}
