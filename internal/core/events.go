package core

import (
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/internal/task"
)

// EventBatch is one round's workload mutation, produced by the dynamics
// layer and applied by an engine before the round's protocol decisions.
// The uniform model uses Arrivals/Departures (per-node task counts); the
// weighted model uses WeightArrivals/WeightDepartures. Slices may be nil
// (no events of that kind) or exactly N long. Departures are requests:
// the application clamps them to the tasks actually present, and the
// returned EventLedger records what was applied, so conservation checks
// can be made net of the ledger.
type EventBatch struct {
	// Arrivals[i] unit tasks appear on node i before the round.
	Arrivals []int64
	// Departures[i] unit tasks complete on node i (clamped to its queue).
	Departures []int64
	// WeightArrivals[i] holds the weights (each in (0,1]) of the tasks
	// arriving on node i.
	WeightArrivals [][]float64
	// WeightDepartures[i] weighted tasks complete on node i (clamped).
	WeightDepartures []int64
}

// IsZero reports whether the batch carries no events.
func (b *EventBatch) IsZero() bool {
	if b == nil {
		return true
	}
	for _, v := range b.Arrivals {
		if v != 0 {
			return false
		}
	}
	for _, v := range b.Departures {
		if v != 0 {
			return false
		}
	}
	for _, ws := range b.WeightArrivals {
		if len(ws) != 0 {
			return false
		}
	}
	for _, v := range b.WeightDepartures {
		if v != 0 {
			return false
		}
	}
	return true
}

// Validate checks the whole batch against an n-node engine: every slice
// is nil or n long, no count is negative, and every arriving weight lies
// in (0, 1]. It checks every field whichever task model the engine runs,
// so all engines accept and refuse the same batches. Engines call it
// before they change anything, so an invalid batch leaves them as they
// were.
func (b *EventBatch) Validate(n int) error {
	if b == nil {
		return nil
	}
	for _, f := range []struct {
		what string
		l    int
	}{
		{"arrival", len(b.Arrivals)},
		{"departure", len(b.Departures)},
		{"weight-arrival", len(b.WeightArrivals)},
		{"weight-departure", len(b.WeightDepartures)},
	} {
		if f.l != 0 && f.l != n {
			return fmt.Errorf("core: %d %s entries for %d nodes", f.l, f.what, n)
		}
	}
	for i, a := range b.Arrivals {
		if a < 0 {
			return fmt.Errorf("core: negative arrival %d at node %d", a, i)
		}
	}
	for i, d := range b.Departures {
		if d < 0 {
			return fmt.Errorf("core: negative departure %d at node %d", d, i)
		}
	}
	for i, ws := range b.WeightArrivals {
		if err := task.Weights(ws).Validate(); err != nil {
			return fmt.Errorf("core: node %d: %w", i, err)
		}
	}
	for i, d := range b.WeightDepartures {
		if d < 0 {
			return fmt.Errorf("core: negative weight departure %d at node %d", d, i)
		}
	}
	return nil
}

// EventLedger accumulates the workload mutations actually applied during
// a run. Task and weight totals are conserved net of the ledger: for the
// uniform model, final = initial + Arrived − Departed; for the weighted
// model, the task count obeys initial + ArrivedTasks − DepartedTasks and
// the total weight obeys initial + ArrivedWeight − DepartedWeight (up to
// floating-point summation error).
type EventLedger struct {
	// Batches counts the event batches the driver applied.
	Batches int `json:"batches,omitempty"`
	// Arrived and Departed count uniform tasks injected and drained.
	Arrived  int64 `json:"arrived,omitempty"`
	Departed int64 `json:"departed,omitempty"`
	// ArrivedTasks/ArrivedWeight and DepartedTasks/DepartedWeight count
	// weighted tasks and their total weight.
	ArrivedTasks   int64   `json:"arrivedTasks,omitempty"`
	ArrivedWeight  float64 `json:"arrivedWeight,omitempty"`
	DepartedTasks  int64   `json:"departedTasks,omitempty"`
	DepartedWeight float64 `json:"departedWeight,omitempty"`
}

// Add accumulates d into l.
func (l *EventLedger) Add(d EventLedger) {
	l.Batches += d.Batches
	l.Arrived += d.Arrived
	l.Departed += d.Departed
	l.ArrivedTasks += d.ArrivedTasks
	l.ArrivedWeight += d.ArrivedWeight
	l.DepartedTasks += d.DepartedTasks
	l.DepartedWeight += d.DepartedWeight
}

// DynamicEngine is an Engine that accepts pre-round workload mutation.
// Drive calls ApplyEvents with the batch for round r immediately before
// Step(r), so the round's protocol decisions see the post-event state.
// Every engine applies the same batch to the same pre-round state, and
// departure clamping depends only on that state, so the returned ledgers
// — and the trajectories — stay bit-identical across engines.
type DynamicEngine interface {
	ApplyEvents(batch *EventBatch) (EventLedger, error)
}

// EventStepper is an engine that takes a round's event batch inside the
// round itself. A Runner prefers StepEvents over the ApplyEvents-then-Step
// pair when a batch is due: engines that span a coordination boundary
// (the clusters, which take events this way only) carry the batch on
// the round's opening frame and the report on the first gather, so a
// batch costs no barrier of its own. The semantics are identical to
// ApplyEvents(batch) followed by Step(r, base) — events land on the
// pre-round state, the round's decisions see the post-event state, and
// the returned ledger and move count are bit-identical.
type EventStepper interface {
	StepEvents(r uint64, base *rng.Stream, batch *EventBatch) (int64, EventLedger, error)
}

// RequireEvents refuses an engine that takes workload events neither as
// a DynamicEngine nor as an EventStepper.
func RequireEvents(e any) error {
	switch e.(type) {
	case DynamicEngine, EventStepper:
		return nil
	}
	return fmt.Errorf("core: engine %T does not support workload events", e)
}

// ApplyCountsBatch applies the uniform-model part of batch to counts in
// place: arrivals first, then departures clamped to the tasks present.
// It is the single source of truth for uniform event application,
// shared by the sequential state and the shard engine. It checks the
// whole batch before it mutates anything, so a batch that Validate
// refuses, or with arrivals that would take the total of counts past
// math.MaxInt64 (which bounds every node too), fails and leaves counts
// as they were.
func ApplyCountsBatch(counts []int64, batch *EventBatch) (EventLedger, error) {
	var led EventLedger
	if batch == nil {
		return led, nil
	}
	if err := batch.Validate(len(counts)); err != nil {
		return led, err
	}
	if len(batch.Arrivals) != 0 {
		var total int64
		for _, c := range counts {
			total += c
		}
		if _, err := AddTasks(total, batch.Arrivals); err != nil {
			return led, err
		}
	}
	for i, a := range batch.Arrivals {
		if a == 0 {
			continue
		}
		counts[i] += a
		led.Arrived += a
	}
	for i, d := range batch.Departures {
		if d > counts[i] {
			d = counts[i]
		}
		if d == 0 {
			continue
		}
		counts[i] -= d
		led.Departed += d
	}
	return led, nil
}

// AddTasks returns total plus the non-negative per-node counts, and
// refuses counts that would take it past math.MaxInt64. Every uniform
// task total goes through it: a start, a restored checkpoint and each
// batch's arrivals.
func AddTasks(total int64, counts []int64) (int64, error) {
	for i, a := range counts {
		if a > math.MaxInt64-total {
			return 0, fmt.Errorf("core: %d tasks at node %d overflow the task total", a, i)
		}
		total += a
	}
	return total, nil
}

// Inject adds k unit tasks to node i.
func (st *UniformState) Inject(i int, k int64) error {
	if i < 0 || i >= len(st.counts) {
		return fmt.Errorf("core: inject at node %d of %d", i, len(st.counts))
	}
	if k < 0 {
		return fmt.Errorf("core: negative injection %d", k)
	}
	st.counts[i] += k
	st.total += k
	return nil
}

// Drain removes up to k unit tasks from node i and returns the number
// actually removed.
func (st *UniformState) Drain(i int, k int64) int64 {
	if i < 0 || i >= len(st.counts) || k <= 0 {
		return 0
	}
	if k > st.counts[i] {
		k = st.counts[i]
	}
	st.counts[i] -= k
	st.total -= k
	return k
}

// ApplyEvents implements the uniform-model event application on the
// sequential state; see ApplyCountsBatch for the semantics.
func (st *UniformState) ApplyEvents(batch *EventBatch) (EventLedger, error) {
	led, err := ApplyCountsBatch(st.counts, batch)
	st.total += led.Arrived - led.Departed
	return led, err
}

// Resize moves the distribution onto a new system after a topology
// change: oldOf[newI] names the node of the current system whose tasks
// node newI inherits, or -1 for a freshly joined (empty) node. Every
// current node must either be referenced exactly once or hold zero tasks
// — tasks cannot silently vanish; rehome them (Drain/Inject) before
// resizing. That makes Resize conserving by construction.
func (st *UniformState) Resize(newSys *System, oldOf []int) (*UniformState, error) {
	if newSys == nil {
		return nil, fmt.Errorf("core: resize onto nil system")
	}
	if len(oldOf) != newSys.N() {
		return nil, fmt.Errorf("core: %d mappings for %d nodes", len(oldOf), newSys.N())
	}
	counts := make([]int64, newSys.N())
	used := make([]bool, len(st.counts))
	for newI, oldI := range oldOf {
		if oldI < 0 {
			continue
		}
		if oldI >= len(st.counts) {
			return nil, fmt.Errorf("core: resize mapping %d out of range [0,%d)", oldI, len(st.counts))
		}
		if used[oldI] {
			return nil, fmt.Errorf("core: resize mapping references node %d twice", oldI)
		}
		used[oldI] = true
		counts[newI] = st.counts[oldI]
	}
	for oldI, u := range used {
		if !u && st.counts[oldI] != 0 {
			return nil, fmt.Errorf("core: resize drops %d tasks on node %d; rehome them first", st.counts[oldI], oldI)
		}
	}
	return NewUniformState(newSys, counts)
}

// Inject adds tasks with the given weights (each in (0,1]) to node i.
func (st *WeightedState) Inject(i int, ws []float64) error {
	if i < 0 || i >= len(st.tasks) {
		return fmt.Errorf("core: inject at node %d of %d", i, len(st.tasks))
	}
	if err := task.Weights(ws).Validate(); err != nil {
		return err
	}
	st.inject(i, ws)
	return nil
}

// inject is Inject without its checks.
func (st *WeightedState) inject(i int, ws []float64) {
	for _, w := range ws {
		st.tasks[i] = append(st.tasks[i], w)
		st.nodeWeight[i] += w
		st.totalW += w
	}
	st.count += len(ws)
	st.sinceRecompute += len(ws)
}

// Drain removes up to k tasks from node i — the most recently appended
// first, which is deterministic because every engine maintains the
// identical task order — and returns their weights.
func (st *WeightedState) Drain(i, k int) task.Weights {
	if i < 0 || i >= len(st.tasks) || k <= 0 {
		return nil
	}
	if k > len(st.tasks[i]) {
		k = len(st.tasks[i])
	}
	cut := len(st.tasks[i]) - k
	removed := append(task.Weights(nil), st.tasks[i][cut:]...)
	st.tasks[i] = st.tasks[i][:cut]
	for _, w := range removed {
		st.nodeWeight[i] -= w
		st.totalW -= w
	}
	st.count -= k
	st.sinceRecompute += k
	return removed
}

// ApplyEvents implements the weighted-model event application:
// WeightArrivals are injected first, then WeightDepartures drain tasks
// (most recent first, clamped to the queue). Its updates count toward
// the next rebuild of the cached sums, which only a round's end runs.
// A batch that Validate refuses fails and leaves the state as it was.
func (st *WeightedState) ApplyEvents(batch *EventBatch) (EventLedger, error) {
	var led EventLedger
	if batch == nil {
		return led, nil
	}
	if err := batch.Validate(len(st.tasks)); err != nil {
		return led, err
	}
	for i, ws := range batch.WeightArrivals {
		if len(ws) == 0 {
			continue
		}
		st.inject(i, ws)
		led.ArrivedTasks += int64(len(ws))
		for _, w := range ws {
			led.ArrivedWeight += w
		}
	}
	for i, d := range batch.WeightDepartures {
		removed := st.Drain(i, int(d))
		led.DepartedTasks += int64(len(removed))
		led.DepartedWeight += removed.Total()
	}
	return led, nil
}

// Resize moves the weighted distribution onto a new system; the mapping
// contract is identical to UniformState.Resize (unreferenced nodes must
// be empty).
func (st *WeightedState) Resize(newSys *System, oldOf []int) (*WeightedState, error) {
	if newSys == nil {
		return nil, fmt.Errorf("core: resize onto nil system")
	}
	if len(oldOf) != newSys.N() {
		return nil, fmt.Errorf("core: %d mappings for %d nodes", len(oldOf), newSys.N())
	}
	perNode := make([]task.Weights, newSys.N())
	used := make([]bool, len(st.tasks))
	for newI, oldI := range oldOf {
		if oldI < 0 {
			continue
		}
		if oldI >= len(st.tasks) {
			return nil, fmt.Errorf("core: resize mapping %d out of range [0,%d)", oldI, len(st.tasks))
		}
		if used[oldI] {
			return nil, fmt.Errorf("core: resize mapping references node %d twice", oldI)
		}
		used[oldI] = true
		perNode[newI] = append(task.Weights(nil), st.tasks[oldI]...)
	}
	for oldI, u := range used {
		if !u && len(st.tasks[oldI]) != 0 {
			return nil, fmt.Errorf("core: resize drops %d tasks on node %d; rehome them first", len(st.tasks[oldI]), oldI)
		}
	}
	return NewWeightedState(newSys, perNode)
}
