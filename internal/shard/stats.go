package shard

import (
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
)

// Cluster-wide telemetry. Every worker appends its cumulative phase
// timings, barrier waits, flow volumes and connection counters to its
// step-done frame (the counters as of that frame's write, which they do
// not count); the coordinator decodes them into WorkerStats and
// aggregates a ClusterStats view. The values are pure observability:
// the coordinator never feeds one into a protocol decision, so they
// cannot perturb the bit-exact trajectory — the cluster parity suites
// run with the telemetry permanently on.

// WorkerStats is the cumulative telemetry one worker has reported:
// wall-clock nanoseconds per engine phase, time blocked waiting for
// coordinator barriers (the loads broadcast and the commit grant),
// cross-shard flow records shipped, and its transport counters.
type WorkerStats struct {
	SnapshotNs    int64               `json:"snapshotNs"`
	DecideNs      int64               `json:"decideNs"`
	CommitNs      int64               `json:"commitNs"`
	BarrierWaitNs int64               `json:"barrierWaitNs"`
	FlowsOut      int64               `json:"flowsOut"`
	Conn          transport.ConnStats `json:"conn"`
}

func encodeWorkerStats(b *transport.Buffer, ws WorkerStats) {
	b.PutI64(ws.SnapshotNs)
	b.PutI64(ws.DecideNs)
	b.PutI64(ws.CommitNs)
	b.PutI64(ws.BarrierWaitNs)
	b.PutI64(ws.FlowsOut)
	b.PutU64(ws.Conn.FramesSent)
	b.PutU64(ws.Conn.BytesSent)
	b.PutU64(ws.Conn.FramesRecv)
	b.PutU64(ws.Conn.BytesRecv)
}

// decodeWorkerStats reads a worker's telemetry, which ends its
// step-done frame: nothing may follow it.
func decodeWorkerStats(b *transport.Buffer) (WorkerStats, error) {
	var ws WorkerStats
	var err error
	if ws.SnapshotNs, err = b.I64(); err != nil {
		return ws, err
	}
	if ws.DecideNs, err = b.I64(); err != nil {
		return ws, err
	}
	if ws.CommitNs, err = b.I64(); err != nil {
		return ws, err
	}
	if ws.BarrierWaitNs, err = b.I64(); err != nil {
		return ws, err
	}
	if ws.FlowsOut, err = b.I64(); err != nil {
		return ws, err
	}
	if ws.Conn.FramesSent, err = b.U64(); err != nil {
		return ws, err
	}
	if ws.Conn.BytesSent, err = b.U64(); err != nil {
		return ws, err
	}
	if ws.Conn.FramesRecv, err = b.U64(); err != nil {
		return ws, err
	}
	if ws.Conn.BytesRecv, err = b.U64(); err != nil {
		return ws, err
	}
	return ws, noTrailing(b)
}

// ClusterStats is the coordinator's aggregated telemetry: its own
// stage timings (as PhaseTimes: loads ≈ snapshot, flow gather ≈
// decide, grant/step-done ≈ commit), the latest cumulative per-worker
// reports, coordinator-side transport totals, and checkpoint-write
// durations.
type ClusterStats struct {
	Rounds      int64               `json:"rounds"`
	Coordinator PhaseTimes          `json:"coordinator"`
	Workers     []WorkerStats       `json:"workers"`
	Transport   transport.ConnStats `json:"transport"`

	// Sums over workers, for one-line summaries and flat metrics.
	BarrierWaitNs int64 `json:"barrierWaitNs"`
	FlowsOut      int64 `json:"flowsOut"`

	Checkpoints     int64 `json:"checkpoints"`
	CheckpointNs    int64 `json:"checkpointNs"`
	CheckpointMaxNs int64 `json:"checkpointMaxNs"`
}

// Phases implements PhaseTimer with the coordinator's stage timings,
// so the harness probe and the serve daemon pick cluster phase
// breakdowns up through the same type assertion as the in-process
// engines.
func (c *clusterCore) Phases() PhaseTimes {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.times
}

// SetSpans attaches a span recorder; subsequent rounds record
// coordinator-side loads/decide/commit (and checkpoint) spans into it.
func (c *clusterCore) SetSpans(rec *obs.SpanRecorder) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.spans = rec
}

// Stats aggregates the cluster-wide telemetry collected so far.
func (c *clusterCore) Stats() ClusterStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := ClusterStats{
		Rounds:          c.times.Rounds,
		Coordinator:     c.times,
		Workers:         append([]WorkerStats(nil), c.wstats...),
		Checkpoints:     c.ckCount,
		CheckpointNs:    c.ckNs,
		CheckpointMaxNs: c.ckMaxNs,
	}
	for s := 0; s < c.p; s++ {
		st.Transport.Add(c.conns[s].Stats())
	}
	for _, ws := range c.wstats {
		st.BarrierWaitNs += ws.BarrierWaitNs
		st.FlowsOut += ws.FlowsOut
	}
	return st
}

// observeStep folds one Step's stage boundaries into the coordinator
// phase times and (when attached) the span recorder. t0..t3 bracket
// the loads, flow-gather, and grant/step-done stages.
func (c *clusterCore) observeStep(t0, t1, t2, t3 time.Time) {
	c.times.Snapshot += t1.Sub(t0)
	c.times.Decide += t2.Sub(t1)
	c.times.Commit += t3.Sub(t2)
	c.times.Rounds++
	if c.spans != nil {
		c.spans.Span(0, 0, "loads", t0, t1.Sub(t0))
		c.spans.Span(0, 0, "decide", t1, t2.Sub(t1))
		c.spans.Span(0, 0, "commit", t2, t3.Sub(t2))
	}
}

// observeCheckpoint records one checkpoint write's duration.
func (c *clusterCore) observeCheckpoint(start time.Time) {
	d := time.Since(start)
	c.ckCount++
	c.ckNs += int64(d)
	if int64(d) > c.ckMaxNs {
		c.ckMaxNs = int64(d)
	}
	if c.spans != nil {
		c.spans.Span(0, 0, "checkpoint", start, d)
	}
}
