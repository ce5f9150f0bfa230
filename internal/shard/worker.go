package shard

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/task"
	"repro/internal/transport"
)

// A cluster worker executes exactly one shard of an instance inside its
// own process, driven frame by frame by the coordinator (cluster.go).
// It holds its own rows and its halo, nothing indexed by all n nodes,
// in a local id space: its own nodes are the ids 0…m−1 and its halo
// slots follow at m…m+h−1, in the partition's ascending halo-slot order.
// From the config frame it rebuilds only its own rows (the descriptor's
// row range, checked against the coordinator's digest of those rows),
// rewrites them into local ids, and builds the same engine the in-process
// path uses over a window partition (the cut points and a halo-slot
// owner table) and a window core.System (own + halo speeds, the halo's
// true degrees, the instance's Δ and s_max). It drives that shard's
// three phases directly, so every decide and commit runs the
// byte-for-byte identical code; only the flow exchange differs, swapped
// behind the Transport interface. Node streams stay keyed by global id
// (the engine's gbase), and flows change between local and global ids
// only where this file encodes or decodes a frame, so no frame byte
// depends on the local ids. The per-round load exchange is O(cut): own
// boundary loads out, halo loads back.

// workerTransport is the socket-backed Transport of a cluster worker:
// the worker's own published lists are held locally (its intra-shard
// traffic never touches the wire), and the per-source inbound lists are
// loaded from the coordinator's grant frame before each commit.
type workerTransport struct {
	own    int
	lists  [][]transport.Flow  // own published lists, by destination
	wlists [][]transport.WFlow // weighted twin
	in     [][]transport.Flow  // inbound flows, by source shard
	inW    [][]transport.WFlow
}

func (t *workerTransport) PublishFlows(src int, lists [][]transport.Flow)   { t.lists = lists }
func (t *workerTransport) PublishWFlows(src int, lists [][]transport.WFlow) { t.wlists = lists }

func (t *workerTransport) Flows(src, dst int) []transport.Flow {
	if src == t.own {
		return t.lists[dst]
	}
	return t.in[src]
}

func (t *workerTransport) WFlows(src, dst int) []transport.WFlow {
	if src == t.own {
		return t.wlists[dst]
	}
	return t.inW[src]
}

// WorkerOptions carries test hooks for RunWorkerOpts.
type WorkerOptions struct {
	// AfterRound, when non-nil, runs after the worker has completed
	// round r and sent its step-done frame. The kill-and-resume tests
	// use it to crash the process at a chosen round.
	AfterRound func(round uint64)
}

// RunWorker serves one shard over rw until the coordinator sends a done
// frame (returning nil) or the session fails (returning the error,
// after best-effort reporting it to the coordinator as an error frame).
// The caller owns rw and closes it after RunWorker returns.
func RunWorker(rw io.ReadWriter) error {
	return RunWorkerOpts(rw, WorkerOptions{})
}

// RunWorkerOpts is RunWorker with test hooks.
func RunWorkerOpts(rw io.ReadWriter, wo WorkerOptions) error {
	conn := transport.NewConn(rw)
	w, err := newWorker(conn)
	if err != nil {
		conn.WriteError(err.Error())
		return err
	}
	defer w.close()
	if err := w.loop(wo); err != nil {
		conn.WriteError(err.Error())
		return err
	}
	return nil
}

// worker is the per-process shard server state.
type worker struct {
	conn   *transport.Conn
	buf    transport.Buffer
	model  uint8
	own    int
	p      int
	lo, hi int     // global own range: local id k is global lo+k
	halo   []int32 // global id of each halo slot (the partition's halo list)
	tr     *workerTransport

	ue *Engine
	we *WeightedEngine

	// Rebuild inputs, retained so a coordinator-materialized state
	// (KindStateLoad) can replace the weighted engine mid-session.
	sys    *core.System
	part   *Partition
	wproto core.WeightedFlatProtocol

	// Halo exchange: this shard's boundary rows (local ids, an alias of
	// the partition's storage), the engine's load view, and the
	// gather/scatter staging slices.
	view     LoadView
	boundary []int32
	bvals    []float64
	hvals    []float64

	// evbuf stages the event report encoded against the pre-event state,
	// shipped either standalone (KindEventsReport) or piggybacked on the
	// round's boundary-loads frame.
	evbuf transport.Buffer

	scratch []float64 // drain-report staging

	// Cumulative telemetry, reported to the coordinator as a KindStats
	// frame piggybacked on every round barrier. Written only between
	// protocol steps; never read by any decide/commit path.
	stats WorkerStats
}

// newWorker reads the config frame, builds the window and the engine it
// describes and acknowledges readiness.
func newWorker(conn *transport.Conn) (*worker, error) {
	kind, payload, err := conn.ReadFrame()
	if err != nil {
		return nil, err
	}
	if kind != transport.KindConfig {
		return nil, fmt.Errorf("shard: worker: expected config frame, got %v", kind)
	}
	var b transport.Buffer
	b.Load(payload)
	cfg, err := decodeConfig(&b)
	if err != nil {
		return nil, err
	}
	// decodeConfig copied every field out of the frame; later frames are
	// a small fraction of its size, so do not keep its buffer.
	conn.ReleaseBuffer()
	sys, part, err := cfg.build()
	if err != nil {
		return nil, fmt.Errorf("shard: worker: %w", err)
	}
	lo, hi := cfg.ownRange()
	w := &worker{
		conn:     conn,
		model:    cfg.Model,
		own:      cfg.Shard,
		p:        cfg.P(),
		lo:       lo,
		hi:       hi,
		halo:     part.Halo(cfg.Shard),
		sys:      sys,
		part:     part,
		boundary: part.Boundary(cfg.Shard),
		tr: &workerTransport{
			own: cfg.Shard,
			in:  make([][]transport.Flow, cfg.P()),
			inW: make([][]transport.WFlow, cfg.P()),
		},
	}
	switch cfg.Model {
	case modelUniform:
		proto, err := uniformProtoFor(cfg.Proto, cfg.Alpha)
		if err != nil {
			return nil, err
		}
		e, err := newEngine(sys, proto, cfg.Counts, part, 1, lo)
		if err != nil {
			return nil, err
		}
		e.tr = w.tr
		w.ue = e
		w.view = e.view
	case modelWeighted:
		proto, err := weightedProtoFor(cfg.Proto, cfg.Alpha)
		if err != nil {
			return nil, err
		}
		perNode, err := expandSegments(cfg.SegLen, cfg.Segs)
		if err != nil {
			return nil, err
		}
		e, err := newWeighted(sys, proto, perNode, part, 1, lo)
		if err != nil {
			return nil, err
		}
		if cfg.Restored {
			// The checkpointed cached sums drift from the exact folds
			// between periodic recomputes; adopt them bit-for-bit instead
			// of the fresh folds newWeighted computed.
			copy(e.nodeWeight, cfg.NodeWeight)
			clear(e.sumValid)
		}
		e.tr = w.tr
		w.we = e
		w.wproto = proto
		w.view = e.view
	default:
		return nil, fmt.Errorf("shard: worker: unknown model %d", cfg.Model)
	}
	if err := conn.WriteFrame(transport.KindVote, nil); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

// expandSegments unpacks an own-range (SegLen, Segs) pair into per-node
// weights, one entry per own node. The returned segments alias segs.
func expandSegments(segLen []int64, segs []float64) ([]task.Weights, error) {
	perNode := make([]task.Weights, len(segLen))
	idx := int64(0)
	for k, l := range segLen {
		if l < 0 || idx+l > int64(len(segs)) {
			return nil, fmt.Errorf("shard: worker: segment [%d,%d) outside pool of %d", idx, idx+l, len(segs))
		}
		perNode[k] = task.Weights(segs[idx : idx+l])
		idx += l
	}
	if idx != int64(len(segs)) {
		return nil, fmt.Errorf("shard: worker: %d pool weights beyond the segments", int64(len(segs))-idx)
	}
	return perNode, nil
}

// globalFlows rewrites outbound flow destinations from local halo ids to
// global ids, in place, before the lists are encoded; the engine resets
// them at its next decide.
func (w *worker) globalFlows(fs []transport.Flow) []transport.Flow {
	m := int32(w.hi - w.lo)
	for k := range fs {
		fs[k].Node = w.halo[fs[k].Node-m]
	}
	return fs
}

// globalWFlows is globalFlows for the weighted model.
func (w *worker) globalWFlows(fs []transport.WFlow) []transport.WFlow {
	m := int32(w.hi - w.lo)
	for k := range fs {
		fs[k].Dst = w.halo[fs[k].Dst-m]
	}
	return fs
}

func (w *worker) close() {
	if w.ue != nil {
		w.ue.Close()
	}
	if w.we != nil {
		w.we.Close()
	}
}

// loop serves coordinator frames until done.
func (w *worker) loop(wo WorkerOptions) error {
	for {
		kind, payload, err := w.conn.ReadFrame()
		if err != nil {
			return err
		}
		switch kind {
		case transport.KindRound:
			var r uint64
			if r, err = w.round(payload); err == nil && wo.AfterRound != nil {
				wo.AfterRound(r)
			}
		case transport.KindEvents:
			err = w.events(payload)
		case transport.KindStateLoad:
			err = w.adoptState(payload)
		case transport.KindStateReq:
			w.encodeOwnState()
			err = w.conn.WriteFrame(transport.KindState, w.buf.B)
		case transport.KindCheckpoint:
			// The payload (the round number) is informational; the reply
			// carries this shard's state for the coordinator to persist.
			w.encodeOwnState()
			err = w.conn.WriteFrame(transport.KindCheckpointAck, w.buf.B)
		case transport.KindDone:
			return nil
		default:
			return fmt.Errorf("shard: worker: unexpected %v frame", kind)
		}
		if err != nil {
			return err
		}
	}
}

// round executes one protocol round: apply the piggybacked event batch
// (if the round frame carries one), snapshot own loads, trade boundary
// loads for halo loads, decide, ship the outbound cross-shard flows,
// load the grant (move bases, recompute crossing, inbound flows),
// commit, and report step completion (with the fresh own-range sums on
// recompute rounds). The frame sequence is strict alternation with the
// coordinator — read exactly when it writes and vice versa — which
// keeps the lockstep deadlock-free even over unbuffered pipes.
func (w *worker) round(payload []byte) (uint64, error) {
	var b transport.Buffer
	b.Load(payload)
	r, err := b.U64()
	if err != nil {
		return 0, err
	}
	var words [5]uint64
	for i := range words {
		if words[i], err = b.U64(); err != nil {
			return 0, err
		}
	}
	rs := rng.StreamFromWords(words)
	evFlag, err := b.U8()
	if err != nil {
		return 0, err
	}
	w.evbuf.Reset()
	if evFlag != 0 {
		batch, err := decodeEventSlice(&b, w.model, w.lo, w.hi)
		if err != nil {
			return 0, err
		}
		if err := w.applyLocalEvents(batch); err != nil {
			return 0, err
		}
	}

	// Phase 1: boundary loads out (the event report, if any, rides the
	// same frame), halo loads back — O(cut) either way, never the full
	// vector.
	t := time.Now()
	if w.model == modelUniform {
		w.ue.snapshotLoads(w.own)
	} else {
		w.we.snapshotLoads(w.own)
	}
	w.stats.SnapshotNs += int64(time.Since(t))
	w.bvals = w.view.Gather(w.boundary, w.bvals)
	w.buf.Reset()
	w.buf.PutF64s(w.bvals)
	w.buf.B = append(w.buf.B, w.evbuf.B...)
	if err := w.conn.WriteFrame(transport.KindBoundaryLoads, w.buf.B); err != nil {
		return 0, err
	}
	t = time.Now()
	payload, err = w.conn.Expect(transport.KindHaloLoads)
	w.stats.BarrierWaitNs += int64(time.Since(t))
	if err != nil {
		return 0, err
	}
	b.Load(payload)
	hv, err := b.F64s(w.hvals[:0])
	if err != nil {
		return 0, err
	}
	w.hvals = hv
	if len(hv) != len(w.halo) {
		return 0, fmt.Errorf("shard: worker: %d halo loads for %d halo nodes", len(hv), len(w.halo))
	}
	w.view.FillHalo(hv)

	// Phase 2: decide own shard, publish locally, ship the cross-shard
	// lists (the own-destination list stays local and never hits the
	// wire — for the weighted model it is the dominant, intra-shard one).
	t = time.Now()
	w.buf.Reset()
	if w.model == modelUniform {
		e := w.ue
		e.decideShard(w.own, rs, e.scratch[0])
		e.tr.PublishFlows(w.own, e.outFlows[w.own])
		w.buf.PutI64(e.moves[w.own])
		w.buf.PutU32(uint32(w.p))
		for d := 0; d < w.p; d++ {
			if d == w.own {
				w.buf.PutFlows(nil)
			} else {
				w.buf.PutFlows(w.globalFlows(w.tr.lists[d]))
				w.stats.FlowsOut += int64(len(w.tr.lists[d]))
			}
		}
	} else {
		e := w.we
		e.decideShard(w.own, rs, e.scratch[0])
		e.tr.PublishWFlows(w.own, e.outFlows[w.own])
		w.buf.PutI64(e.moves[w.own])
		w.buf.PutU32(uint32(w.p))
		for d := 0; d < w.p; d++ {
			if d == w.own {
				w.buf.PutWFlows(nil)
			} else {
				w.buf.PutWFlows(w.globalWFlows(w.tr.wlists[d]))
				w.stats.FlowsOut += int64(len(w.tr.wlists[d]))
			}
		}
	}
	w.stats.DecideNs += int64(time.Since(t))
	if err := w.conn.WriteFrame(transport.KindFlows, w.buf.B); err != nil {
		return 0, err
	}

	// Phase 3: grant in, commit, step done.
	t = time.Now()
	payload, err = w.conn.Expect(transport.KindGrant)
	w.stats.BarrierWaitNs += int64(time.Since(t))
	if err != nil {
		return 0, err
	}
	b.Load(payload)
	t = time.Now()
	crossed := false
	if w.model == modelUniform {
		if err := decodeGrant(&b, w.lo, w.hi, w.tr.in); err != nil {
			return 0, err
		}
		w.ue.commitShard(w.own)
	} else {
		e := w.we
		sb, crossAt, err := decodeWGrant(&b, w.lo, w.hi, e.shardBase, w.tr.inW)
		if err != nil {
			return 0, err
		}
		e.shardBase, e.crossAt = sb, crossAt
		crossed = crossAt >= 0
		e.commitShard(w.own)
	}
	w.stats.CommitNs += int64(time.Since(t))
	w.buf.Reset()
	if crossed {
		w.buf.PutU8(1)
		w.buf.PutF64s(w.we.freshSum)
	} else {
		w.buf.PutU8(0)
	}
	if err := w.conn.WriteFrame(transport.KindStepDone, w.buf.B); err != nil {
		return 0, err
	}
	// Piggyback the cumulative telemetry on the round barrier. The
	// coordinator consumes it right after the step-done gather, so the
	// lockstep stays deadlock-free; connection counters are sampled as
	// of the step-done write.
	ws := w.stats
	ws.Conn = w.conn.Stats()
	w.buf.Reset()
	encodeWorkerStats(&w.buf, ws)
	if err := w.conn.WriteFrame(transport.KindStats, w.buf.B); err != nil {
		return 0, err
	}
	return r, nil
}

// events applies a standalone pre-round workload batch (KindEvents) to
// the worker's own range and replies with the event report.
func (w *worker) events(payload []byte) error {
	var b transport.Buffer
	b.Load(payload)
	batch, err := decodeEventSlice(&b, w.model, w.lo, w.hi)
	if err != nil {
		return err
	}
	w.evbuf.Reset()
	if err := w.applyLocalEvents(batch); err != nil {
		return err
	}
	return w.conn.WriteFrame(transport.KindEventsReport, w.evbuf.B)
}

// applyLocalEvents applies an own-range workload batch (indexed by
// local id, see decodeEventSlice) to the worker's own range, staging
// the event report, which names global ids, in w.evbuf. For the
// weighted model the report carries, per own node in ascending order,
// the exact weights
// the drain removes — computed against the pre-event state with
// WeightedState.Drain's clamp-and-truncate rule — so the coordinator
// can replay the global totalW and ledger float64 operation sequence in
// the sequential engine's exact order. The worker's own recompute
// counter is pinned to zero first: the coordinator owns the threshold
// accounting and routes batches that would cross it through the
// materialized state path instead.
func (w *worker) applyLocalEvents(batch *core.EventBatch) error {
	if w.model == modelUniform {
		led, err := w.ue.ApplyEvents(batch)
		if err != nil {
			return err
		}
		w.evbuf.PutI64(led.Arrived)
		w.evbuf.PutI64(led.Departed)
		return nil
	}
	e := w.we
	m := w.hi - w.lo
	cnt := uint32(0)
	for i := 0; i < m; i++ {
		if e.drainCount(i, batch) > 0 {
			cnt++
		}
	}
	w.evbuf.PutU32(cnt)
	for i := 0; i < m; i++ {
		k := e.drainCount(i, batch)
		if k <= 0 {
			continue
		}
		oldCnt := e.nodeCount(i)
		var arr []float64
		if len(batch.WeightArrivals) != 0 {
			arr = batch.WeightArrivals[i]
		}
		seg := e.nodeSegment(i)
		drained := w.scratch[:0]
		for p := oldCnt + int64(len(arr)) - k; p < oldCnt+int64(len(arr)); p++ {
			if p < oldCnt {
				drained = append(drained, seg[p])
			} else {
				drained = append(drained, arr[p-oldCnt])
			}
		}
		w.scratch = drained[:0]
		w.evbuf.PutU32(uint32(w.lo + i))
		w.evbuf.PutF64s(drained)
	}
	e.sinceRecompute = 0
	_, err := e.ApplyEvents(batch)
	return err
}

// adoptState replaces the weighted engine's own-range state with a
// coordinator-materialized one (the threshold-crossing event path,
// KindStateLoad). The engine is rebuilt from scratch — its segment
// pools cannot shrink in place — and the shipped cached per-node sums
// are adopted bit-for-bit, exactly as a checkpoint restore does.
func (w *worker) adoptState(payload []byte) error {
	if w.model != modelWeighted {
		return fmt.Errorf("shard: worker: state-load frame for the uniform model")
	}
	var b transport.Buffer
	b.Load(payload)
	st, err := decodeOwnState(&b, w.model)
	if err != nil {
		return err
	}
	if len(st.SegLen) != w.hi-w.lo || len(st.NodeWeight) != w.hi-w.lo {
		return fmt.Errorf("shard: worker: state sized %d/%d for range of %d", len(st.SegLen), len(st.NodeWeight), w.hi-w.lo)
	}
	perNode, err := expandSegments(st.SegLen, st.Segs)
	if err != nil {
		return err
	}
	e, err := newWeighted(w.sys, w.wproto, perNode, w.part, 1, w.lo)
	if err != nil {
		return err
	}
	copy(e.nodeWeight, st.NodeWeight)
	clear(e.sumValid)
	e.tr = w.tr
	w.we.Close()
	w.we = e
	w.view = e.view
	return w.conn.WriteFrame(transport.KindEventsDone, nil)
}

// encodeOwnState encodes the worker's own index range into w.buf in the
// ownState layout, for state gathers and checkpoints. Weighted segments
// are encoded straight from the engine's storage.
func (w *worker) encodeOwnState() {
	w.buf.Reset()
	if w.model == modelUniform {
		w.buf.PutI64s(w.ue.counts)
		return
	}
	e := w.we
	segLen := e.segLen[w.own]
	w.buf.PutI64s(segLen)
	w.buf.PutU32(uint32(sum64(segLen)))
	for k := range segLen {
		for _, x := range e.seg(w.own, k) {
			w.buf.PutF64(x)
		}
	}
	w.buf.PutF64s(e.nodeWeight)
}

// uniformProtoFor resolves a wire protocol name for the uniform model.
func uniformProtoFor(name string, alpha float64) (core.UniformNodeProtocol, error) {
	if name == "algorithm1" {
		return core.Algorithm1{Alpha: alpha}, nil
	}
	return nil, fmt.Errorf("shard: worker: unknown uniform protocol %q", name)
}

// weightedProtoFor resolves a wire protocol name for the weighted model.
func weightedProtoFor(name string, alpha float64) (core.WeightedFlatProtocol, error) {
	if name == "algorithm2" {
		return core.Algorithm2{Alpha: alpha}, nil
	}
	return nil, fmt.Errorf("shard: worker: unknown weighted protocol %q", name)
}
