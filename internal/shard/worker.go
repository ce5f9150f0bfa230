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
// true degrees, the instance's Δ and s_max). The engine is the shard
// kernel alone — it starts no goroutine — and the worker drives that
// shard's three phases directly, so every decide and commit runs the
// byte-for-byte identical code on the same slices as in process. The
// frames read and write those slices in place: the boundary loads are
// packed from the engine's load vector and the halo frame is decoded
// into its halo slots; the flows frame carries the engine's own row of
// flow lists, outFlows[own], and the grant is decoded into its own
// column, outFlows[src][own], which the commit reads. Node streams stay
// keyed by global id (the engine's gbase), and flows change between
// local and global ids only where this file encodes or decodes a frame,
// so no frame byte depends on the local ids. The per-round load exchange
// is O(cut): own boundary loads out, halo loads back.

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

	sys *core.System // the window system the engine runs on
	ue  *Engine
	we  *WeightedEngine

	// Halo exchange: the engine's load vector (own rows 0…m−1, then the
	// halo slots) and this shard's boundary rows (local ids, an alias of
	// the partition's storage).
	loads    []float64
	boundary []int32

	// evbuf stages the event report encoded against the pre-event state,
	// which rides the round's boundary-loads frame.
	evbuf transport.Buffer

	scratch []float64 // drain-report staging

	// Cumulative telemetry, reported to the coordinator in every
	// step-done frame. Written only between protocol steps; never read
	// by any decide/commit path.
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
		boundary: part.Boundary(cfg.Shard),
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
		w.ue, w.loads = e, e.loads
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
		}
		w.we, w.loads = e, e.loads
	default:
		return nil, fmt.Errorf("shard: worker: unknown model %d", cfg.Model)
	}
	if err := conn.WriteFrame(transport.KindVote, nil); err != nil {
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
		case transport.KindStateReq:
			w.encodeOwnState()
			err = w.conn.WriteFrame(transport.KindState, w.buf.B)
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
// load the grant (move bases, refold flag, inbound flows), commit,
// refold the own rows' cached weight sums if the grant says so, and
// report step completion (with the refolded sums and the worker's
// telemetry). The frame sequence is strict alternation with the
// coordinator — read exactly when it writes and vice versa — which
// keeps the lockstep deadlock-free even over unbuffered pipes.
func (w *worker) round(payload []byte) (uint64, error) {
	var b transport.Buffer
	b.Load(payload)
	r, words, batch, err := decodeRound(&b, w.model, w.lo, w.hi)
	if err != nil {
		return 0, err
	}
	rs := rng.StreamFromWords(words)
	w.evbuf.Reset()
	if batch != nil {
		if err := w.applyLocalEvents(batch); err != nil {
			return 0, err
		}
	}

	// Phase 1: boundary loads out (the event report, if any, rides the
	// same frame), halo loads back — O(cut) either way, never the full
	// vector. Both move straight between the frames and the engine's
	// load vector.
	t := time.Now()
	if w.model == modelUniform {
		w.ue.snapshotLoads(w.own)
	} else {
		w.we.snapshotLoads(w.own)
	}
	w.stats.SnapshotNs += int64(time.Since(t))
	w.buf.Reset()
	w.buf.PutU32(uint32(len(w.boundary)))
	for _, k := range w.boundary {
		w.buf.PutF64(w.loads[k])
	}
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
	if err := decodeHalo(&b, w.loads[w.hi-w.lo:]); err != nil {
		return 0, err
	}

	// Phase 2: decide own shard and ship its row of flow lists, except
	// the own-destination list, which stays local and never hits the
	// wire (for the weighted model it is the dominant, intra-shard one).
	t = time.Now()
	w.buf.Reset()
	if w.model == modelUniform {
		e := w.ue
		e.decideShard(w.own, rs, e.scratch[0])
		w.buf.PutI64(e.moves[w.own])
		w.buf.PutU32(uint32(w.p))
		for d, l := range e.outFlows[w.own] {
			if d == w.own {
				l = nil
			}
			w.buf.PutFlows(w.globalFlows(l))
			w.stats.FlowsOut += int64(len(l))
		}
	} else {
		e := w.we
		e.decideShard(w.own, rs, e.scratch[0])
		w.buf.PutI64(e.moves[w.own])
		w.buf.PutU32(uint32(w.p))
		for d, l := range e.outFlows[w.own] {
			if d == w.own {
				l = nil
			}
			w.buf.PutWFlows(w.globalWFlows(l))
			w.stats.FlowsOut += int64(len(l))
		}
	}
	w.stats.DecideNs += int64(time.Since(t))
	if err := w.conn.WriteFrame(transport.KindFlows, w.buf.B); err != nil {
		return 0, err
	}

	// Phase 3: grant in (into the engine's own column of flow lists),
	// commit, step done.
	t = time.Now()
	payload, err = w.conn.Expect(transport.KindGrant)
	w.stats.BarrierWaitNs += int64(time.Since(t))
	if err != nil {
		return 0, err
	}
	b.Load(payload)
	t = time.Now()
	refold := false
	if w.model == modelUniform {
		if err := decodeGrant(&b, w.own, w.lo, w.hi, w.ue.outFlows); err != nil {
			return 0, err
		}
		w.ue.commitShard(w.own)
	} else {
		e := w.we
		e.shardBase, refold, err = decodeWGrant(&b, w.own, w.lo, w.hi, e.shardBase, e.outFlows)
		if err != nil {
			return 0, err
		}
		e.commitShard(w.own)
		if refold {
			e.refoldShard(w.own)
		}
	}
	w.stats.CommitNs += int64(time.Since(t))
	w.buf.Reset()
	if refold {
		w.buf.PutU8(1)
		w.buf.PutF64s(w.we.nodeWeight)
	} else {
		w.buf.PutU8(0)
	}
	// The telemetry's connection counters are sampled before this
	// frame's write, so they do not count it.
	w.stats.Conn = w.conn.Stats()
	encodeWorkerStats(&w.buf, w.stats)
	if err := w.conn.WriteFrame(transport.KindStepDone, w.buf.B); err != nil {
		return 0, err
	}
	return r, nil
}

// applyLocalEvents applies an own-range workload batch (indexed by
// local id, see decodeEventSlice) to the worker's own range, staging
// the event report, which names global ids, in w.evbuf. For the
// weighted model the report carries, per own node in ascending order,
// the exact weights
// the drain removes — computed against the pre-event state with
// WeightedState.Drain's clamp-and-truncate rule — so the coordinator
// can replay the global totalW and ledger float64 operation sequence in
// the sequential engine's exact order. The coordinator owns the update
// count toward the next refold; the engine's own count goes unread.
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
	_, err := e.ApplyEvents(batch)
	return err
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
