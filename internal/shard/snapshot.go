package shard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/task"
	"repro/internal/transport"
)

// Deterministic cluster checkpoints. A checkpoint is one self-contained
// file written atomically (temp + rename) by the coordinator after a
// completed round: the instance (the graph's generator descriptor and
// CSR digest, or its explicit CSR when it has no descriptor; speeds, λ₂,
// protocol, partition), the run options, the driver's progress (round,
// partial RunResult, trace position), the coordinator's authoritative
// weighted accumulators (totalW bits, recompute counter, task count)
// and every shard's own-range state (counts, or segment lengths +
// contents + cached weight sums), gathered over the wire. The rng
// "position" needs no stream state at all: the At(r, i) keying contract
// derives round r's streams from the seed alone, so seed + round is the
// complete randomness cursor. Restoring the file and replaying rounds
// c+1..MaxRounds therefore reproduces the uncheckpointed run's
// RunResult bit for bit — floats are stored as IEEE bit patterns.
//
// The writer emits LBCK v2. v1 differs only in the instance: it always
// stores the explicit CSR, with no family byte (instanceWire), and it
// stays readable.

const (
	checkpointMagic   uint32 = 0x4c42434b // "LBCK"
	checkpointVersion uint8  = 2
)

// Checkpoint is a decoded cluster checkpoint: everything needed to
// reconnect P fresh workers and resume the run mid-flight.
type Checkpoint struct {
	model    uint8
	proto    string
	alpha    float64
	p        int
	strategy Strategy

	inst instanceWire

	// Seed, MaxRounds and TraceEvery are the run options the checkpoint
	// was taken under; Resume refuses different ones.
	Seed       uint64
	MaxRounds  int
	TraceEvery int

	// Round is the last completed round; the resumed run continues at
	// Round+1.
	Round int

	totalW         float64
	count          int64
	sinceRecompute int64

	res core.RunResult

	states []*ownState
}

// Shards returns the worker count the checkpoint was taken with; a
// resume must connect exactly this many workers.
func (ck *Checkpoint) Shards() int { return ck.p }

// Weighted reports the checkpointed task model.
func (ck *Checkpoint) Weighted() bool { return ck.model == modelWeighted }

// Result returns the partial run result up to the checkpointed round.
func (ck *Checkpoint) Result() core.RunResult { return ck.res }

// checkpoint gathers every worker's state and writes the checkpoint of
// the run whose partial result is res, taken after its round
// res.Rounds, to path atomically. Callers hold c.mu or have exclusive
// use of the cluster (driveCluster runs single-threaded between Steps).
func (c *clusterCore) checkpoint(path string, opts core.RunOpts, res *core.RunResult) error {
	start := time.Now()
	states, err := c.gatherOwnStates(phaseCheckpoint)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".ckpt-*")
	if err != nil {
		return err
	}
	if err := c.writeCheckpoint(tmp, opts, res, states); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	c.observeCheckpoint(start)
	return nil
}

// checkpointStage bounds the bytes of a checkpoint body held in memory
// at once.
const checkpointStage = 64 << 10

// checkpointWriter streams a checkpoint body. Values are appended to
// the embedded staging Buffer with the transport codec; the array
// writers below shadow Buffer's with the same layout and hand the stage
// to out (the file plus a running CRC32) each time it fills, so a
// checkpoint never holds its whole body in memory (4.2 MB on a d = 18
// hypercube; 24 MB with an explicit CSR).
type checkpointWriter struct {
	transport.Buffer
	out io.Writer
	err error
}

// spill writes the stage out once it holds checkpointStage bytes.
func (w *checkpointWriter) spill() {
	if len(w.B) >= checkpointStage {
		w.flush()
	}
}

// flush writes the stage out; the first write error is kept and ends
// all further output.
func (w *checkpointWriter) flush() {
	if w.err == nil {
		_, w.err = w.out.Write(w.B)
	}
	w.Reset()
}

func (w *checkpointWriter) PutI32s(v []int32) {
	w.PutU32(uint32(len(v)))
	for _, x := range v {
		w.PutU32(uint32(x))
		w.spill()
	}
}

func (w *checkpointWriter) PutI64s(v []int64) {
	w.PutU32(uint32(len(v)))
	for _, x := range v {
		w.PutI64(x)
		w.spill()
	}
}

func (w *checkpointWriter) PutF64s(v []float64) {
	w.PutU32(uint32(len(v)))
	for _, x := range v {
		w.PutF64(x)
		w.spill()
	}
}

// writeCheckpoint streams the LBCK v2 body to f and appends the CRC32
// trailer computed over it. The layout stores the round twice (as the
// checkpoint round and as res.Rounds) and the last traced round (−1 for
// an empty trace) after the trace; all three are derived from res.
func (c *clusterCore) writeCheckpoint(f io.Writer, opts core.RunOpts, res *core.RunResult, states []*ownState) error {
	crc := crc32.NewIEEE()
	w := &checkpointWriter{out: io.MultiWriter(f, crc)}
	w.B = make([]byte, 0, checkpointStage+64)
	w.PutU32(checkpointMagic)
	w.PutU8(checkpointVersion)
	w.PutU8(c.model)
	w.PutString(c.proto)
	w.PutF64(c.alpha)
	w.PutU32(uint32(c.p))
	w.PutString(string(c.part.Strategy()))
	c.inst.encode(w)
	w.PutU64(opts.Seed)
	w.PutI64(int64(opts.MaxRounds))
	w.PutI64(int64(opts.TraceEvery))
	w.PutI64(int64(res.Rounds))
	w.PutF64(c.totalW)
	w.PutI64(c.count)
	w.PutI64(c.sinceRecompute)
	w.PutI64(int64(res.Rounds))
	w.PutI64(res.Moves)
	w.PutU32(uint32(len(res.Trace)))
	for _, tp := range res.Trace {
		w.PutI64(int64(tp.Round))
		w.PutF64(tp.Psi0)
		w.PutF64(tp.Psi1)
		w.PutF64(tp.LDelta)
		w.PutI64(tp.Moves)
		w.spill()
	}
	w.PutI64(int64(lastTraced(res.Trace)))
	for _, st := range states {
		encodeOwnState(w, c.model, st)
	}
	w.flush()
	if w.err != nil {
		return w.err
	}
	// CRC32 trailer over the whole body: a flipped byte in a float would
	// otherwise decode silently.
	_, err := f.Write(binary.LittleEndian.AppendUint32(nil, crc.Sum32()))
	return err
}

// ReadCheckpoint decodes and validates a checkpoint file, LBCK v1 or v2.
// Truncated or corrupt files fail loudly: every length is bounds-checked
// during decode and trailing garbage is rejected. The graph is rebuilt
// on resume: from its descriptor, refused unless the node count and
// digest match the file, or from the explicit CSR, which NewCSR
// revalidates.
func ReadCheckpoint(path string) (*Checkpoint, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	ck, err := decodeCheckpoint(raw)
	if err != nil {
		return nil, fmt.Errorf("shard: checkpoint %s: %w", path, err)
	}
	return ck, nil
}

// decodeCheckpoint verifies a checkpoint file's CRC32 trailer, then
// decodes the body.
func decodeCheckpoint(raw []byte) (*Checkpoint, error) {
	if len(raw) < 4 {
		return nil, fmt.Errorf("file too short (%d bytes)", len(raw))
	}
	body, trailer := raw[:len(raw)-4], binary.LittleEndian.Uint32(raw[len(raw)-4:])
	if sum := crc32.ChecksumIEEE(body); sum != trailer {
		return nil, fmt.Errorf("checksum mismatch (file %#x, computed %#x)", trailer, sum)
	}
	var b transport.Buffer
	b.Load(body)
	magic, err := b.U32()
	if err != nil {
		return nil, err
	}
	if magic != checkpointMagic {
		return nil, fmt.Errorf("bad magic %#x", magic)
	}
	version, err := b.U8()
	if err != nil {
		return nil, err
	}
	if version != 1 && version != checkpointVersion {
		return nil, fmt.Errorf("unsupported version %d", version)
	}
	ck := &Checkpoint{}
	if ck.model, err = b.U8(); err != nil {
		return nil, err
	}
	if ck.model != modelUniform && ck.model != modelWeighted {
		return nil, fmt.Errorf("unknown model %d", ck.model)
	}
	if ck.proto, err = b.String(); err != nil {
		return nil, err
	}
	if ck.alpha, err = b.F64(); err != nil {
		return nil, err
	}
	p, err := b.U32()
	if err != nil {
		return nil, err
	}
	ck.p = int(p)
	strat, err := b.String()
	if err != nil {
		return nil, err
	}
	ck.strategy = Strategy(strat)
	if ck.inst, err = decodeInstance(&b, version == 1); err != nil {
		return nil, err
	}
	// A partition never has more shards than nodes, and n itself is
	// bounded by the file's size through the n stored speeds, so the
	// shard table below stays proportional to the input.
	if ck.p < 1 || ck.p > ck.inst.N {
		return nil, fmt.Errorf("%d shards for %d nodes", ck.p, ck.inst.N)
	}
	if ck.Seed, err = b.U64(); err != nil {
		return nil, err
	}
	var v int64
	if v, err = b.I64(); err != nil {
		return nil, err
	}
	ck.MaxRounds = int(v)
	if v, err = b.I64(); err != nil {
		return nil, err
	}
	ck.TraceEvery = int(v)
	if v, err = b.I64(); err != nil {
		return nil, err
	}
	ck.Round = int(v)
	if ck.totalW, err = b.F64(); err != nil {
		return nil, err
	}
	if ck.count, err = b.I64(); err != nil {
		return nil, err
	}
	if ck.sinceRecompute, err = b.I64(); err != nil {
		return nil, err
	}
	if v, err = b.I64(); err != nil {
		return nil, err
	}
	ck.res.Rounds = int(v)
	if ck.res.Moves, err = b.I64(); err != nil {
		return nil, err
	}
	tn, err := b.U32()
	if err != nil {
		return nil, err
	}
	for j := uint32(0); j < tn; j++ {
		var tp core.TracePoint
		if v, err = b.I64(); err != nil {
			return nil, err
		}
		tp.Round = int(v)
		if tp.Psi0, err = b.F64(); err != nil {
			return nil, err
		}
		if tp.Psi1, err = b.F64(); err != nil {
			return nil, err
		}
		if tp.LDelta, err = b.F64(); err != nil {
			return nil, err
		}
		if tp.Moves, err = b.I64(); err != nil {
			return nil, err
		}
		ck.res.Trace = append(ck.res.Trace, tp)
	}
	if v, err = b.I64(); err != nil {
		return nil, err
	}
	if err := ck.checkProgress(int(v)); err != nil {
		return nil, err
	}
	ck.states = make([]*ownState, ck.p)
	for s := 0; s < ck.p; s++ {
		if ck.states[s], err = decodeOwnState(&b, ck.model); err != nil {
			return nil, fmt.Errorf("shard %d state: %w", s, err)
		}
	}
	if b.Remaining() != 0 {
		return nil, fmt.Errorf("%d trailing bytes", b.Remaining())
	}
	if ck.model == modelWeighted {
		if err := ck.checkWeighted(); err != nil {
			return nil, err
		}
	}
	return ck, nil
}

// checkWeighted rejects restored weighted values that no drive writes:
// an update counter k outside [0, core.WeightRecomputeEvery), where
// every round's end leaves it, a task count m other than the segments'
// total, a task weight outside (0, 1], and a cached weight sum or total
// weight that lies more than δ outside the range of an exact sum of
// the weights it caches: [0, cnt_i] for node i with cnt_i tasks, [0, m]
// for the total. NaN and ±Inf lie outside every range.
//
// δ bounds the rounding drift since the last rebuild. Between rebuilds
// a cached node sum is a recursive float64 sum of weights in (0, 1]:
// the rebuild's fold of the tasks then present — at most m + k, since
// each departure since counts one update — then one addition or
// subtraction per counted update that touched the node, at most k; so
// at most N = m + 2k terms whose magnitudes sum to at most N. A
// recursive sum of N terms errs by at most γ_N·N with γ_N = N·u/(1−N·u)
// and u = 2⁻⁵³, below 2·N²·u while N·u ≤ ½. totalW is the fold of the
// rebuilt node sums, which adds their errors (at most 2·(m+k)²·u in
// all) to its own (as much again), plus one term per counted event
// since, each erring by at most u·(m+k)·(1+…); the sum of these is
// below 4·N²·u. Hence δ = 4·(m+2k)²·2⁻⁵³ bounds both.
func (ck *Checkpoint) checkWeighted() error {
	k := ck.sinceRecompute
	if k < 0 || core.RecomputeDue(k) {
		return fmt.Errorf("update counter %d outside [0, %d)", k, core.WeightRecomputeEvery)
	}
	tasks := int64(0)
	for _, st := range ck.states {
		tasks += int64(len(st.Segs))
	}
	if tasks != ck.count {
		return fmt.Errorf("task count %d, but the segments hold %d tasks", ck.count, tasks)
	}
	n := float64(tasks + 2*k)
	delta := 4 * n * n * 0x1p-53
	for s, st := range ck.states {
		if len(st.NodeWeight) != len(st.SegLen) {
			return fmt.Errorf("shard %d state: %d cached weight sums for %d nodes", s, len(st.NodeWeight), len(st.SegLen))
		}
		if err := task.Weights(st.Segs).Validate(); err != nil {
			return fmt.Errorf("shard %d state: %w", s, err)
		}
		for i, w := range st.NodeWeight {
			if !(w >= -delta && w <= float64(st.SegLen[i])+delta) {
				return fmt.Errorf("shard %d state: cached weight sum %v of its node %d outside [%v, %d+%v]", s, w, i, -delta, st.SegLen[i], delta)
			}
		}
	}
	if !(ck.totalW >= -delta && ck.totalW <= float64(tasks)+delta) {
		return fmt.Errorf("total weight %v outside [%v, %d+%v]", ck.totalW, -delta, tasks, delta)
	}
	return nil
}

// checkProgress rejects run progress that no drive writes: a resume
// continues from ck.res as it stands, so a CRC-valid file whose round,
// partial result and trace disagree would otherwise resume to a
// silently wrong result. stored is the file's last traced round.
func (ck *Checkpoint) checkProgress(stored int) error {
	if ck.Round < 1 || ck.Round > ck.MaxRounds {
		return fmt.Errorf("round %d outside [1, %d]", ck.Round, ck.MaxRounds)
	}
	if ck.res.Rounds != ck.Round {
		return fmt.Errorf("partial result at round %d for a checkpoint at round %d", ck.res.Rounds, ck.Round)
	}
	prev := -1
	for _, tp := range ck.res.Trace {
		if tp.Round <= prev || tp.Round > ck.Round {
			return fmt.Errorf("trace rounds must ascend strictly within [0, %d], found %d after %d", ck.Round, tp.Round, prev)
		}
		prev = tp.Round
	}
	if stored != lastTraced(ck.res.Trace) {
		return fmt.Errorf("last traced round %d, but the trace ends at round %d", stored, lastTraced(ck.res.Trace))
	}
	return nil
}

// lastTraced is the round of the trace's last point, or −1 for an
// empty trace: the LBCK field a Runner's trace determines.
func lastTraced(trace []core.TracePoint) int {
	if len(trace) == 0 {
		return -1
	}
	return trace[len(trace)-1].Round
}

// resumeCore rebuilds a clusterCore from the checkpoint and ships the
// restored state to freshly connected workers.
func (ck *Checkpoint) resumeCore(rws []io.ReadWriter) (*clusterCore, error) {
	if len(rws) != ck.p {
		return nil, fmt.Errorf("shard: checkpoint needs %d workers, got %d", ck.p, len(rws))
	}
	sys, err := ck.inst.system()
	if err != nil {
		return nil, fmt.Errorf("shard: checkpoint: %w", err)
	}
	part, err := clusterPartition(sys, ck.p, ck.strategy)
	if err != nil {
		return nil, err
	}
	c, err := newClusterCore(sys, ck.model, ck.proto, ck.alpha, part, rws)
	if err != nil {
		return nil, err
	}
	c.totalW = ck.totalW
	c.count = ck.count
	c.sinceRecompute = ck.sinceRecompute
	for s := 0; s < c.p; s++ {
		lo, hi := c.part.Range(s)
		var got int
		if ck.model == modelUniform {
			got = len(ck.states[s].Counts)
			if c.tasks, err = core.AddTasks(c.tasks, ck.states[s].Counts); err != nil {
				return nil, fmt.Errorf("shard: checkpoint: %w", err)
			}
		} else {
			got = len(ck.states[s].SegLen)
		}
		if got != hi-lo {
			return nil, fmt.Errorf("shard: checkpoint shard %d holds %d nodes, partition expects %d", s, got, hi-lo)
		}
	}
	if ck.model == modelWeighted {
		// Validate the restored segments before shipping them.
		if _, _, err := c.assembleWeighted(ck.states); err != nil {
			return nil, err
		}
	}
	if err := c.configure(ck.states, true); err != nil {
		return nil, err
	}
	return c, nil
}

// ResumeUniform reconnects a uniform cluster from the checkpoint.
func (ck *Checkpoint) ResumeUniform(rws []io.ReadWriter) (*UniformCluster, error) {
	if ck.model != modelUniform {
		return nil, errors.New("shard: checkpoint is not a uniform-model run")
	}
	cc, err := ck.resumeCore(rws)
	if err != nil {
		return nil, err
	}
	return &UniformCluster{clusterCore: cc}, nil
}

// ResumeWeighted reconnects a weighted cluster from the checkpoint.
func (ck *Checkpoint) ResumeWeighted(rws []io.ReadWriter) (*WeightedCluster, error) {
	if ck.model != modelWeighted {
		return nil, errors.New("shard: checkpoint is not a weighted-model run")
	}
	cc, err := ck.resumeCore(rws)
	if err != nil {
		return nil, err
	}
	return &WeightedCluster{clusterCore: cc}, nil
}

// ResumeLocalUniform resumes a checkpoint on in-process net.Pipe
// workers (tests and single-machine runs).
func (ck *Checkpoint) ResumeLocalUniform() (*UniformCluster, error) {
	rws, closers, wait := localWorkers(ck.p)
	c, err := ck.ResumeUniform(rws)
	if err != nil {
		for _, cl := range closers {
			_ = cl.Close()
		}
		wait()
		return nil, err
	}
	c.closers = closers
	c.wait = wait
	return c, nil
}

// ResumeLocalWeighted is ResumeLocalUniform for the weighted model.
func (ck *Checkpoint) ResumeLocalWeighted() (*WeightedCluster, error) {
	rws, closers, wait := localWorkers(ck.p)
	c, err := ck.ResumeWeighted(rws)
	if err != nil {
		for _, cl := range closers {
			_ = cl.Close()
		}
		wait()
		return nil, err
	}
	c.closers = closers
	c.wait = wait
	return c, nil
}

// CheckpointConfig enables periodic checkpoints during a cluster drive.
type CheckpointConfig struct {
	// Path is the checkpoint file (atomically replaced at each
	// checkpoint). Required when Every > 0.
	Path string
	// Every checkpoints after each k-th completed round (0 disables).
	Every int
}

// Drive runs the cluster to opts.MaxRounds on a core.Runner, the one
// core.Drive runs on (nil stop, no events), writing a checkpoint after
// every ck.Every-th round and resuming from one when from is non-nil.
// The produced RunResult — trace included — is bit-identical to
// core.Drive over any parity engine, and a resumed run reproduces the
// uninterrupted run's result.
func (c *UniformCluster) Drive(opts core.RunOpts, ck CheckpointConfig, from *Checkpoint) (core.RunResult, error) {
	return driveCluster[*core.UniformState](c, c.clusterCore, opts, ck, from)
}

// Drive is UniformCluster.Drive for the weighted model.
func (c *WeightedCluster) Drive(opts core.RunOpts, ck CheckpointConfig, from *Checkpoint) (core.RunResult, error) {
	return driveCluster[*core.WeightedState](c, c.clusterCore, opts, ck, from)
}

func driveCluster[S core.State](eng core.Engine[S], cc *clusterCore, opts core.RunOpts, ck CheckpointConfig, from *Checkpoint) (core.RunResult, error) {
	if err := opts.Validate(); err != nil {
		return core.RunResult{}, err
	}
	if opts.Events != nil {
		return core.RunResult{}, errors.New("shard: cluster Drive does not take events; use core.Drive")
	}
	if ck.Every > 0 && ck.Path == "" {
		return core.RunResult{}, errors.New("shard: checkpointing enabled without a path")
	}
	var done core.RunResult
	if from != nil {
		if from.Seed != opts.Seed || from.MaxRounds != opts.MaxRounds || from.TraceEvery != opts.TraceEvery {
			return core.RunResult{}, fmt.Errorf("shard: resume options (seed %d, rounds %d, trace %d) differ from checkpoint (%d, %d, %d)",
				opts.Seed, opts.MaxRounds, opts.TraceEvery, from.Seed, from.MaxRounds, from.TraceEvery)
		}
		done = from.res
	}
	run, err := core.NewRunner(eng, opts.Seed, opts.TraceEvery, done)
	if err != nil {
		return core.RunResult{}, err
	}
	for round := done.Rounds + 1; round <= opts.MaxRounds; round++ {
		if err := run.Step(); err != nil {
			return run.Result(), err
		}
		if ck.Every > 0 && round%ck.Every == 0 {
			res := run.Result()
			if err := cc.checkpoint(ck.Path, opts, &res); err != nil {
				return res, err
			}
		}
	}
	res, err := run.Finish()
	res.Converged = err == nil
	return res, err
}
