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
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/rng"
	"repro/internal/transport"
)

// Deterministic cluster checkpoints. A checkpoint is one self-contained
// file written atomically (temp + rename) by the coordinator after a
// completed round: the full instance description (CSR, speeds, λ₂,
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

const (
	checkpointMagic   uint32 = 0x4c42434b // "LBCK"
	checkpointVersion uint8  = 1
)

// Checkpoint is a decoded cluster checkpoint: everything needed to
// reconnect P fresh workers and resume the run mid-flight.
type Checkpoint struct {
	model    uint8
	proto    string
	alpha    float64
	p        int
	strategy Strategy

	csrName string
	n       int
	offsets []int32
	adj     []int32
	speeds  []float64
	lambda2 float64

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

	res        core.RunResult
	lastTraced int

	states []*ownState
}

// Shards returns the worker count the checkpoint was taken with; a
// resume must connect exactly this many workers.
func (ck *Checkpoint) Shards() int { return ck.p }

// Weighted reports the checkpointed task model.
func (ck *Checkpoint) Weighted() bool { return ck.model == modelWeighted }

// Result returns the partial run result up to the checkpointed round.
func (ck *Checkpoint) Result() core.RunResult { return ck.res }

// checkpoint gathers every worker's state and writes the checkpoint
// file atomically. Callers hold c.mu or have exclusive use of the
// cluster (driveCluster runs single-threaded between Steps).
func (c *clusterCore) checkpoint(path string, round int, opts core.RunOpts, res *core.RunResult, lastTraced int) error {
	start := time.Now()
	c.buf.Reset()
	c.buf.PutU64(uint64(round))
	states, err := c.gatherOwnStates(transport.KindCheckpoint, transport.KindCheckpointAck, c.buf.B)
	if err != nil {
		return fmt.Errorf("shard: checkpoint gather: %w", err)
	}
	var b transport.Buffer
	b.PutU32(checkpointMagic)
	b.PutU8(checkpointVersion)
	b.PutU8(c.model)
	b.PutString(c.proto)
	b.PutF64(c.alpha)
	b.PutU32(uint32(c.p))
	b.PutString(string(c.strategy))
	b.PutString(c.csr.Name())
	b.PutU32(uint32(c.n))
	b.PutI32s(c.csr.Offsets())
	b.PutI32s(c.csr.Adj())
	b.PutF64s(c.sys.Speeds())
	b.PutF64(c.sys.Lambda2())
	b.PutU64(opts.Seed)
	b.PutI64(int64(opts.MaxRounds))
	b.PutI64(int64(opts.TraceEvery))
	b.PutI64(int64(round))
	b.PutF64(c.totalW)
	b.PutI64(c.count)
	b.PutI64(c.sinceRecompute)
	b.PutI64(int64(res.Rounds))
	b.PutI64(res.Moves)
	b.PutU32(uint32(len(res.Trace)))
	for _, tp := range res.Trace {
		b.PutI64(int64(tp.Round))
		b.PutF64(tp.Psi0)
		b.PutF64(tp.Psi1)
		b.PutF64(tp.LDelta)
		b.PutI64(tp.Moves)
	}
	b.PutI64(int64(lastTraced))
	for _, st := range states {
		encodeOwnState(&b, c.model, st)
	}
	// CRC32 trailer over the whole body: a flipped byte in a float would
	// otherwise decode silently.
	b.B = binary.LittleEndian.AppendUint32(b.B, crc32.ChecksumIEEE(b.B))
	tmp, err := os.CreateTemp(filepath.Dir(path), ".ckpt-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(b.B); err != nil {
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

// ReadCheckpoint decodes and validates a checkpoint file. Truncated or
// corrupt files fail loudly: every length is bounds-checked during
// decode, trailing garbage is rejected, and the graph is revalidated on
// resume (NewCSR re-checks the CSR invariants).
func ReadCheckpoint(path string) (*Checkpoint, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*Checkpoint, error) {
		return nil, fmt.Errorf("shard: checkpoint %s: %w", path, err)
	}
	if len(raw) < 4 {
		return fail(fmt.Errorf("file too short (%d bytes)", len(raw)))
	}
	body, trailer := raw[:len(raw)-4], binary.LittleEndian.Uint32(raw[len(raw)-4:])
	if sum := crc32.ChecksumIEEE(body); sum != trailer {
		return fail(fmt.Errorf("checksum mismatch (file %#x, computed %#x)", trailer, sum))
	}
	var b transport.Buffer
	b.Load(body)
	magic, err := b.U32()
	if err != nil {
		return fail(err)
	}
	if magic != checkpointMagic {
		return fail(fmt.Errorf("bad magic %#x", magic))
	}
	version, err := b.U8()
	if err != nil {
		return fail(err)
	}
	if version != checkpointVersion {
		return fail(fmt.Errorf("unsupported version %d", version))
	}
	ck := &Checkpoint{}
	if ck.model, err = b.U8(); err != nil {
		return fail(err)
	}
	if ck.model != modelUniform && ck.model != modelWeighted {
		return fail(fmt.Errorf("unknown model %d", ck.model))
	}
	if ck.proto, err = b.String(); err != nil {
		return fail(err)
	}
	if ck.alpha, err = b.F64(); err != nil {
		return fail(err)
	}
	p, err := b.U32()
	if err != nil {
		return fail(err)
	}
	ck.p = int(p)
	strat, err := b.String()
	if err != nil {
		return fail(err)
	}
	ck.strategy = Strategy(strat)
	if ck.csrName, err = b.String(); err != nil {
		return fail(err)
	}
	n, err := b.U32()
	if err != nil {
		return fail(err)
	}
	ck.n = int(n)
	if ck.offsets, err = b.I32s(nil); err != nil {
		return fail(err)
	}
	if ck.adj, err = b.I32s(nil); err != nil {
		return fail(err)
	}
	if ck.speeds, err = b.F64s(nil); err != nil {
		return fail(err)
	}
	if ck.lambda2, err = b.F64(); err != nil {
		return fail(err)
	}
	if ck.Seed, err = b.U64(); err != nil {
		return fail(err)
	}
	var v int64
	if v, err = b.I64(); err != nil {
		return fail(err)
	}
	ck.MaxRounds = int(v)
	if v, err = b.I64(); err != nil {
		return fail(err)
	}
	ck.TraceEvery = int(v)
	if v, err = b.I64(); err != nil {
		return fail(err)
	}
	ck.Round = int(v)
	if ck.totalW, err = b.F64(); err != nil {
		return fail(err)
	}
	if ck.count, err = b.I64(); err != nil {
		return fail(err)
	}
	if ck.sinceRecompute, err = b.I64(); err != nil {
		return fail(err)
	}
	if v, err = b.I64(); err != nil {
		return fail(err)
	}
	ck.res.Rounds = int(v)
	if ck.res.Moves, err = b.I64(); err != nil {
		return fail(err)
	}
	tn, err := b.U32()
	if err != nil {
		return fail(err)
	}
	for j := uint32(0); j < tn; j++ {
		var tp core.TracePoint
		if v, err = b.I64(); err != nil {
			return fail(err)
		}
		tp.Round = int(v)
		if tp.Psi0, err = b.F64(); err != nil {
			return fail(err)
		}
		if tp.Psi1, err = b.F64(); err != nil {
			return fail(err)
		}
		if tp.LDelta, err = b.F64(); err != nil {
			return fail(err)
		}
		if tp.Moves, err = b.I64(); err != nil {
			return fail(err)
		}
		ck.res.Trace = append(ck.res.Trace, tp)
	}
	if v, err = b.I64(); err != nil {
		return fail(err)
	}
	ck.lastTraced = int(v)
	ck.states = make([]*ownState, ck.p)
	for s := 0; s < ck.p; s++ {
		if ck.states[s], err = decodeOwnState(&b, ck.model); err != nil {
			return fail(fmt.Errorf("shard %d state: %w", s, err))
		}
	}
	if b.Remaining() != 0 {
		return fail(fmt.Errorf("%d trailing bytes", b.Remaining()))
	}
	return ck, nil
}

// system rebuilds the checkpointed core.System, revalidating the CSR.
func (ck *Checkpoint) system() (*core.System, error) {
	csr, err := graph.NewCSR(ck.csrName, ck.n, ck.offsets, ck.adj)
	if err != nil {
		return nil, fmt.Errorf("shard: checkpoint graph: %w", err)
	}
	return core.NewSystem(csr.Graph(), machine.Speeds(ck.speeds), core.WithLambda2(ck.lambda2))
}

// resumeCore rebuilds a clusterCore from the checkpoint and ships the
// restored state to freshly connected workers.
func (ck *Checkpoint) resumeCore(rws []io.ReadWriter) (*clusterCore, error) {
	if len(rws) != ck.p {
		return nil, fmt.Errorf("shard: checkpoint needs %d workers, got %d", ck.p, len(rws))
	}
	sys, err := ck.system()
	if err != nil {
		return nil, err
	}
	c, err := newClusterCore(sys, ck.model, ck.proto, ck.alpha, ck.strategy, rws)
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

// Drive runs the cluster to opts.MaxRounds with core.Drive's exact
// fixed-horizon loop shape (nil stop, no events), optionally writing
// periodic checkpoints and resuming from one. The produced RunResult —
// trace included — is bit-identical to core.Drive over any parity
// engine, and a resumed run reproduces the uninterrupted run's result.
func (c *UniformCluster) Drive(opts core.RunOpts, ck CheckpointConfig, from *Checkpoint) (core.RunResult, error) {
	return driveCluster[*core.UniformState](c, c.clusterCore, opts, ck, from)
}

// Drive is UniformCluster.Drive for the weighted model.
func (c *WeightedCluster) Drive(opts core.RunOpts, ck CheckpointConfig, from *Checkpoint) (core.RunResult, error) {
	return driveCluster[*core.WeightedState](c, c.clusterCore, opts, ck, from)
}

func driveCluster[S core.State](eng core.Engine[S], cc *clusterCore, opts core.RunOpts, ck CheckpointConfig, from *Checkpoint) (core.RunResult, error) {
	if opts.MaxRounds <= 0 {
		return core.RunResult{}, fmt.Errorf("shard: MaxRounds must be positive, got %d", opts.MaxRounds)
	}
	if opts.TraceEvery < 0 {
		return core.RunResult{}, errors.New("shard: negative trace interval")
	}
	if opts.Events != nil {
		return core.RunResult{}, errors.New("shard: cluster Drive does not take events; use core.Drive")
	}
	if ck.Every > 0 && ck.Path == "" {
		return core.RunResult{}, errors.New("shard: checkpointing enabled without a path")
	}
	base := rng.New(opts.Seed)
	var res core.RunResult
	lastTraced := -1
	start := 0
	if from != nil {
		if from.Seed != opts.Seed || from.MaxRounds != opts.MaxRounds || from.TraceEvery != opts.TraceEvery {
			return res, fmt.Errorf("shard: resume options (seed %d, rounds %d, trace %d) differ from checkpoint (%d, %d, %d)",
				opts.Seed, opts.MaxRounds, opts.TraceEvery, from.Seed, from.MaxRounds, from.TraceEvery)
		}
		res = from.res
		lastTraced = from.lastTraced
		start = from.Round
	}
	record := func(round int) error {
		if opts.TraceEvery <= 0 || round == lastTraced {
			return nil
		}
		st, err := eng.State()
		if err != nil {
			return err
		}
		res.Trace = append(res.Trace, core.TracePoint{
			Round:  round,
			Psi0:   st.Psi0(),
			Psi1:   st.Psi1(),
			LDelta: st.LDelta(),
			Moves:  res.Moves,
		})
		lastTraced = round
		return nil
	}
	if start == 0 {
		if err := record(0); err != nil {
			return res, err
		}
	}
	for round := start + 1; round <= opts.MaxRounds; round++ {
		moves, err := eng.Step(uint64(round), base)
		if err != nil {
			return res, err
		}
		res.Moves += moves
		res.Rounds = round
		if opts.TraceEvery > 0 && round%opts.TraceEvery == 0 {
			if err := record(round); err != nil {
				return res, err
			}
		}
		if ck.Every > 0 && round%ck.Every == 0 {
			if err := cc.checkpoint(ck.Path, round, opts, &res, lastTraced); err != nil {
				return res, err
			}
		}
	}
	if err := record(res.Rounds); err != nil {
		return res, err
	}
	res.Converged = true
	return res, nil
}
