// Cluster acceptance tests: the coordinator/worker execution over the
// wire protocol must be bit-identical to the sequential reference —
// RunResult, trace and final state — for P ∈ {1, 2, 4}, uniform and
// weighted, statically and under dynamic churn; checkpoints taken
// mid-run must resume to the uninterrupted run's exact result; and
// truncated or corrupt checkpoint files must fail loudly. The workers
// here run in-process over net.Pipe so every frame of the protocol is
// exercised under -race; cmd/lbshard runs the same workers as separate
// OS processes.
package shard_test

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dynamics"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/rng"
	"repro/internal/shard"
	"repro/internal/spectral"
	"repro/internal/transport"
)

var clusterCounts = []int{1, 2, 4, 7}

// TestClusterParityStatic: seq vs cluster on every Table-1 class with a
// stop condition, tracing, a CheckEvery that does not divide
// TraceEvery, every P and both strategies.
func TestClusterParityStatic(t *testing.T) {
	for _, class := range experiments.Table1Classes() {
		class := class
		t.Run(class.Key, func(t *testing.T) {
			t.Parallel()
			sys, counts := buildInstance(t, class, 16)
			stop := core.StopAtPsi0Below(4 * sys.PsiCritical())
			opts := core.RunOpts{MaxRounds: 200_000, Seed: 11, TraceEvery: 7, CheckEvery: 3}
			ref, refCounts, err := harness.RunUniformEngine(harness.EngineSeq, sys, core.Algorithm1{}, counts, stop, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !ref.Converged || ref.Rounds == 0 {
				t.Fatalf("reference run did not converge meaningfully: %+v", ref)
			}
			for _, p := range clusterCounts {
				for _, strategy := range []string{"contiguous", "degree"} {
					label := harness.EngineCluster + "/" + strategy
					res, gotCounts, err := harness.RunUniformEngineOpts(harness.EngineCluster, sys,
						core.Algorithm1{}, counts, stop, opts,
						harness.EngineOpts{Shards: p, Strategy: strategy})
					if err != nil {
						t.Fatalf("%s P=%d: %v", label, p, err)
					}
					sameRun(t, label, ref, res)
					sameCounts(t, label, refCounts, gotCounts)
				}
			}
		})
	}
}

// TestClusterParityDynamic: the full dynamic scenario — continuous
// arrivals, completions, bursts and alternating node churn — must be
// bit-identical to the sequential engine for every P. Churn rebuilds
// the cluster (fresh workers, fresh configs) every epoch.
func TestClusterParityDynamic(t *testing.T) {
	class, err := experiments.ClassByKey("torus")
	if err != nil {
		t.Fatal(err)
	}
	sys, counts := buildInstance(t, class, 16)
	opts := harness.DynamicOpts{
		MaxRounds: 200,
		Seed:      31,
		Workload: dynamics.Workload{
			Seed:        1031,
			ArrivalRate: 12,
			ServiceRate: 0.5,
			BurstEvery:  40,
			BurstSize:   150,
		},
		Churn: dynamics.AlternatingChurn(200, 60),
	}
	ref, err := harness.RunUniformDynamic(harness.EngineSeq, sys, core.Algorithm1{}, counts, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Ledger.Arrived == 0 || ref.Ledger.Departed == 0 || ref.Epochs < 2 {
		t.Fatalf("scenario not exercising events/churn: %+v %+v", ref.Ledger, ref)
	}
	for _, p := range clusterCounts {
		sopts := opts
		sopts.Engine = harness.EngineOpts{Shards: p}
		res, err := harness.RunUniformDynamic(harness.EngineCluster, sys, core.Algorithm1{}, counts, sopts)
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		if res.Rounds != ref.Rounds || res.Epochs != ref.Epochs || res.Moves != ref.Moves ||
			res.FinalN != ref.FinalN || res.Ledger != ref.Ledger || res.Metrics != ref.Metrics {
			t.Fatalf("P=%d: result %+v, want %+v", p, res, ref)
		}
		if len(res.Trace) != len(ref.Trace) {
			t.Fatalf("P=%d: %d trace points, want %d", p, len(res.Trace), len(ref.Trace))
		}
		for k := range ref.Trace {
			if res.Trace[k] != ref.Trace[k] {
				t.Fatalf("P=%d: trace[%d] = %+v, want %+v", p, k, res.Trace[k], ref.Trace[k])
			}
		}
		sameCounts(t, "dynamic", ref.FinalCounts, res.FinalCounts)
	}
}

// TestWeightedClusterParityStatic: seq vs weighted cluster on every
// Table-1 class, every P and both strategies, final task multisets
// included.
func TestWeightedClusterParityStatic(t *testing.T) {
	for _, class := range experiments.Table1Classes() {
		class := class
		t.Run(class.Key, func(t *testing.T) {
			t.Parallel()
			sys, perNode := buildWeighted(t, class, 16, 60)
			stop := core.StopAtWeightedPsi0Below(4 * sys.PsiCriticalWeighted())
			opts := core.RunOpts{MaxRounds: 300_000, Seed: 21, TraceEvery: 5, CheckEvery: 2}
			ref, refState, err := harness.RunWeightedEngine(harness.EngineSeq, sys, core.Algorithm2{}, perNode, stop, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !ref.Converged || ref.Rounds == 0 {
				t.Fatalf("reference run did not converge meaningfully: %+v", ref)
			}
			for _, p := range clusterCounts {
				for _, strategy := range []string{"contiguous", "degree"} {
					label := "weighted-cluster/" + strategy
					res, gotState, err := harness.RunWeightedEngineOpts(harness.EngineCluster, sys,
						core.Algorithm2{}, perNode, stop, opts,
						harness.EngineOpts{Shards: p, Strategy: strategy})
					if err != nil {
						t.Fatalf("%s P=%d: %v", label, p, err)
					}
					sameRun(t, label, ref, res)
					sameWeightedState(t, label, refState, gotState)
				}
			}
		})
	}
}

// TestWeightedClusterParityDynamic: weighted arrivals, completions,
// bursts and churn across process boundaries, bit-identical to seq.
func TestWeightedClusterParityDynamic(t *testing.T) {
	class, err := experiments.ClassByKey("torus")
	if err != nil {
		t.Fatal(err)
	}
	sys, perNode := buildWeighted(t, class, 16, 30)
	opts := harness.DynamicOpts{
		MaxRounds: 200,
		Seed:      77,
		Workload: dynamics.Workload{
			Seed:        1077,
			ArrivalRate: 12,
			ServiceRate: 0.5,
			BurstEvery:  40,
			BurstSize:   150,
		},
		Churn: dynamics.AlternatingChurn(200, 60),
	}
	ref, err := harness.RunWeightedDynamic(harness.EngineSeq, sys, core.Algorithm2{}, perNode, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Ledger.ArrivedTasks == 0 || ref.Ledger.DepartedTasks == 0 || ref.Epochs < 2 {
		t.Fatalf("scenario not exercising events/churn: %+v %+v", ref.Ledger, ref)
	}
	for _, p := range clusterCounts {
		sopts := opts
		sopts.Engine = harness.EngineOpts{Shards: p}
		res, err := harness.RunWeightedDynamic(harness.EngineCluster, sys, core.Algorithm2{}, perNode, sopts)
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		if res.Rounds != ref.Rounds || res.Epochs != ref.Epochs || res.Moves != ref.Moves ||
			res.FinalN != ref.FinalN || res.Ledger != ref.Ledger || res.Metrics != ref.Metrics {
			t.Fatalf("P=%d: result %+v, want %+v", p, res, ref)
		}
		for k := range ref.Trace {
			if res.Trace[k] != ref.Trace[k] {
				t.Fatalf("P=%d: trace[%d] = %+v, want %+v", p, k, res.Trace[k], ref.Trace[k])
			}
		}
		sameWeightedState(t, "dynamic", ref.FinalState, res.FinalState)
	}
}

// TestClusterRoundBytes pins the O(cut) claim of the halo exchange: on
// a ring at fixed P, the per-round coordinator traffic must be byte-
// for-byte identical across a 16x change in n — a contiguous ring
// shard always has 2 boundary and 2 halo vertices, so nothing on the
// round path may scale with the node count. Equal counts keep every
// round move-free, making the per-round frame sizes exactly repeatable.
func TestClusterRoundBytes(t *testing.T) {
	perRound := func(n int) uint64 {
		t.Helper()
		g, err := graph.Ring(n)
		if err != nil {
			t.Fatal(err)
		}
		// The closed-form λ₂: the per-round bytes do not depend on it,
		// and an eigensolve on a 65,536-node ring costs minutes under
		// -race.
		sys, err := core.NewSystem(g, machine.Uniform(n), core.WithLambda2(spectral.Lambda2Ring(n)))
		if err != nil {
			t.Fatal(err)
		}
		counts := make([]int64, n)
		for i := range counts {
			counts[i] = 4
		}
		cl, err := shard.StartLocalUniformCluster(sys, core.Algorithm1{}, counts, shard.Options{Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		base := rng.New(9)
		if _, err := cl.Step(1, base); err != nil {
			t.Fatal(err)
		}
		s0 := cl.Stats().Transport
		const rounds = 4
		for r := uint64(2); r < 2+rounds; r++ {
			if _, err := cl.Step(r, base); err != nil {
				t.Fatal(err)
			}
		}
		s1 := cl.Stats().Transport
		total := (s1.BytesSent - s0.BytesSent) + (s1.BytesRecv - s0.BytesRecv)
		if total%rounds != 0 {
			t.Fatalf("n=%d: %d bytes over %d rounds is not round-repeatable", n, total, rounds)
		}
		return total / rounds
	}
	small := perRound(1 << 12)
	large := perRound(1 << 16)
	if small != large {
		t.Fatalf("per-round bytes grew with n: %d at n=4096, %d at n=65536", small, large)
	}
	// Sanity: the round traffic must be far below even one full-vector
	// broadcast to a single worker (8n bytes), let alone P of them.
	if large >= 8*(1<<16) {
		t.Fatalf("per-round bytes %d not O(cut): a single full-vector broadcast is %d", large, 8*(1<<16))
	}
}

// TestWeightedClusterRecomputeCrossingEvents drives event batches into
// a weighted cluster with the periodic recompute threshold lowered so
// batches repeatedly push the update count past it. Events only count;
// the rebuild runs at the end of the next round, where each worker
// refolds its own rows and the coordinator folds the total, and every
// P must stay bit-identical to the sequential engine.
func TestWeightedClusterRecomputeCrossingEvents(t *testing.T) {
	old := core.WeightRecomputeEvery
	core.WeightRecomputeEvery = 96
	defer func() { core.WeightRecomputeEvery = old }()

	class, err := experiments.ClassByKey("torus")
	if err != nil {
		t.Fatal(err)
	}
	sys, perNode := buildWeighted(t, class, 16, 30)
	n := sys.N()
	events := func(r uint64) *core.EventBatch {
		if r%3 != 1 {
			return nil
		}
		batch := &core.EventBatch{
			WeightArrivals:   make([][]float64, n),
			WeightDepartures: make([]int64, n),
		}
		for i := 0; i < n; i += 2 {
			batch.WeightArrivals[i] = []float64{0.75, 0.1 + 0.1*float64(i%7)}
		}
		for i := 1; i < n; i += 3 {
			batch.WeightDepartures[i] = 1
		}
		return batch
	}
	opts := core.RunOpts{MaxRounds: 60, Seed: 13, TraceEvery: 5, Events: events}
	ref, refState, err := harness.RunWeightedEngine(harness.EngineSeq, sys, core.Algorithm2{}, perNode, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Ledger.ArrivedTasks < int64(core.WeightRecomputeEvery) {
		t.Fatalf("scenario too small to cross the lowered recompute threshold: %+v", ref.Ledger)
	}
	for _, p := range clusterCounts {
		res, st, err := harness.RunWeightedEngineOpts(harness.EngineCluster, sys,
			core.Algorithm2{}, perNode, nil, opts, harness.EngineOpts{Shards: p})
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		sameRun(t, "crossing-events", ref, res)
		sameWeightedState(t, "crossing-events", refState, st)
	}
}

// TestOverfullUniformStartRefused: a uniform start whose task total
// overflows int64 — counts {MaxInt64, 1, 0, 0} on a 4-ring — is refused
// by seq, shard and the in-process cluster, and so is a checkpoint that
// carries those counts, although each of its four workers holds one
// count only.
func TestOverfullUniformStartRefused(t *testing.T) {
	g, err := graph.Ring(4)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(g, machine.Uniform(4), core.WithLambda2(2))
	if err != nil {
		t.Fatal(err)
	}
	over := []int64{math.MaxInt64, 1, 0, 0}
	refused := func(what string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "overflow the task total") {
			t.Errorf("%s: %v, want the task-total overflow", what, err)
		}
	}
	_, err = core.NewUniformState(sys, over)
	refused("seq", err)
	e, err := shard.New(sys, core.Algorithm1{}, over, shard.Options{Shards: 2})
	if err == nil {
		e.Close()
	}
	refused("shard", err)
	oc, err := shard.StartLocalUniformCluster(sys, core.Algorithm1{}, over, shard.Options{Shards: 4})
	if err == nil {
		oc.Close()
	}
	refused("cluster", err)

	// The checkpoint of an empty run, with its four own-range states —
	// the file's last 4·12 bytes before the CRC trailer, one count each —
	// rewritten to the over-full counts.
	cl, err := shard.StartLocalUniformCluster(sys, core.Algorithm1{}, make([]int64, 4), shard.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.ckpt")
	_, err = cl.Drive(core.RunOpts{MaxRounds: 1, Seed: 1}, shard.CheckpointConfig{Path: path, Every: 1}, nil)
	cl.Close()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	states := len(raw) - 4 - 4*12
	for s, c := range over {
		binary.LittleEndian.PutUint64(raw[states+12*s+4:], uint64(c))
	}
	fixCRCTrailer(raw)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	ck, err := shard.ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := ck.ResumeLocalUniform()
	if err == nil {
		rc.Close()
	}
	refused("resume", err)
}

// driveOpts is the fixed-horizon run the checkpoint tests replay.
var driveOpts = core.RunOpts{MaxRounds: 50, Seed: 5, TraceEvery: 7}

// TestClusterCheckpointResume: a run checkpointed every 20 rounds must
// (a) produce the same result as an uncheckpointed run, and (b) leave a
// file from which a fresh cluster — as after a SIGKILL — replays rounds
// 41..50 to the bit-identical RunResult and final counts.
func TestClusterCheckpointResume(t *testing.T) {
	class, err := experiments.ClassByKey("torus")
	if err != nil {
		t.Fatal(err)
	}
	sys, counts := buildInstance(t, class, 16)
	run := func(ck shard.CheckpointConfig) (core.RunResult, []int64) {
		t.Helper()
		cl, err := shard.StartLocalUniformCluster(sys, core.Algorithm1{}, counts, shard.Options{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		res, err := cl.Drive(driveOpts, ck, nil)
		if err != nil {
			t.Fatal(err)
		}
		cs, err := cl.Counts()
		if err != nil {
			t.Fatal(err)
		}
		return res, cs
	}
	ref, refCounts := run(shard.CheckpointConfig{})

	// The cluster drive must match core.Drive over the seq engine.
	seqRes, seqCounts, err := harness.RunUniformEngine(harness.EngineSeq, sys, core.Algorithm1{}, counts, nil, driveOpts)
	if err != nil {
		t.Fatal(err)
	}
	sameRun(t, "drive-vs-core.Drive", seqRes, ref)
	sameCounts(t, "drive-vs-core.Drive", seqCounts, refCounts)

	path := filepath.Join(t.TempDir(), "run.ckpt")
	ckRes, ckCounts := run(shard.CheckpointConfig{Path: path, Every: 20})
	sameRun(t, "checkpointing-run", ref, ckRes)
	sameCounts(t, "checkpointing-run", refCounts, ckCounts)

	ck, err := shard.ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Round != 40 || ck.Shards() != 2 || ck.Weighted() {
		t.Fatalf("checkpoint round=%d shards=%d weighted=%v, want 40, 2, false", ck.Round, ck.Shards(), ck.Weighted())
	}
	cl, err := ck.ResumeLocalUniform()
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	res, err := cl.Drive(driveOpts, shard.CheckpointConfig{}, ck)
	if err != nil {
		t.Fatal(err)
	}
	gotCounts, err := cl.Counts()
	if err != nil {
		t.Fatal(err)
	}
	sameRun(t, "resumed", ref, res)
	sameCounts(t, "resumed", refCounts, gotCounts)

	// Resuming under different run options must be refused: the replayed
	// rounds would not reproduce the original run.
	bad := driveOpts
	bad.Seed++
	if _, err := cl.Drive(bad, shard.CheckpointConfig{}, ck); err == nil {
		t.Fatal("resume with a different seed succeeded")
	}
}

// TestWeightedClusterCheckpointResume is the weighted-model version:
// the resumed run must reproduce the task multisets and the cached
// (drifting) weight sums exactly, not just the trace.
func TestWeightedClusterCheckpointResume(t *testing.T) {
	class, err := experiments.ClassByKey("torus")
	if err != nil {
		t.Fatal(err)
	}
	sys, perNode := buildWeighted(t, class, 16, 40)
	run := func(ck shard.CheckpointConfig) (core.RunResult, *core.WeightedState) {
		t.Helper()
		cl, err := shard.StartLocalWeightedCluster(sys, core.Algorithm2{}, perNode, shard.Options{Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		res, err := cl.Drive(driveOpts, ck, nil)
		if err != nil {
			t.Fatal(err)
		}
		st, err := cl.State()
		if err != nil {
			t.Fatal(err)
		}
		return res, st
	}
	ref, refState := run(shard.CheckpointConfig{})

	seqRes, seqState, err := harness.RunWeightedEngine(harness.EngineSeq, sys, core.Algorithm2{}, perNode, nil, driveOpts)
	if err != nil {
		t.Fatal(err)
	}
	sameRun(t, "drive-vs-core.Drive", seqRes, ref)
	sameWeightedState(t, "drive-vs-core.Drive", seqState, refState)

	path := filepath.Join(t.TempDir(), "run.ckpt")
	ckRes, ckState := run(shard.CheckpointConfig{Path: path, Every: 15})
	sameRun(t, "checkpointing-run", ref, ckRes)
	sameWeightedState(t, "checkpointing-run", refState, ckState)

	ck, err := shard.ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Round != 45 || ck.Shards() != 4 || !ck.Weighted() {
		t.Fatalf("checkpoint round=%d shards=%d weighted=%v, want 45, 4, true", ck.Round, ck.Shards(), ck.Weighted())
	}
	if ck.Result().Rounds != 45 {
		t.Fatalf("partial result rounds = %d, want 45", ck.Result().Rounds)
	}
	cl, err := ck.ResumeLocalWeighted()
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	res, err := cl.Drive(driveOpts, shard.CheckpointConfig{}, ck)
	if err != nil {
		t.Fatal(err)
	}
	st, err := cl.State()
	if err != nil {
		t.Fatal(err)
	}
	sameRun(t, "resumed", ref, res)
	sameWeightedState(t, "resumed", refState, st)

	// A weighted checkpoint cannot resume as a uniform cluster.
	if _, err := ck.ResumeLocalUniform(); err == nil {
		t.Fatal("weighted checkpoint resumed as uniform")
	}
}

// TestWeightedClusterStateMatchesEngine compares the cluster's gathered
// State() with the in-process engine's view round by round, bit for
// bit: cached sums, task multisets in order, totals and the recompute
// counter.
func TestWeightedClusterStateMatchesEngine(t *testing.T) {
	class, err := experiments.ClassByKey("hypercube")
	if err != nil {
		t.Fatal(err)
	}
	sys, perNode := buildWeighted(t, class, 64, 20)
	opts := shard.Options{Shards: 3}
	cl, err := shard.StartLocalWeightedCluster(sys, core.Algorithm2{}, perNode, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	eng, err := shard.NewWeighted(sys, core.Algorithm2{}, perNode, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	clBase, engBase := rng.New(21), rng.New(21)
	for r := uint64(0); r <= 12; r++ {
		if r > 0 {
			if _, err := cl.Step(r, clBase); err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Step(r, engBase); err != nil {
				t.Fatal(err)
			}
		}
		got, err := cl.State()
		if err != nil {
			t.Fatal(err)
		}
		want, err := eng.State()
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("round %d", r)
		sameWeightedState(t, label, want, got)
		for i := 0; i < sys.N(); i++ {
			if math.Float64bits(got.NodeWeight(i)) != math.Float64bits(want.NodeWeight(i)) {
				t.Fatalf("%s: node %d weight bits differ", label, i)
			}
		}
		if math.Float64bits(got.TotalWeight()) != math.Float64bits(want.TotalWeight()) || got.SinceRecompute() != want.SinceRecompute() {
			t.Fatalf("%s: (W=%v, since=%d), want (W=%v, since=%d)", label,
				got.TotalWeight(), got.SinceRecompute(), want.TotalWeight(), want.SinceRecompute())
		}
	}
}

// fixCRCTrailer recomputes a checkpoint file's CRC32 trailer so tests
// can corrupt the body and still reach the structural validation.
func fixCRCTrailer(b []byte) {
	body := b[:len(b)-4]
	binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(body))
}

// ckptOffsets are the offsets of fields in an LBCK file.
type ckptOffsets struct {
	digest     int // the graph digest; −1 for an explicit CSR
	round      int // the checkpoint round
	resRounds  int // the partial result's round count
	trace      int // the first trace point
	lastTraced int // the last traced round
}

// checkpointOffsets walks an LBCK v1 or v2 file to the graph digest and
// the run's progress.
func checkpointOffsets(t *testing.T, raw []byte) ckptOffsets {
	t.Helper()
	var b transport.Buffer
	b.Load(raw[:len(raw)-4])
	must := func(_ any, err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	at := func() int { return len(raw) - 4 - b.Remaining() }
	must(b.U32()) // magic
	version, err := b.U8()
	must(version, err)
	must(b.U8())     // model
	must(b.String()) // protocol
	must(b.F64())    // alpha
	must(b.U32())    // shards
	must(b.String()) // strategy
	must(b.String()) // graph name
	must(b.U32())    // n
	family := uint8(graph.Explicit)
	if version > 1 {
		family, err = b.U8()
		must(family, err)
	}
	o := ckptOffsets{digest: -1}
	if graph.Family(family) == graph.Explicit {
		must(b.I32s(nil)) // CSR offsets
		must(b.I32s(nil)) // adjacency
	} else {
		must(b.U32()) // descriptor parameters
		must(b.U32())
		o.digest = at()
		must(b.U32())
	}
	must(b.F64s(nil)) // speeds
	must(b.F64())     // λ₂
	must(b.U64())     // seed
	must(b.I64())     // MaxRounds
	must(b.I64())     // TraceEvery
	o.round = at()
	// Round, totalW, count and sinceRecompute precede the partial
	// result: Rounds, Moves, the trace length, then 40-byte points.
	o.resRounds = o.round + 4*8
	o.trace = o.resRounds + 2*8 + 4
	o.lastTraced = o.trace + 40*int(binary.LittleEndian.Uint32(raw[o.trace-4:]))
	return o
}

// TestReadCheckpointRejectsCorrupt pins the loud-failure contract for
// damaged checkpoint files: truncation, byte flips, trailing garbage, a
// wrong magic, an out-of-range shard count and run progress that
// disagrees with itself must all be detected, never silently decoded.
func TestReadCheckpointRejectsCorrupt(t *testing.T) {
	class, err := experiments.ClassByKey("torus")
	if err != nil {
		t.Fatal(err)
	}
	sys, counts := buildInstance(t, class, 16)
	cl, err := shard.StartLocalUniformCluster(sys, core.Algorithm1{}, counts, shard.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if _, err := cl.Drive(driveOpts, shard.CheckpointConfig{Path: path, Every: 25}, nil); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := shard.ReadCheckpoint(path); err != nil {
		t.Fatalf("pristine checkpoint rejected: %v", err)
	}
	corrupt := func(name string, mutate func([]byte) []byte, wantSub string) {
		t.Helper()
		p := filepath.Join(t.TempDir(), name+".ckpt")
		if err := os.WriteFile(p, mutate(append([]byte(nil), raw...)), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := shard.ReadCheckpoint(p)
		if err == nil {
			t.Fatalf("%s: corrupt checkpoint accepted", name)
		}
		if wantSub != "" && !strings.Contains(err.Error(), wantSub) {
			t.Fatalf("%s: error %q does not mention %q", name, err, wantSub)
		}
	}
	corrupt("truncated", func(b []byte) []byte { return b[:len(b)/2] }, "checksum")
	corrupt("byte-flip", func(b []byte) []byte { b[len(b)/2] ^= 0x40; return b }, "checksum")
	corrupt("trailing", func(b []byte) []byte { return append(b, 0xAB) }, "checksum")
	corrupt("empty", func(b []byte) []byte { return b[:0] }, "too short")
	corrupt("bad-magic", func(b []byte) []byte {
		b[0] ^= 0xFF
		// Keep the trailer consistent so the magic check itself trips.
		fixCRCTrailer(b)
		return b
	}, "bad magic")
	corrupt("huge-shards", func(b []byte) []byte {
		// The shard count follows magic, version, model, the protocol
		// name and alpha; sizing the shard table by it unchecked ran
		// the process out of memory.
		off := 4 + 1 + 1 + 4 + len("algorithm1") + 8
		binary.LittleEndian.PutUint32(b[off:], math.MaxUint32)
		fixCRCTrailer(b)
		return b
	}, "shards for")

	// The file is the round-50 checkpoint of a 50-round run traced every
	// 7 rounds: its trace holds rounds 0, 7, …, 49.
	off := checkpointOffsets(t, raw)
	round, resRounds, trace, last := off.round, off.resRounds, off.trace, off.lastTraced
	patch := func(off int, v int64) func([]byte) []byte {
		return func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[off:], uint64(v))
			fixCRCTrailer(b)
			return b
		}
	}
	corrupt("round-negative", patch(round, -3), "outside")
	corrupt("round-zero", patch(round, 0), "outside")
	corrupt("round-beyond-horizon", patch(round, int64(driveOpts.MaxRounds)+1), "outside")
	corrupt("result-rounds", patch(resRounds, 3), "partial result")
	corrupt("last-traced", patch(last, 50), "last traced")
	corrupt("trace-out-of-order", patch(trace+40, 0), "ascend")
	corrupt("trace-beyond-round", func(b []byte) []byte {
		// Keep the last traced round consistent so the trace check
		// itself trips.
		return patch(last, 51)(patch(last-40, 51)(b))
	}, "ascend")
}

// TestReadCheckpointRefusesWeightedValues patches the restored values of
// the committed weighted fixture, keeping its CRC and structure sound:
// a cached weight sum or the total weight that is NaN or infinite, a
// task count 1,000 off the segments' total, and an update counter that
// is negative or at 2⁴⁰, past the recompute threshold, are refused by
// ReadCheckpoint; a λ₂ that is NaN or infinite decodes, since decoding
// builds nothing, and is refused by the resume.
func TestReadCheckpointRefusesWeightedValues(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "weighted_torus_p2_v2.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	off := checkpointOffsets(t, raw)
	// λ₂ precedes the seed, horizon and trace cadence; the round is
	// followed by totalW, the task count and the update counter. The
	// file ends with shard 1's cached sums.
	lambda2, totalW, count, since := off.round-4*8, off.round+8, off.round+2*8, off.round+3*8
	lastSum := len(raw) - 4 - 8
	write := func(at int, v uint64) string {
		b := append([]byte(nil), raw...)
		binary.LittleEndian.PutUint64(b[at:], v)
		fixCRCTrailer(b)
		p := filepath.Join(t.TempDir(), "patched.ckpt")
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	f64 := math.Float64bits
	tasks := binary.LittleEndian.Uint64(raw[count:])
	for _, tc := range []struct {
		name string
		at   int
		v    uint64
		want string
	}{
		{"sum-nan", lastSum, f64(math.NaN()), "cached weight sum NaN"},
		{"sum-inf", lastSum, f64(math.Inf(1)), "cached weight sum +Inf"},
		{"total-nan", totalW, f64(math.NaN()), "total weight NaN"},
		{"total-inf", totalW, f64(math.Inf(-1)), "total weight -Inf"},
		{"task-count", count, tasks + 1000, fmt.Sprintf("task count %d, but the segments hold %d tasks", tasks+1000, tasks)},
		{"counter-negative", since, uint64(1<<64 - 1), "update counter -1 outside"},
		{"counter-past-threshold", since, 1 << 40, "update counter 1099511627776 outside"},
	} {
		if _, err := shard.ReadCheckpoint(write(tc.at, tc.v)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: ReadCheckpoint returned %v, want a refusal naming %q", tc.name, err, tc.want)
		}
	}
	for _, v := range []float64{math.NaN(), math.Inf(1)} {
		ck, err := shard.ReadCheckpoint(write(lambda2, f64(v)))
		if err != nil {
			t.Fatalf("λ₂ %v: ReadCheckpoint refused the file: %v", v, err)
		}
		cl, err := ck.ResumeLocalWeighted()
		if err == nil {
			cl.Close()
		}
		if err == nil || !strings.Contains(err.Error(), "is not finite") {
			t.Errorf("λ₂ %v: resume returned %v, want a refusal of the λ₂", v, err)
		}
	}
}

// TestResumeRefusesOtherGraph: an LBCK v2 file stores the torus as its
// descriptor and CSR digest. A digest that differs from the rebuilt
// graph's still decodes — decoding builds nothing — but resuming it is
// refused with an error that names the graph; a descriptor whose node
// count differs from the stored speeds' is refused at decode.
func TestResumeRefusesOtherGraph(t *testing.T) {
	class, err := experiments.ClassByKey("torus")
	if err != nil {
		t.Fatal(err)
	}
	sys, counts := buildInstance(t, class, 16)
	cl, err := shard.StartLocalUniformCluster(sys, core.Algorithm1{}, counts, shard.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if _, err := cl.Drive(driveOpts, shard.CheckpointConfig{Path: path, Every: 25}, nil); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := checkpointOffsets(t, raw)
	if off.digest < 0 {
		t.Fatal("the torus checkpoint stores an explicit CSR, not its descriptor")
	}
	write := func(mutate func([]byte)) string {
		b := append([]byte(nil), raw...)
		mutate(b)
		fixCRCTrailer(b)
		p := filepath.Join(t.TempDir(), "other.ckpt")
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	ck, err := shard.ReadCheckpoint(write(func(b []byte) { b[off.digest] ^= 1 }))
	if err != nil {
		t.Fatalf("a checkpoint with another digest must decode: %v", err)
	}
	if _, err := ck.ResumeLocalUniform(); err == nil || !strings.Contains(err.Error(), "graph torus-4x4: rebuilt 16 nodes with digest") {
		t.Fatalf("resume returned %v, want a refusal naming the graph and its digest", err)
	}
	// The torus's column count precedes the digest.
	cols := write(func(b []byte) { binary.LittleEndian.PutUint32(b[off.digest-4:], 5) })
	if _, err := shard.ReadCheckpoint(cols); err == nil || !strings.Contains(err.Error(), "descriptor builds 20 nodes, not 16") {
		t.Fatalf("ReadCheckpoint returned %v, want a refusal of the 4x5 descriptor", err)
	}
}

// TestClusterExplicitGraph: a graph without a generator descriptor (a
// binary tree, built from an edge list) travels as its explicit CSR in
// config frames and checkpoints. Both models must match the sequential
// engine and resume from such a checkpoint to the same result.
func TestClusterExplicitGraph(t *testing.T) {
	class := experiments.GraphClass{
		Key:   "bintree",
		Build: graph.BinaryTree,
		Lambda2: func(g *graph.Graph) float64 {
			l2, err := spectral.Lambda2(g)
			if err != nil {
				t.Fatal(err)
			}
			return l2
		},
	}
	t.Run("uniform", func(t *testing.T) {
		sys, counts := buildInstance(t, class, 31)
		ref, refCounts, err := harness.RunUniformEngine(harness.EngineSeq, sys, core.Algorithm1{}, counts, nil, driveOpts)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "run.ckpt")
		cl, err := shard.StartLocalUniformCluster(sys, core.Algorithm1{}, counts, shard.Options{Shards: 3})
		if err != nil {
			t.Fatal(err)
		}
		res, err := cl.Drive(driveOpts, shard.CheckpointConfig{Path: path, Every: 20}, nil)
		cl.Close()
		if err != nil {
			t.Fatal(err)
		}
		sameRun(t, "explicit", ref, res)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if off := checkpointOffsets(t, raw); off.digest >= 0 {
			t.Fatal("the binary tree's checkpoint stores a descriptor")
		}
		ck, err := shard.ReadCheckpoint(path)
		if err != nil {
			t.Fatal(err)
		}
		rc, err := ck.ResumeLocalUniform()
		if err != nil {
			t.Fatal(err)
		}
		defer rc.Close()
		res, err = rc.Drive(driveOpts, shard.CheckpointConfig{}, ck)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rc.Counts()
		if err != nil {
			t.Fatal(err)
		}
		sameRun(t, "explicit resumed", ref, res)
		sameCounts(t, "explicit resumed", refCounts, got)
	})
	t.Run("weighted", func(t *testing.T) {
		sys, perNode := buildWeighted(t, class, 31, 10)
		ref, refState, err := harness.RunWeightedEngine(harness.EngineSeq, sys, core.Algorithm2{}, perNode, nil, driveOpts)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "run.ckpt")
		cl, err := shard.StartLocalWeightedCluster(sys, core.Algorithm2{}, perNode, shard.Options{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		res, err := cl.Drive(driveOpts, shard.CheckpointConfig{Path: path, Every: 15}, nil)
		cl.Close()
		if err != nil {
			t.Fatal(err)
		}
		sameRun(t, "explicit", ref, res)
		ck, err := shard.ReadCheckpoint(path)
		if err != nil {
			t.Fatal(err)
		}
		rc, err := ck.ResumeLocalWeighted()
		if err != nil {
			t.Fatal(err)
		}
		defer rc.Close()
		res, err = rc.Drive(driveOpts, shard.CheckpointConfig{}, ck)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rc.State()
		if err != nil {
			t.Fatal(err)
		}
		sameRun(t, "explicit resumed", ref, res)
		sameWeightedState(t, "explicit resumed", refState, got)
	})
}
