package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/workload"
)

// The cluster workload is lbshard-smoke at scale: Algorithm 1 on a
// d = 18 hypercube (n = 262,144) of two-class nodes with 8 unit tasks
// per node placed uniformly at random, run by a coordinator and two
// in-process workers over net.Pipe (UniformCluster.Drive) for a fixed
// horizon with a checkpoint every 20 rounds. Halving a hypercube makes
// every node a boundary node, so each round pushes the halo loads and
// flows of the whole graph through the transport codec.
const (
	clusterDim          = 18
	clusterTasksPerNode = 8
	clusterHorizon      = 40
	checkpointEvery     = 20
	// clusterMinDrives is the fewest fresh clusters a window drives,
	// however long each takes.
	clusterMinDrives = 3
)

type clusterInstance struct {
	counts []int64
	cl     *shard.UniformCluster
}

func buildCluster(cfg config) (*clusterInstance, setupTimes, error) {
	var ts setupTimes
	t0 := time.Now()
	sys, err := hypercubeSystem(clusterDim)
	if err != nil {
		return nil, ts, err
	}
	t1 := time.Now()
	counts, err := workload.UniformRandom(sys.N(), int64(clusterTasksPerNode*sys.N()), subStream(cfg.seed, streamPlacement))
	if err != nil {
		return nil, ts, err
	}
	t2 := time.Now()
	cl, err := shard.StartLocalUniformCluster(sys, core.Algorithm1{}, counts, shard.Options{Shards: shards})
	if err != nil {
		return nil, ts, err
	}
	t3 := time.Now()
	ts = setupTimes{graph: t1.Sub(t0), instance: t2.Sub(t1), engine: t3.Sub(t2)}
	return &clusterInstance{counts: counts, cl: cl}, ts, nil
}

// driveRun is one Drive over a fresh cluster.
type driveRun struct {
	res     core.RunResult
	wall    time.Duration
	cpu     time.Duration      // process CPU over the Drive call
	stats   shard.ClusterStats // delta over the Drive
	seed    uint64
	counts  []int64 // final counts (first drive only)
	spans   []byte  // traced: the coordinator's Chrome trace
	started int64   // Drive start on the epoch clock
}

func runCluster(cfg config) (*windowOut, error) {
	w := &windowOut{primaryName: "latency_ms"}
	epoch := time.Now()
	ckpt := filepath.Join(cfg.dir, "cluster.ckpt")
	firstCkpt := ckpt + ".first"
	var setups []setupTimes
	var drives []driveRun
	var initial []int64

	runtime.GC()
	start := time.Now()
	cpu0, gs0 := cpuTime(), readGoStats()
	for i := 0; i < clusterMinDrives || time.Since(start) < cfg.window; i++ {
		inst, ts, err := buildCluster(cfg)
		if err != nil {
			return nil, err
		}
		setups = append(setups, ts)
		if i == 0 {
			initial = append([]int64(nil), inst.counts...)
		}
		var rec *obs.SpanRecorder
		if cfg.traced {
			rec = obs.NewSpanRecorder(0)
			inst.cl.SetSpans(rec)
		}
		d := driveRun{seed: protocolSeed(cfg.seed, i)}
		before := inst.cl.Stats()
		t0, c0 := time.Now(), cpuTime()
		d.started = t0.Sub(epoch).Nanoseconds()
		d.res, err = inst.cl.Drive(core.RunOpts{MaxRounds: clusterHorizon, Seed: d.seed},
			shard.CheckpointConfig{Path: ckpt, Every: checkpointEvery}, nil)
		d.wall, d.cpu = time.Since(t0), cpuTime()-c0
		if err != nil {
			inst.cl.Close()
			return nil, fmt.Errorf("drive %d: %w", i, err)
		}
		d.stats = statsDelta(inst.cl.Stats(), before)
		if i == 0 {
			// Kept for the checks after the window.
			if d.counts, err = inst.cl.Counts(); err != nil {
				inst.cl.Close()
				return nil, err
			}
			if err := os.Rename(ckpt, firstCkpt); err != nil {
				inst.cl.Close()
				return nil, err
			}
		}
		if rec != nil {
			var buf bytes.Buffer
			if err := rec.WriteChromeTrace(&buf); err == nil {
				d.spans = buf.Bytes()
			}
		}
		drives = append(drives, d)
		inst.cl.Close()
		runtime.GC()
	}
	elapsed := time.Since(start)
	cpu := cpuTime() - cpu0
	gs := readGoStats().sub(gs0)
	w.e("peak_rss_mb", "MB", peakRSSMB(), 0, "VmHWM after the window")

	var rounds, moves int64
	var wall time.Duration
	var st shard.ClusterStats
	var walls, cpuPer []float64
	for _, d := range drives {
		rounds += int64(d.res.Rounds)
		moves += d.res.Moves
		wall += d.wall
		st = addStats(st, d.stats)
		walls = append(walls, ms(float64(d.wall)))
		cpuPer = append(cpuPer, d.cpu.Seconds()*1e6/float64(max(d.res.Rounds, 1)))
	}
	drivesN := int64(len(drives))
	w.attempted = rounds
	addSetupMetrics(w, setups)
	w.e("latency_ms", "ms", median(walls), drivesN, fmt.Sprintf("median over Drive calls of %d rounds with %d checkpoints", clusterHorizon, clusterHorizon/checkpointEvery))
	w.e("cpu_us_per_op", "us", median(cpuPer), drivesN, "CPU per round, median over Drive calls")
	w.e("rounds_per_s", "1/s", float64(rounds)/wall.Seconds(), drivesN,
		fmt.Sprintf("%d rounds over %d Drive calls in %.3f s; window %.3f s, %.3f CPU-s", rounds, len(drives), wall.Seconds(), elapsed.Seconds(), cpu.Seconds()))
	w.primary = median(walls)

	perRound := func(ns int64) float64 { return float64(ns) / 1e6 / float64(rounds) }
	// The coordinator's round is the cluster's Step: its loads phase is
	// the snapshot (halo loads gathered and scattered), then decide and
	// commit, each including the wait for the slower worker.
	w.l("shard.step_ms", "ms", perRound(int64(st.Coordinator.Total())), rounds, "coordinator, mean per round")
	w.l("shard.snapshot_ms", "ms", perRound(int64(st.Coordinator.Snapshot)), rounds, "coordinator loads phase, mean per round")
	w.l("shard.decide_ms", "ms", perRound(int64(st.Coordinator.Decide)), rounds, "coordinator, mean per round")
	w.l("shard.commit_ms", "ms", perRound(int64(st.Coordinator.Commit)), rounds, "coordinator, mean per round")
	w.l("core.moves_per_round", "count", float64(moves)/float64(rounds), rounds, "")
	var slowest int64
	for _, ws := range st.Workers {
		slowest = max(slowest, ws.DecideNs)
	}
	w.l("shard.worker_decide_ms", "ms", perRound(slowest), rounds, "slowest worker, mean per round")
	w.l("shard.barrier_wait_ms", "ms", perRound(st.BarrierWaitNs)/float64(max(len(st.Workers), 1)), rounds, "mean per worker per round")
	w.l("shard.cross_flows_per_round", "count", float64(st.FlowsOut)/float64(rounds), rounds, "flow records the workers sent across the shard boundary")
	w.l("transport.bytes_per_round", "bytes", float64(st.Transport.BytesSent+st.Transport.BytesRecv)/float64(rounds), rounds, "coordinator side, sent + received")
	w.l("transport.frames_per_round", "count", float64(st.Transport.FramesSent+st.Transport.FramesRecv)/float64(rounds), rounds, "coordinator side, sent + received")
	if st.Checkpoints > 0 {
		w.l("shard.checkpoint_ms_mean", "ms", float64(st.CheckpointNs)/1e6/float64(st.Checkpoints), st.Checkpoints, "")
		w.l("shard.checkpoint_ms_max", "ms", float64(st.CheckpointMaxNs)/1e6, st.Checkpoints, "")
	}
	if fi, err := os.Stat(firstCkpt); err == nil {
		w.l("shard.checkpoint_bytes", "bytes", float64(fi.Size()), 1, "")
	}
	w.l("go.alloc_bytes_per_op", "bytes", gs.allocBytes/float64(rounds), rounds, "per round, including each Drive's cluster start")
	w.l("go.gc_cpu_share", "fraction", gs.gcShare(), 0, "")
	if cfg.traced {
		addClusterTrace(w, cfg.dir, drives)
	}

	// Checks, outside the window: the first drive's counts, checkpoint
	// and result against lbshard -verify's in-process reference.
	first := drives[0]
	var sum int64
	for _, c := range first.counts {
		sum += c
	}
	want := int64(clusterTasksPerNode) << clusterDim
	w.check("tasks conserved", sum == want, "%d tasks after %d rounds, started with %d", sum, first.res.Rounds, want)
	ck, err := shard.ReadCheckpoint(firstCkpt)
	if err != nil {
		w.check("checkpoint reads back", false, "%v", err)
	} else {
		cr := ck.Result()
		w.check("checkpoint reads back", ck.Round == clusterHorizon && cr.Rounds == first.res.Rounds && cr.Moves == first.res.Moves,
			"CRC ok; round %d, %d moves (drive: %d rounds, %d moves)", ck.Round, cr.Moves, first.res.Rounds, first.res.Moves)
	}
	os.Remove(firstCkpt)
	os.Remove(ckpt)
	sys, err := hypercubeSystem(clusterDim)
	if err != nil {
		return nil, err
	}
	eng, err := shard.New(sys, core.Algorithm1{}, initial, shard.Options{Shards: shards})
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	ref, err := core.Drive[*core.UniformState](eng, nil, core.RunOpts{MaxRounds: clusterHorizon, Seed: first.seed})
	d := time.Since(t0)
	refCounts := eng.Counts()
	eng.Close()
	w.check("matches the in-process engine", err == nil && reflect.DeepEqual(ref, first.res) && reflect.DeepEqual(refCounts, first.counts),
		"in-process %d rounds %d moves, cluster %d rounds %d moves (err %v)", ref.Rounds, ref.Moves, first.res.Rounds, first.res.Moves, err)
	w.l("core.reference_round_ms", "ms", d.Seconds()*1e3/float64(clusterHorizon), clusterHorizon,
		fmt.Sprintf("core.Drive over shard.New, the in-process engine; cluster %.4f ms/round on the same seed", first.wall.Seconds()*1e3/float64(clusterHorizon)))
	if !allOK(w.checks) {
		w.failed++
	}
	return w, nil
}

func statsDelta(a, b shard.ClusterStats) shard.ClusterStats {
	d := shard.ClusterStats{
		Rounds: a.Rounds - b.Rounds,
		Coordinator: shard.PhaseTimes{
			Snapshot: a.Coordinator.Snapshot - b.Coordinator.Snapshot,
			Decide:   a.Coordinator.Decide - b.Coordinator.Decide,
			Commit:   a.Coordinator.Commit - b.Coordinator.Commit,
			Rounds:   a.Coordinator.Rounds - b.Coordinator.Rounds,
		},
		BarrierWaitNs:   a.BarrierWaitNs - b.BarrierWaitNs,
		FlowsOut:        a.FlowsOut - b.FlowsOut,
		Checkpoints:     a.Checkpoints - b.Checkpoints,
		CheckpointNs:    a.CheckpointNs - b.CheckpointNs,
		CheckpointMaxNs: a.CheckpointMaxNs,
	}
	d.Transport.BytesSent = a.Transport.BytesSent - b.Transport.BytesSent
	d.Transport.BytesRecv = a.Transport.BytesRecv - b.Transport.BytesRecv
	d.Transport.FramesSent = a.Transport.FramesSent - b.Transport.FramesSent
	d.Transport.FramesRecv = a.Transport.FramesRecv - b.Transport.FramesRecv
	for i, ws := range a.Workers {
		if i < len(b.Workers) {
			ws.DecideNs -= b.Workers[i].DecideNs
			ws.SnapshotNs -= b.Workers[i].SnapshotNs
			ws.CommitNs -= b.Workers[i].CommitNs
			ws.BarrierWaitNs -= b.Workers[i].BarrierWaitNs
			ws.FlowsOut -= b.Workers[i].FlowsOut
		}
		d.Workers = append(d.Workers, ws)
	}
	return d
}

// addStats sums per-drive deltas; worker i of one drive adds to worker
// i of the total, and the checkpoint maximum is the largest seen.
func addStats(a, b shard.ClusterStats) shard.ClusterStats {
	a.Rounds += b.Rounds
	a.Coordinator.Snapshot += b.Coordinator.Snapshot
	a.Coordinator.Decide += b.Coordinator.Decide
	a.Coordinator.Commit += b.Coordinator.Commit
	a.Coordinator.Rounds += b.Coordinator.Rounds
	a.BarrierWaitNs += b.BarrierWaitNs
	a.FlowsOut += b.FlowsOut
	a.Checkpoints += b.Checkpoints
	a.CheckpointNs += b.CheckpointNs
	a.CheckpointMaxNs = max(a.CheckpointMaxNs, b.CheckpointMaxNs)
	a.Transport.Add(b.Transport)
	for i, ws := range b.Workers {
		if i >= len(a.Workers) {
			a.Workers = append(a.Workers, shard.WorkerStats{})
		}
		a.Workers[i].DecideNs += ws.DecideNs
		a.Workers[i].SnapshotNs += ws.SnapshotNs
		a.Workers[i].CommitNs += ws.CommitNs
		a.Workers[i].BarrierWaitNs += ws.BarrierWaitNs
		a.Workers[i].FlowsOut += ws.FlowsOut
	}
	return a
}

// addClusterTrace checks that the coordinator's phases and checkpoints
// account for the Drive wall time, and turns each drive's coordinator
// Chrome trace into spans under one Drive span: the k-th loads span
// starts round k, which becomes the request id.
func addClusterTrace(w *windowOut, dir string, drives []driveRun) {
	var tr tracer
	var parts, wall float64
	for i, d := range drives {
		parts += float64(d.stats.Coordinator.Total()) + float64(d.stats.CheckpointNs)
		wall += float64(d.wall)
		root := tr.add("shard.drive", d.started, d.started+d.wall.Nanoseconds(), -1, uint64(i)<<32)
		var ct struct {
			TraceEvents []struct {
				Name string  `json:"name"`
				Ts   float64 `json:"ts"`
				Dur  float64 `json:"dur"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(d.spans, &ct); err != nil {
			w.check("coordinator trace parses", false, "%v", err)
			continue
		}
		// The recorder's clock starts at its first span, the first
		// round's loads phase, which begins as Drive starts.
		round := uint64(0)
		for _, e := range ct.TraceEvents {
			if e.Name == "loads" {
				round++
			}
			s := d.started + int64(e.Ts*1e3)
			tr.add("shard.coord_"+e.Name, s, s+int64(e.Dur*1e3), root, uint64(i)<<32|round)
		}
	}
	share := parts / wall
	w.l("trace.parts_share", "fraction", share, int64(len(drives)), "(coordinator loads + decide + commit + checkpoints) ÷ Drive wall time")
	w.check("traced parts add up", abs(share-1) <= partsTolerance,
		"coordinator phases + checkpoints %.4f s vs Drive %.4f s over %d drives", parts/1e9, wall/1e9, len(drives))
	w.notes = append(w.notes, selfNotes(tr.spans)...)
	path := filepath.Join(dir, "spans.jsonl")
	if err := tr.write(path); err != nil {
		w.check("spans written", false, "%v", err)
	} else {
		w.notes = append(w.notes, fmt.Sprintf("%d spans written to %s", len(tr.spans), path))
	}
}
