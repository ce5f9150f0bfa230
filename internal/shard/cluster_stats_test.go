// Cluster telemetry tests: the telemetry every worker appends to its
// step-done frame must reach the coordinator's aggregate, the
// coordinator must time its own stages (and implement PhaseTimer), the
// span recorder must capture per-round stage spans, and checkpoint
// writes must be counted — all without perturbing the parity suites,
// which run in this same package with the exchange permanently on.
package shard_test

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/shard"
)

func TestClusterStats(t *testing.T) {
	class := experiments.Table1Classes()[0]
	sys, counts := buildInstance(t, class, 16)
	cl, err := shard.StartLocalUniformCluster(sys, core.Algorithm1{}, counts, shard.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	rec := obs.NewSpanRecorder(0)
	cl.SetSpans(rec)

	dir := t.TempDir()
	ckPath := filepath.Join(dir, "stats.ckpt")
	const rounds = 12
	res, err := cl.Drive(core.RunOpts{MaxRounds: rounds, Seed: 21}, shard.CheckpointConfig{Path: ckPath, Every: 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != rounds {
		t.Fatalf("drive ran %d rounds, want %d", res.Rounds, rounds)
	}

	st := cl.Stats()
	if st.Rounds != rounds {
		t.Fatalf("stats report %d rounds, want %d", st.Rounds, rounds)
	}
	if ph := cl.Phases(); ph.Rounds != rounds || ph.Total() <= 0 {
		t.Fatalf("coordinator phases %+v, want %d timed rounds", ph, rounds)
	}
	if len(st.Workers) != 2 {
		t.Fatalf("stats carry %d workers, want 2", len(st.Workers))
	}
	for s, ws := range st.Workers {
		if ws.Conn.FramesSent == 0 || ws.Conn.FramesRecv == 0 {
			t.Fatalf("worker %d reported no transport traffic: %+v", s, ws)
		}
		if ws.SnapshotNs < 0 || ws.DecideNs < 0 || ws.CommitNs < 0 || ws.BarrierWaitNs < 0 || ws.FlowsOut < 0 {
			t.Fatalf("worker %d reported negative telemetry: %+v", s, ws)
		}
	}
	// The two-corner start pushes load across the shard boundary, so
	// cross-shard flow records must have been shipped.
	if st.FlowsOut == 0 {
		t.Fatal("no cross-shard flows recorded on an adversarial two-corner start")
	}
	if st.Transport.FramesSent == 0 || st.Transport.BytesRecv == 0 {
		t.Fatalf("coordinator transport counters empty: %+v", st.Transport)
	}
	if st.Checkpoints != 2 {
		t.Fatalf("stats count %d checkpoints, want 2 (every 5 of %d rounds)", st.Checkpoints, rounds)
	}
	if st.CheckpointNs <= 0 || st.CheckpointMaxNs <= 0 || st.CheckpointMaxNs > st.CheckpointNs {
		t.Fatalf("checkpoint durations inconsistent: total=%d max=%d", st.CheckpointNs, st.CheckpointMaxNs)
	}

	if rec.Len() == 0 {
		t.Fatal("no spans recorded")
	}
	var sb strings.Builder
	if err := rec.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	trace := sb.String()
	for _, want := range []string{`"name":"loads"`, `"name":"decide"`, `"name":"commit"`, `"name":"checkpoint"`} {
		if !strings.Contains(trace, want) {
			t.Fatalf("trace missing %s span", want)
		}
	}
}

// TestEngineTelemetry covers the in-process engines' counters: the
// cross-shard flow tally must move on an adversarial start, and the
// weighted arena occupancy must account for the carved segments.
func TestEngineTelemetry(t *testing.T) {
	class := experiments.Table1Classes()[0]
	sys, counts := buildInstance(t, class, 16)
	eng, err := shard.New(sys, core.Algorithm1{}, counts, shard.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := core.Drive[*core.UniformState](eng, nil, core.RunOpts{MaxRounds: 10, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	if eng.CrossFlows() == 0 {
		t.Fatal("uniform engine recorded no cross-shard flows on a two-corner start")
	}

	wsys, perNode := buildWeighted(t, class, 16, 8)
	weng, err := shard.NewWeighted(wsys, core.Algorithm2{}, perNode, shard.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer weng.Close()
	if _, err := core.Drive[*core.WeightedState](weng, nil, core.RunOpts{MaxRounds: 10, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	if weng.CrossFlows() == 0 {
		t.Fatal("weighted engine recorded no cross-shard flows on an all-on-one start")
	}
	ar := weng.Arena()
	if ar.CurBytes <= 0 {
		t.Fatalf("arena reports no active blocks after 10 rounds: %+v", ar)
	}
	if ar.RetiredBytes < 0 || ar.DeadFloats < 0 {
		t.Fatalf("arena occupancy negative: %+v", ar)
	}
}
