// Checkpoint fixtures: LBCK files written by two fixed drives — a
// uniform d = 6 hypercube at P = 3 (checkpoint every 20 rounds) and a
// weighted 16-node torus at P = 2 (every 15) — committed under
// testdata/. The *_v2.ckpt files pin the format the writer emits (field
// order, encodings, the graph descriptor and digest, CRC trailer) and
// the workers' state frames: re-running the drive must write the same
// bytes. The LBCK v1 files were written by the same drives before v2;
// they pin the reader's v1 path: each must decode and resume, rounds
// 41–50 or 46–50, to the uninterrupted drive's result and final state.
// Every fixture must resume so. Regenerate the v2 files intentionally
// with
//
//	go test ./internal/shard -run TestCheckpointFixtures -update
//
// The v1 files are never rewritten.
package shard_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/shard"
)

var update = flag.Bool("update", false, "rewrite the LBCK v2 checkpoint fixtures")

// fixtureDrive is one fixture's drive: run drives a fresh cluster over
// the whole horizon, checkpointing as ck says, and resume continues a
// checkpoint to the horizon. Both return the result and a check of the
// final state against another run's.
type fixtureDrive struct {
	name   string // the fixture stem
	run    func(t *testing.T, ck shard.CheckpointConfig) (core.RunResult, func(t *testing.T, label string, got any))
	resume func(t *testing.T, ck *shard.Checkpoint) (core.RunResult, any)
}

func fixtureDrives(t *testing.T) []fixtureDrive {
	hypercube, err := experiments.ClassByKey("hypercube")
	if err != nil {
		t.Fatal(err)
	}
	torus, err := experiments.ClassByKey("torus")
	if err != nil {
		t.Fatal(err)
	}
	usys, counts := buildInstance(t, hypercube, 64)
	wsys, perNode := buildWeighted(t, torus, 16, 10)
	return []fixtureDrive{
		{
			name: "uniform_hypercube_p3",
			run: func(t *testing.T, ck shard.CheckpointConfig) (core.RunResult, func(*testing.T, string, any)) {
				cl, err := shard.StartLocalUniformCluster(usys, core.Algorithm1{}, counts, shard.Options{Shards: 3})
				if err != nil {
					t.Fatal(err)
				}
				defer cl.Close()
				ck.Every = 20
				res, err := cl.Drive(driveOpts, ck, nil)
				if err != nil {
					t.Fatal(err)
				}
				final, err := cl.Counts()
				if err != nil {
					t.Fatal(err)
				}
				return res, func(t *testing.T, label string, got any) { sameCounts(t, label, final, got.([]int64)) }
			},
			resume: func(t *testing.T, ck *shard.Checkpoint) (core.RunResult, any) {
				cl, err := ck.ResumeLocalUniform()
				if err != nil {
					t.Fatal(err)
				}
				defer cl.Close()
				res, err := cl.Drive(driveOpts, shard.CheckpointConfig{}, ck)
				if err != nil {
					t.Fatal(err)
				}
				final, err := cl.Counts()
				if err != nil {
					t.Fatal(err)
				}
				return res, final
			},
		},
		{
			name: "weighted_torus_p2",
			run: func(t *testing.T, ck shard.CheckpointConfig) (core.RunResult, func(*testing.T, string, any)) {
				cl, err := shard.StartLocalWeightedCluster(wsys, core.Algorithm2{}, perNode, shard.Options{Shards: 2})
				if err != nil {
					t.Fatal(err)
				}
				defer cl.Close()
				ck.Every = 15
				res, err := cl.Drive(driveOpts, ck, nil)
				if err != nil {
					t.Fatal(err)
				}
				final, err := cl.State()
				if err != nil {
					t.Fatal(err)
				}
				return res, func(t *testing.T, label string, got any) {
					sameWeightedState(t, label, final, got.(*core.WeightedState))
				}
			},
			resume: func(t *testing.T, ck *shard.Checkpoint) (core.RunResult, any) {
				cl, err := ck.ResumeLocalWeighted()
				if err != nil {
					t.Fatal(err)
				}
				defer cl.Close()
				res, err := cl.Drive(driveOpts, shard.CheckpointConfig{}, ck)
				if err != nil {
					t.Fatal(err)
				}
				final, err := cl.State()
				if err != nil {
					t.Fatal(err)
				}
				return res, final
			},
		},
	}
}

func TestCheckpointFixtures(t *testing.T) {
	for _, fd := range fixtureDrives(t) {
		// The drive rewrites its checkpoint file in place, so the file
		// left behind is the last checkpoint: round 40 or 45.
		path := filepath.Join(t.TempDir(), fd.name+".ckpt")
		ref, sameFinal := fd.run(t, shard.CheckpointConfig{Path: path})
		resumes := func(t *testing.T, fixture string) {
			ck, err := shard.ReadCheckpoint(fixture)
			if err != nil {
				t.Fatal(err)
			}
			res, final := fd.resume(t, ck)
			sameRun(t, fixture, ref, res)
			sameFinal(t, fixture, final)
		}
		t.Run(fd.name+".ckpt", func(t *testing.T) {
			resumes(t, filepath.Join("testdata", fd.name+".ckpt"))
		})
		t.Run(fd.name+"_v2.ckpt", func(t *testing.T) {
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			v2 := filepath.Join("testdata", fd.name+"_v2.ckpt")
			if *update {
				if err := os.WriteFile(v2, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(v2)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				at := 0
				for at < len(got) && at < len(want) && got[at] == want[at] {
					at++
				}
				t.Fatalf("checkpoint differs from %s at byte %d (got %d bytes, want %d)", v2, at, len(got), len(want))
			}
			resumes(t, v2)
		})
	}
}
