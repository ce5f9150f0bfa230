// Checkpoint byte-identity fixtures: two small LBCK files written by
// fixed drives — a uniform d = 6 hypercube at P = 3 and a weighted
// 16-node torus at P = 2 — and committed under testdata/. Re-running the
// same drive must write the same bytes, which pins the file format
// (field order, encodings, CRC trailer) and the workers' state frames
// against any change to the code that writes them. Regenerate
// intentionally with
//
//	go test ./internal/shard -run TestCheckpointFixtures -update
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

var update = flag.Bool("update", false, "rewrite the checkpoint fixtures")

func TestCheckpointFixtures(t *testing.T) {
	hypercube, err := experiments.ClassByKey("hypercube")
	if err != nil {
		t.Fatal(err)
	}
	torus, err := experiments.ClassByKey("torus")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		drive func(t *testing.T, path string) error
	}{
		{"uniform_hypercube_p3.ckpt", func(t *testing.T, path string) error {
			sys, counts := buildInstance(t, hypercube, 64)
			cl, err := shard.StartLocalUniformCluster(sys, core.Algorithm1{}, counts, shard.Options{Shards: 3})
			if err != nil {
				return err
			}
			defer cl.Close()
			_, err = cl.Drive(driveOpts, shard.CheckpointConfig{Path: path, Every: 20}, nil)
			return err
		}},
		{"weighted_torus_p2.ckpt", func(t *testing.T, path string) error {
			sys, perNode := buildWeighted(t, torus, 16, 10)
			cl, err := shard.StartLocalWeightedCluster(sys, core.Algorithm2{}, perNode, shard.Options{Shards: 2})
			if err != nil {
				return err
			}
			defer cl.Close()
			_, err = cl.Drive(driveOpts, shard.CheckpointConfig{Path: path, Every: 15}, nil)
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), tc.name)
			if err := tc.drive(t, path); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			fixture := filepath.Join("testdata", tc.name)
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(fixture, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(fixture)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				at := 0
				for at < len(got) && at < len(want) && got[at] == want[at] {
					at++
				}
				t.Fatalf("checkpoint differs from %s at byte %d (got %d bytes, want %d)", fixture, at, len(got), len(want))
			}
		})
	}
}
