package shard

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/rng"
	"repro/internal/spectral"
	"repro/internal/transport"
	"repro/internal/workload"
)

// FuzzReadCheckpoint feeds mutated checkpoint bodies, seeded with the
// committed v1 and v2 fixtures, to the decoder. The target appends the
// correct CRC32 trailer to every input, so mutations reach the
// structural decode instead of stopping at the checksum. Whatever the
// bytes, the decoder must return a checkpoint or an error: no panic,
// and no allocation out of proportion to the input. Like decodeConfig
// it never runs a generator.
func FuzzReadCheckpoint(f *testing.F) {
	fixtures, err := filepath.Glob(filepath.Join("testdata", "*.ckpt"))
	if err != nil || len(fixtures) == 0 {
		f.Fatalf("no checkpoint fixtures (%v)", err)
	}
	for _, path := range fixtures {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw[:len(raw)-4])
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		raw := binary.LittleEndian.AppendUint32(append([]byte(nil), body...), crc32.ChecksumIEEE(body))
		alloc := allocated(func() { _, _ = decodeCheckpoint(raw) })
		checkDecodeAlloc(t, "checkpoint", len(raw), alloc)
	})
}

// hypercubeCluster starts a uniform in-process cluster on a d-cube of
// two-class nodes with 8 tasks per node.
func hypercubeCluster(t *testing.T, d, shards int) *UniformCluster {
	t.Helper()
	g, err := graph.Hypercube(d)
	if err != nil {
		t.Fatal(err)
	}
	speeds, err := machine.TwoClass(g.N(), 0.25, 2)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(g, speeds, core.WithLambda2(spectral.Lambda2Hypercube(d)))
	if err != nil {
		t.Fatal(err)
	}
	counts, err := workload.UniformRandom(g.N(), int64(8*g.N()), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	cl, err := StartLocalUniformCluster(sys, core.Algorithm1{}, counts, Options{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// TestCheckpointAllocation: a checkpoint streams its body through a
// bounded stage, so one taken after a warm-up round allocates less than
// the file it writes (what remains is the state gather). Encoding the
// body into one growing buffer allocated 5.5× the file. The file spans
// many stages and must read back.
func TestCheckpointAllocation(t *testing.T) {
	cl := hypercubeCluster(t, 14, 2)
	if _, err := cl.Step(1, rng.New(3)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.ckpt")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := cl.checkpoint(path, core.RunOpts{MaxRounds: 1, Seed: 3}, &core.RunResult{Rounds: 1})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("checkpoint allocated %d bytes for a %d-byte file (%.2f×)", alloc, info.Size(), float64(alloc)/float64(info.Size()))
	if alloc > uint64(info.Size()) {
		t.Fatalf("checkpoint allocated %d bytes for a %d-byte file (%.2f×)", alloc, info.Size(), float64(alloc)/float64(info.Size()))
	}
	ck, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Round != 1 || ck.inst.N != cl.n || ck.inst.Desc != cl.csr.Descriptor() || ck.inst.Digest != cl.csr.Digest() {
		t.Fatalf("read back round %d, %d nodes, graph %+v digest %#08x; want 1, %d, %+v, %#08x",
			ck.Round, ck.inst.N, ck.inst.Desc, ck.inst.Digest, cl.n, cl.csr.Descriptor(), cl.csr.Digest())
	}
}

// TestConfigureKeepsNoFrame: the config frames are the largest the
// session sends, and the coordinator must not keep one in its per-round
// staging buffer.
func TestConfigureKeepsNoFrame(t *testing.T) {
	cl := hypercubeCluster(t, 12, 2)
	if frame := 4 * len(cl.csr.Adj()); cap(cl.buf.B) >= frame {
		t.Fatalf("coordinator keeps a %d-byte staging buffer after configure; the config frame's adjacency alone is %d bytes", cap(cl.buf.B), frame)
	}
}

// TestConfigEncodedSize pins encodedSize to encodeConfig's output for
// every shape the coordinator sends: both models, fresh and restored,
// with the rows as a descriptor and digest or explicit, and checks that
// each decodes to what was encoded.
func TestConfigEncodedSize(t *testing.T) {
	var shapes []*clusterConfig
	for _, cfg := range testConfigs(t) {
		other := *cfg
		other.Restored = !cfg.Restored
		if other.Model == modelWeighted && !other.Restored {
			other.NodeWeight = nil
		}
		shapes = append(shapes, cfg, &other)
	}
	for _, cfg := range shapes {
		name := fmt.Sprintf("%s/model %d/restored %t", cfg.Window.Name, cfg.Model, cfg.Restored)
		var b transport.Buffer
		encodeConfig(&b, cfg)
		if got := cfg.encodedSize(); got != len(b.B) {
			t.Errorf("%s: encodedSize %d, encodeConfig wrote %d bytes", name, got, len(b.B))
		}
		b.Load(b.B)
		got, err := decodeConfig(&b)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, cfg) {
			t.Errorf("%s: decoded %+v, want %+v", name, got, cfg)
		}
	}
}
