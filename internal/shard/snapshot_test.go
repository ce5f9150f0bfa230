package shard

import (
	"encoding/binary"
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
// with the graph as a descriptor or as an explicit CSR.
func TestConfigEncodedSize(t *testing.T) {
	explicit := instanceWire{
		Name: "ring(8)", N: 8, Offsets: make([]int32, 9), Adj: make([]int32, 16),
		Speeds: make([]float64, 8), Lambda2: 0.25,
	}
	described := instanceWire{
		Name: "ring-8", N: 8, Desc: graph.Descriptor{Family: graph.FamilyRing, Params: [2]int{8}}, Digest: 0xdeadbeef,
		Speeds: make([]float64, 8), Lambda2: 0.25,
	}
	for form, inst := range map[string]instanceWire{"explicit": explicit, "descriptor": described} {
		base := clusterConfig{Proto: "algorithm2", Alpha: 0.5, P: 3, Shard: 1, Lo: 4, Strategy: "contiguous", Instance: inst}
		uniform, restoredUniform := base, base
		uniform.Model, uniform.Counts = modelUniform, make([]int64, 3)
		restoredUniform.Model, restoredUniform.Counts, restoredUniform.Restored = modelUniform, make([]int64, 3), true
		weighted := base
		weighted.Model, weighted.SegLen, weighted.Segs = modelWeighted, make([]int64, 3), make([]float64, 7)
		restored := weighted
		restored.Restored, restored.NodeWeight = true, make([]float64, 3)
		for name, cfg := range map[string]*clusterConfig{
			"uniform": &uniform, "uniform-restored": &restoredUniform,
			"weighted": &weighted, "weighted-restored": &restored,
		} {
			var b transport.Buffer
			encodeConfig(&b, cfg)
			if got := cfg.encodedSize(); got != len(b.B) {
				t.Errorf("%s/%s: encodedSize %d, encodeConfig wrote %d bytes", form, name, got, len(b.B))
			}
			b.Load(b.B)
			got, err := decodeConfig(&b)
			if err != nil {
				t.Fatalf("%s/%s: %v", form, name, err)
			}
			if !reflect.DeepEqual(got, cfg) {
				t.Errorf("%s/%s: decoded %+v, want %+v", form, name, got, cfg)
			}
		}
	}
}
