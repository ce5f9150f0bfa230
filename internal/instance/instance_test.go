package instance

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/task"
)

func digestF64s(vs []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

func digestCounts(cs []int64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, c := range cs {
		binary.LittleEndian.PutUint64(b[:], uint64(c))
		h.Write(b[:])
	}
	return h.Sum64()
}

func digestPerNode(per []task.Weights) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, ws := range per {
		binary.LittleEndian.PutUint64(b[:], uint64(len(ws)))
		h.Write(b[:])
		for _, w := range ws {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(w))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// TestBuildsGolden pins Build to the instances that lbsim's own builders
// produced before they moved here: every graph class × speed profile ×
// task model × placement at n = 16, seed 1, smax 4 and the default m.
// Each line of testdata/builds.golden holds the graph, the CSR digest,
// the bits of λ₂ and FNV-64a digests of the speeds and of the start
// assignment. The file was recorded by the old builders and is never
// rewritten.
func TestBuildsGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/builds.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, gname := range []string{"complete", "ring", "path", "torus", "mesh", "hypercube", "star", "regular"} {
		for _, sp := range []string{"uniform", "twoclass", "integers"} {
			for _, model := range []string{"uniform", "weighted"} {
				for _, pl := range []string{"corner", "random", "proportional"} {
					s := Spec{Graph: gname, N: 16, Seed: 1, Speeds: sp, SMax: 4, Model: model, Protocol: "paper", Placement: pl}
					inst, err := s.Build()
					if err != nil {
						t.Fatalf("%+v: %v", s, err)
					}
					load := digestCounts(inst.Counts)
					if model == "weighted" {
						load = digestPerNode(inst.Weights)
					}
					g := inst.Sys.Graph()
					fmt.Fprintf(&got, "%s/%s/%s/%s %s csr=%08x l2=%016x speeds=%016x load=%016x\n",
						gname, sp, model, pl, g, g.CSR().Digest(), math.Float64bits(inst.Sys.Lambda2()),
						digestF64s(inst.Sys.Speeds()), load)
				}
			}
		}
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%d lines, want %d", len(gl), len(wl))
	}
}

func TestBuildGraphClasses(t *testing.T) {
	for _, name := range []string{"complete", "ring", "path", "torus", "mesh", "hypercube", "star", "regular"} {
		g, lambda2, err := Spec{Graph: name, N: 16, Seed: 1}.BuildGraph()
		if err != nil {
			t.Fatalf("BuildGraph(%s): %v", name, err)
		}
		if g == nil || g.N() < 2 {
			t.Fatalf("BuildGraph(%s): bad graph", name)
		}
		if lambda2 <= 0 {
			t.Errorf("BuildGraph(%s): λ₂ = %g", name, lambda2)
		}
		if !g.IsConnected() {
			t.Errorf("BuildGraph(%s): disconnected", name)
		}
	}
	if _, _, err := (Spec{Graph: "nope", N: 16, Seed: 1}).BuildGraph(); err == nil {
		t.Error("unknown graph accepted")
	}
}

func TestBuildSpeedsProfiles(t *testing.T) {
	for _, profile := range []string{"uniform", "twoclass", "integers"} {
		s, err := Spec{Speeds: profile, SMax: 4, Seed: 1}.BuildSpeeds(12)
		if err != nil {
			t.Fatalf("BuildSpeeds(%s): %v", profile, err)
		}
		if len(s) != 12 {
			t.Fatalf("BuildSpeeds(%s): %d speeds", profile, len(s))
		}
		if err := s.Validate(); err != nil {
			t.Errorf("BuildSpeeds(%s): %v", profile, err)
		}
	}
	if _, err := (Spec{Speeds: "nope", SMax: 4, Seed: 1}).BuildSpeeds(12); err == nil {
		t.Error("unknown profile accepted")
	}
}

func TestSqrtSide(t *testing.T) {
	cases := []struct{ n, want int }{{1, 1}, {4, 2}, {5, 3}, {9, 3}, {10, 4}, {64, 8}}
	for _, c := range cases {
		if got := sqrtSide(c.n); got != c.want {
			t.Errorf("sqrtSide(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestInitialCounts(t *testing.T) {
	s := Spec{Graph: "ring", N: 8, Tasks: 80, Seed: 1, Speeds: "uniform", Model: "uniform"}
	for _, placement := range []string{"corner", "random", "proportional"} {
		s.Placement = placement
		inst, err := s.Build()
		if err != nil {
			t.Fatalf("Build(%s): %v", placement, err)
		}
		sum := int64(0)
		for _, c := range inst.Counts {
			sum += c
		}
		if sum != 80 {
			t.Errorf("Build(%s): sum %d, want 80", placement, sum)
		}
	}
	s.Placement = "nope"
	if _, err := s.Build(); err == nil {
		t.Error("unknown placement accepted")
	}
}

// TestBuildModels pins what Build resolves: m defaults to 64 per built
// node, the weighted model carries its protocol and weights and no
// counts, and an unknown model or weighted protocol fails.
func TestBuildModels(t *testing.T) {
	s := Default()
	s.Graph, s.N = "torus", 50 // a 7×7 torus: m follows the built size, not -n
	u, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if u.Sys.N() != 49 || u.M != 64*49 || len(u.Counts) != 49 || u.Weights != nil || u.Protocol != nil {
		t.Fatalf("uniform build: n=%d m=%d counts=%d weights=%v protocol=%v",
			u.Sys.N(), u.M, len(u.Counts), u.Weights != nil, u.Protocol)
	}
	s.Model = "weighted"
	w, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	tasks := 0
	for _, ws := range w.Weights {
		tasks += len(ws)
	}
	if int64(tasks) != w.M || w.Counts != nil || w.Protocol == nil || w.Protocol.Name() == "" {
		t.Fatalf("weighted build: %d tasks for m=%d, counts=%v protocol=%v", tasks, w.M, w.Counts != nil, w.Protocol)
	}
	s.Placement = "nope"
	if _, err := s.Build(); err == nil {
		t.Error("unknown weighted placement accepted")
	}
	s.Placement, s.Protocol = "corner", "nope"
	if _, err := s.Build(); err == nil {
		t.Error("unknown weighted protocol accepted")
	}
	s.Model = "uniform" // the uniform model runs Algorithm 1 whatever -protocol says
	if _, err := s.Build(); err != nil {
		t.Errorf("uniform model refused an unused protocol: %v", err)
	}
	s.Model = "nope"
	if _, err := s.Build(); err == nil || !strings.Contains(err.Error(), "unknown task model") {
		t.Errorf("unknown model: %v", err)
	}
}

// TestBindDefaults: Bind takes every default from the Spec it binds, so
// a front end sets its own defaults by editing the Spec first.
func TestBindDefaults(t *testing.T) {
	s := Default()
	s.N, s.Placement = 1024, "proportional"
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	s.Bind(fs)
	if err := fs.Parse([]string{"-graph", "star"}); err != nil {
		t.Fatal(err)
	}
	want := Default()
	want.Graph, want.N, want.Placement = "star", 1024, "proportional"
	if s != want {
		t.Fatalf("bound spec %+v, want %+v", s, want)
	}
	for _, name := range []string{"graph", "n", "tasks", "seed", "speeds", "smax", "model", "protocol", "placement"} {
		if fs.Lookup(name) == nil {
			t.Errorf("flag -%s not registered", name)
		}
	}
	if fs.Lookup("n").DefValue != "1024" || fs.Lookup("placement").DefValue != "proportional" {
		t.Errorf("defaults -n %s -placement %s, want the Spec's", fs.Lookup("n").DefValue, fs.Lookup("placement").DefValue)
	}
}

// TestSpecMetaRoundTrip: the journal header written by Meta reads back
// to the same Spec, through the real flag parser, and a header missing
// a key is refused.
func TestSpecMetaRoundTrip(t *testing.T) {
	s := Default()
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	s.Bind(fs)
	if err := fs.Parse([]string{
		"-graph", "torus", "-n", "100", "-tasks", "5000", "-seed", "9",
		"-speeds", "twoclass", "-smax", "2", "-model", "weighted",
		"-protocol", "paper", "-placement", "random"}); err != nil {
		t.Fatal(err)
	}
	meta := s.Meta()
	if len(meta) != 9 {
		t.Fatalf("Meta has %d keys, want 9: %v", len(meta), meta)
	}
	got, err := FromMeta(meta)
	if err != nil {
		t.Fatal(err)
	}
	if got != s {
		t.Fatalf("meta round trip: got %+v, want %+v", got, s)
	}
	if _, err := FromMeta(map[string]string{"graph": "ring"}); err == nil {
		t.Fatal("incomplete meta accepted")
	}
	meta["n"] = "lots"
	if _, err := FromMeta(meta); err == nil {
		t.Fatal("non-numeric n accepted")
	}
}

// parseMeta reads key=value lines, the shape of a journal header's meta
// object, into a map; a line without '=' is a key with an empty value.
func parseMeta(data string) map[string]string {
	meta := map[string]string{}
	for _, line := range strings.Split(data, "\n") {
		k, v, _ := strings.Cut(line, "=")
		meta[k] = v
	}
	return meta
}

// FuzzSpecMeta feeds FromMeta arbitrary key=value lines, as a journal
// header read from disk may hold. It must never panic, and every map it
// accepts must round-trip through Meta to an equal Spec (smax compared
// by bits, so a NaN round-trips too).
func FuzzSpecMeta(f *testing.F) {
	line := func(m map[string]string) string {
		var b strings.Builder
		for _, k := range []string{"graph", "n", "tasks", "seed", "speeds", "smax", "model", "protocol", "placement", "engine"} {
			if v, ok := m[k]; ok {
				fmt.Fprintf(&b, "%s=%s\n", k, v)
			}
		}
		return b.String()
	}
	d := Default().Meta()
	f.Add(line(d))
	d["engine"] = "cluster"
	d["smax"] = "NaN"
	f.Add(line(d))
	d["n"], d["tasks"], d["seed"], d["smax"] = "-3", "+7", "18446744073709551615", "0x1p-2"
	f.Add(line(d))
	d["smax"] = "1e400"
	f.Add(line(d))
	f.Add("graph=ring\nn=8\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, data string) {
		s, err := FromMeta(parseMeta(data))
		if err != nil {
			return
		}
		meta := s.Meta()
		if len(meta) != 9 {
			t.Fatalf("Meta has %d keys", len(meta))
		}
		back, err := FromMeta(meta)
		if err != nil {
			t.Fatalf("FromMeta refused Meta's own output %v: %v", meta, err)
		}
		if math.Float64bits(back.SMax) != math.Float64bits(s.SMax) {
			t.Fatalf("smax %v round-tripped to %v", s.SMax, back.SMax)
		}
		back.SMax, s.SMax = 0, 0
		if back != s {
			t.Fatalf("round trip: got %+v, want %+v", back, s)
		}
	})
}
