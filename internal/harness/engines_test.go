package harness

import (
	"runtime"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/shard"
	"repro/internal/task"
)

// TestEngineLists pins the dispatcher's engine menus: both task models
// run on the sequential reference, the shard engine and the cluster.
func TestEngineLists(t *testing.T) {
	want := []string{EngineSeq, EngineShard, EngineCluster}
	for model, got := range map[string][]string{"uniform": UniformEngines(), "weighted": WeightedEngines()} {
		if !slices.Equal(got, want) {
			t.Errorf("%s engines = %v, want %v", model, got, want)
		}
	}
}

// TestWeightedEngineSupports pins the capability matrix the experiments
// use for engine fallback: seq runs anything, shard needs a
// flat-decidable protocol, the cluster one registered on the wire.
func TestWeightedEngineSupports(t *testing.T) {
	cases := []struct {
		engine string
		proto  core.WeightedProtocol
		want   bool
	}{
		{"", core.BaselineWeighted{}, true},
		{EngineSeq, core.BaselineWeighted{}, true},
		{EngineShard, core.Algorithm2{}, true},
		{EngineShard, core.BaselineWeighted{}, false},
		{EngineShard, core.Algorithm2Literal{}, false},
		{EngineCluster, core.Algorithm2{}, true},
		{EngineCluster, core.BaselineWeighted{}, false},
		{EngineCluster, core.Algorithm2Literal{}, false},
		{"warp", core.Algorithm2{}, false},
	}
	for _, c := range cases {
		if got := WeightedEngineSupports(c.engine, c.proto); got != c.want {
			t.Errorf("WeightedEngineSupports(%q, %s) = %v, want %v", c.engine, c.proto.Name(), got, c.want)
		}
	}
}

// engineCfg projects the comparable configuration fields of an
// EngineOpts; the struct itself stopped being comparable when it grew
// the Probe callback.
type engineCfg struct {
	Workers, Shards int
	Strategy        string
}

func cfgOf(eo EngineOpts) engineCfg {
	return engineCfg{Workers: eo.Workers, Shards: eo.Shards, Strategy: eo.Strategy}
}

// TestEngineOptsResolved pins that Resolved reports what actually runs:
// zero values become the constructor defaults, shard counts clamp to
// [1, n], workers cap at the shard count, and the default strategy is
// spelled out.
func TestEngineOptsResolved(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	cases := []struct {
		name   string
		eo     EngineOpts
		engine string
		n      int
		want   EngineOpts
	}{
		{"seq-defaults", EngineOpts{}, EngineSeq, 100, EngineOpts{Workers: 1}},
		{"seq-ignores-flags", EngineOpts{Workers: 9, Shards: 4}, EngineSeq, 100, EngineOpts{Workers: 1}},
		{"shard-defaults", EngineOpts{}, EngineShard, 1000,
			EngineOpts{Workers: procs, Shards: procs, Strategy: "contiguous"}},
		{"shard-explicit", EngineOpts{Workers: 2, Shards: 5, Strategy: "degree"}, EngineShard, 1000,
			EngineOpts{Workers: 2, Shards: 5, Strategy: "degree"}},
		{"shard-clamp-p-to-n", EngineOpts{Workers: 4, Shards: 1000}, EngineShard, 8,
			EngineOpts{Workers: 4, Shards: 8, Strategy: "contiguous"}},
		{"shard-workers-capped-at-p", EngineOpts{Workers: 8, Shards: 2}, EngineShard, 100,
			EngineOpts{Workers: 2, Shards: 2, Strategy: "contiguous"}},
		{"shard-workers-capped-at-n", EngineOpts{Workers: 64}, EngineShard, 8,
			EngineOpts{Workers: 8, Shards: 8, Strategy: "contiguous"}},
		{"cluster-defaults", EngineOpts{}, EngineCluster, 1000,
			EngineOpts{Workers: procs, Shards: procs, Strategy: "contiguous"}},
		{"cluster-one-worker-per-shard", EngineOpts{Workers: 8, Shards: 3}, EngineCluster, 100,
			EngineOpts{Workers: 3, Shards: 3, Strategy: "contiguous"}},
		{"cluster-clamp-p-to-n", EngineOpts{Shards: 1000}, EngineCluster, 8,
			EngineOpts{Workers: 8, Shards: 8, Strategy: "contiguous"}},
		{"cluster-one-worker-per-node", EngineOpts{Shards: 24}, EngineCluster, 24,
			EngineOpts{Workers: 24, Shards: 24, Strategy: "contiguous"}},
	}
	for _, c := range cases {
		if got := c.eo.Resolved(c.engine, c.n); cfgOf(got) != cfgOf(c.want) {
			t.Errorf("%s: Resolved(%q, %d) = %+v, want %+v", c.name, c.engine, c.n, got, c.want)
		}
	}
}

// TestResolvedMatchesShardConstructors ties Resolved to the actual
// engine constructors — the single place the defaulting/clamping rules
// live. If shard.New, the in-process cluster starters or NewPartition
// ever change a default, this test fails rather than letting the lbsim
// or lbd banner silently report parameters that differ from what ran.
// A cluster runs one worker per shard.
func TestResolvedMatchesShardConstructors(t *testing.T) {
	g, err := graph.Ring(24)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(g, machine.Uniform(24), core.WithLambda2(0.1))
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int64, 24)
	perNode := make([]task.Weights, 24)
	ran := func(workers int, part *shard.Partition) EngineOpts {
		return EngineOpts{Workers: workers, Shards: part.P(), Strategy: string(part.Strategy())}
	}
	for _, eo := range []EngineOpts{
		{},
		{Workers: 3},
		{Shards: 7},
		{Workers: 8, Shards: 2},
		{Shards: 1000, Workers: 4},
		{Shards: 5, Strategy: "degree"},
	} {
		opts := shard.Options{Shards: eo.Shards, Workers: eo.Workers, Strategy: shard.Strategy(eo.Strategy)}
		check := func(what, engine string, got EngineOpts) {
			t.Helper()
			if want := eo.Resolved(engine, 24); cfgOf(got) != cfgOf(want) {
				t.Errorf("%s %+v: ran %+v, Resolved says %+v", what, eo, got, want)
			}
		}
		eng, err := shard.New(sys, core.Algorithm1{}, counts, opts)
		if err != nil {
			t.Fatalf("%+v: %v", eo, err)
		}
		check("uniform engine", EngineShard, ran(eng.Workers(), eng.Partition()))
		eng.Close()
		weng, err := shard.NewWeighted(sys, core.Algorithm2{}, perNode, opts)
		if err != nil {
			t.Fatalf("%+v: %v", eo, err)
		}
		check("weighted engine", EngineShard, ran(weng.Workers(), weng.Partition()))
		weng.Close()
		cl, err := shard.StartLocalUniformCluster(sys, core.Algorithm1{}, counts, opts)
		if err != nil {
			t.Fatalf("%+v: %v", eo, err)
		}
		check("uniform cluster", EngineCluster, ran(cl.Partition().P(), cl.Partition()))
		cl.Close()
		wcl, err := shard.StartLocalWeightedCluster(sys, core.Algorithm2{}, perNode, opts)
		if err != nil {
			t.Fatalf("%+v: %v", eo, err)
		}
		check("weighted cluster", EngineCluster, ran(wcl.Partition().P(), wcl.Partition()))
		wcl.Close()
	}
}
