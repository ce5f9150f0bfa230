package serve

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/shard"
	"repro/internal/workload"
)

// clusterEngine is a process-cluster engine with its transport counters.
type clusterEngine[S core.State] interface {
	core.Engine[S]
	Stats() shard.ClusterStats
}

// TestServeClusterFusedReplay serves a two-shard cluster and pins that
// the serve loop drives it the way core.Drive does: (a) the live result
// replays bit-exactly from the journal on the sequential engine, and
// (b) every admitted round costs the transport frames core.Drive spends
// on a fresh cluster fed the journal's events, which holds only if the
// batch rides the round frame (core.EventStepper) instead of taking a
// barrier of its own.
func TestServeClusterFusedReplay(t *testing.T) {
	const n = 64
	sys := testSystem(t, n)
	opts := shard.Options{Shards: 2}
	t.Run("uniform", func(t *testing.T) {
		counts, err := workload.Proportional(sys.Speeds(), 10*n)
		if err != nil {
			t.Fatal(err)
		}
		start := func() clusterEngine[*core.UniformState] {
			cl, err := shard.StartLocalUniformCluster(sys, core.Algorithm1{}, counts, opts)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { cl.Close() })
			return cl
		}
		checkServedCluster(t, start(), start(), uniformEngine(t, sys, counts), n, false)
	})
	t.Run("weighted", func(t *testing.T) {
		perNode := testWeights(t, sys, 8)
		start := func() clusterEngine[*core.WeightedState] {
			cl, err := shard.StartLocalWeightedCluster(sys, core.Algorithm2{}, perNode, opts)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { cl.Close() })
			return cl
		}
		checkServedCluster(t, start(), start(), weightedEngine(t, sys, perNode), n, true)
	})
}

// checkServedCluster serves live for 24 admitted rounds of three
// submissions each, then checks the result against a sequential replay
// and the frame count against Replay, which is core.Drive, over fresh.
func checkServedCluster[S core.State](t *testing.T, live, fresh clusterEngine[S], seq core.Engine[S], n int, weighted bool) {
	t.Helper()
	const rounds, per = 24, 3
	frames := func(e clusterEngine[S]) uint64 {
		st := e.Stats().Transport
		return st.FramesSent + st.FramesRecv
	}
	before := frames(live)
	cfg, journal := journaled(t, Config{N: n, Weighted: weighted, Seed: 17, TraceEvery: 4})
	srv, err := New[S](live, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(3)
	for round := 0; round < rounds; round++ {
		// One group per round: the submissions made while the loop is
		// held in Do form one group, which the loop admits as soon as Do
		// returns, and the ticket of the last resolves only after that
		// round.
		var tk Ticket
		var submitErr error
		srv.Do(func() {
			for i := 0; i < per && submitErr == nil; i++ {
				op := Op{Node: r.Intn(n), Kind: OpArrive, Count: 2}
				switch {
				case weighted && i == per-1:
					op = Op{Node: op.Node, Kind: OpCompleteWeighted}
				case weighted:
					op = Op{Node: op.Node, Kind: OpArriveWeighted, Weight: 0.1 + 0.9*r.Float64()}
				case i == per-1:
					op.Kind, op.Count = OpComplete, 1
				}
				tk, submitErr = srv.Submit(op)
			}
		})
		if submitErr != nil {
			t.Fatal(submitErr)
		}
		if _, err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	res, err := srv.Stop()
	if err != nil {
		t.Fatal(err)
	}
	served := frames(live) - before
	j := journal(res)
	if res.Rounds != rounds || len(j.Entries) != rounds {
		t.Fatalf("served %d rounds with %d journal entries, want %d admitted rounds", res.Rounds, len(j.Entries), rounds)
	}

	replayed, err := Replay[S](j, seq)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, replayed) {
		t.Fatalf("sequential replay diverged:\nlive   %+v\nreplay %+v", res, replayed)
	}

	before = frames(fresh)
	// A uniform server gathers the state once in New, to seed the task
	// total its Batcher checks arrivals against; count that gather on
	// the core.Drive side too.
	if !weighted {
		if _, err := fresh.State(); err != nil {
			t.Fatal(err)
		}
	}
	driven, err := Replay[S](j, fresh)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, driven) {
		t.Fatalf("core.Drive over a fresh cluster diverged:\nlive  %+v\ndrive %+v", res, driven)
	}
	if drove := frames(fresh) - before; served != drove {
		t.Fatalf("served cluster: %d frames over %d admitted rounds (%.1f a round); core.Drive: %d (%.1f a round)",
			served, rounds, float64(served)/rounds, drove, float64(drove)/rounds)
	}
}
