package shard

import (
	"fmt"
	"io"
	"net"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/rng"
	"repro/internal/spectral"
	"repro/internal/task"
	"repro/internal/transport"
)

// Tests of the worker's window: its own rows and halo, in local ids, on
// a window System that must carry the instance-wide values the decide
// kernels read, and a resident state that must not grow with n.

// windowInstance is an instance on which a worker deciding with its own
// window's values instead of the instance-wide ones leaves the
// sequential trajectory; load starts on the nodes in hot.
type windowInstance struct {
	name string
	sys  *core.System
	hot  []int
}

// windowInstances returns the two such instances:
//   - a star, cut so that every shard but the first holds only leaves:
//     their one neighbor, the center, is a halo node of degree n−1 above
//     every own node's. A worker that took Δ from its own rows, or the
//     halo degree from nowhere, would drop the degree ratio deg(i)/d_ij
//     of every leaf's move to the center.
//   - a ring whose one fast node (s_max = 4) lies in the first shard,
//     away from every other shard's rows and halo. With Alpha 0 those
//     shards must still damp with α = 4·s_max = 16, not 4.
func windowInstances(t *testing.T) []windowInstance {
	t.Helper()
	star, err := graph.Star(9)
	if err != nil {
		t.Fatal(err)
	}
	starSys, err := core.NewSystem(star, machine.Uniform(9), core.WithLambda2(spectral.Lambda2Star(9)))
	if err != nil {
		t.Fatal(err)
	}
	ring, err := graph.Ring(12)
	if err != nil {
		t.Fatal(err)
	}
	speeds := machine.Uniform(12)
	speeds[1] = 4
	ringSys, err := core.NewSystem(ring, speeds, core.WithLambda2(spectral.Lambda2Ring(12)))
	if err != nil {
		t.Fatal(err)
	}
	return []windowInstance{
		{"star-halo-degree", starSys, []int{6, 7, 8}},
		{"ring-s-max", ringSys, []int{9, 10}},
	}
}

// windowOpts drives 40 rounds with a trace point every round, so the
// first round that differs shows.
var windowOpts = core.RunOpts{MaxRounds: 40, Seed: 3, TraceEvery: 1}

// sameResult fails t unless got is want, trace floats included.
func sameResult(t *testing.T, want, got core.RunResult) {
	t.Helper()
	if got.Moves != want.Moves || got.Rounds != want.Rounds || len(got.Trace) != len(want.Trace) {
		t.Fatalf("%d moves in %d rounds, %d trace points; want %d, %d, %d",
			got.Moves, got.Rounds, len(got.Trace), want.Moves, want.Rounds, len(want.Trace))
	}
	for k := range want.Trace {
		if got.Trace[k] != want.Trace[k] {
			t.Fatalf("trace[%d] = %+v, want %+v", k, got.Trace[k], want.Trace[k])
		}
	}
}

// TestClusterWindowUsesInstanceValues: on both window instances, both
// models at P ∈ {2, 3} match the sequential engine, and the hot shard's
// nodes do move tasks, so the values in question are read.
func TestClusterWindowUsesInstanceValues(t *testing.T) {
	for _, inst := range windowInstances(t) {
		n := inst.sys.N()
		for _, p := range []int{2, 3} {
			t.Run(fmt.Sprintf("%s/uniform/P=%d", inst.name, p), func(t *testing.T) {
				counts := make([]int64, n)
				for _, i := range inst.hot {
					counts[i] = 400
				}
				st, err := core.NewUniformState(inst.sys, counts)
				if err != nil {
					t.Fatal(err)
				}
				want, err := core.RunUniform(st, core.Algorithm1{}, nil, windowOpts)
				if err != nil {
					t.Fatal(err)
				}
				cl, err := StartLocalUniformCluster(inst.sys, core.Algorithm1{}, counts, Options{Shards: p})
				if err != nil {
					t.Fatal(err)
				}
				defer cl.Close()
				got, err := core.Drive(cl, nil, windowOpts)
				if err != nil {
					t.Fatal(err)
				}
				if want.Moves == 0 {
					t.Fatal("no task moved: the instance exercises nothing")
				}
				sameResult(t, want, got)
			})
			t.Run(fmt.Sprintf("%s/weighted/P=%d", inst.name, p), func(t *testing.T) {
				perNode := make([]task.Weights, n)
				stream := rng.New(17)
				for _, i := range inst.hot {
					ws, err := task.RandomWeights(300, 0.1, 1, stream)
					if err != nil {
						t.Fatal(err)
					}
					perNode[i] = ws
				}
				st, err := core.NewWeightedState(inst.sys, perNode)
				if err != nil {
					t.Fatal(err)
				}
				want, err := core.RunWeighted(st, core.Algorithm2{}, nil, windowOpts)
				if err != nil {
					t.Fatal(err)
				}
				cl, err := StartLocalWeightedCluster(inst.sys, core.Algorithm2{}, perNode, Options{Shards: p})
				if err != nil {
					t.Fatal(err)
				}
				defer cl.Close()
				got, err := core.Drive(cl, nil, windowOpts)
				if err != nil {
					t.Fatal(err)
				}
				if want.Moves == 0 {
					t.Fatal("no task moved: the instance exercises nothing")
				}
				sameResult(t, want, got)
			})
		}
	}
}

// TestConfigShipsOwnRows: a graph without a descriptor travels as the
// shard's own rows only — rebased offsets and the rows' own arcs — and
// a descriptor graph as no rows at all.
func TestConfigShipsOwnRows(t *testing.T) {
	cfgs := testConfigs(t)
	described, explicit := cfgs[0], cfgs[2]
	if described.Window.Offsets != nil || described.Window.Adj != nil {
		t.Fatalf("the ring's config ships rows: %+v", described.Window)
	}
	// Shard 1 of the 8-node star holds four leaves, one arc each.
	if w := explicit.Window; len(w.Offsets) != 5 || w.Offsets[0] != 0 || len(w.Adj) != 4 {
		t.Fatalf("shard 1 of the star ships %d offsets and %d arcs, want 5 from 0 and 4", len(w.Offsets), len(w.Adj))
	}
}

// recordedCluster starts an in-process cluster of p workers whose
// engines the test can inspect, one model or the other by which of
// counts and perNode is set.
func recordedCluster(t *testing.T, sys *core.System, counts []int64, perNode []task.Weights, p int) (io.Closer, []*worker) {
	t.Helper()
	part, err := clusterPartition(sys, p, "")
	if err != nil {
		t.Fatal(err)
	}
	rws := make([]io.ReadWriter, p)
	closers := make([]io.Closer, p)
	started := make(chan *worker, p)
	done := make(chan struct{}, p)
	for s := range rws {
		a, b := net.Pipe()
		rws[s], closers[s] = a, a
		go func() {
			defer func() { _ = b.Close(); done <- struct{}{} }()
			conn := transport.NewConn(b)
			w, err := newWorker(conn)
			if err != nil {
				conn.WriteError(err.Error())
				started <- nil
				return
			}
			defer w.close()
			started <- w
			_ = w.loop(WorkerOptions{})
		}()
	}
	wait := func() {
		for range p {
			<-done
		}
	}
	var cl *clusterCore
	if counts != nil {
		uc, err := newUniformCluster(sys, core.Algorithm1{}, counts, part, rws)
		if err != nil {
			t.Fatal(err)
		}
		cl = uc.clusterCore
	} else {
		wc, err := newWeightedCluster(sys, core.Algorithm2{}, perNode, part, rws)
		if err != nil {
			t.Fatal(err)
		}
		cl = wc.clusterCore
	}
	cl.closers, cl.wait = closers, wait
	workers := make([]*worker, p)
	for range p {
		w := <-started
		if w == nil {
			t.Fatal("a worker refused its config")
		}
		workers[w.own] = w
	}
	return cl, workers
}

// residentBytes is a worker's resident state: its engine's footprint
// plus its System's vectors.
func residentBytes(w *worker) int64 {
	if w.ue != nil {
		return w.ue.Footprint() + w.sys.Footprint()
	}
	return w.we.Footprint() + w.sys.Footprint()
}

// bytesPerWindowNode bounds a worker's resident state per own or halo
// node: c in c·(n/P + |halo|). It covers the degree-14 rows of the
// hypercube below, 4·14 bytes an own node, with both models' vectors.
const bytesPerWindowNode = 160

// TestWorkerStateIsWindowSized: every worker's resident state is at most
// c·(n/P + |halo|) bytes for one fixed c, for both models at P ∈ {2, 4},
// on a ring (n = 2¹⁶, a halo of 2) and on a hypercube (d = 14, whose
// contiguous shards have a halo of n/2 at P = 2). A worker that held
// anything indexed by all n nodes — the whole CSR, n-length counts,
// speeds or loads, a full partition — would exceed it on the ring.
func TestWorkerStateIsWindowSized(t *testing.T) {
	ring, err := graph.Ring(1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	cube, err := graph.Hypercube(14)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*graph.Graph{ring, cube} {
		n := g.N()
		speeds, err := machine.TwoClass(n, 0.25, 2)
		if err != nil {
			t.Fatal(err)
		}
		// λ₂ does not enter a worker; skip the eigensolve.
		sys, err := core.NewSystem(g, speeds, core.WithLambda2(1))
		if err != nil {
			t.Fatal(err)
		}
		counts := make([]int64, n)
		perNode := make([]task.Weights, n)
		for i := range counts {
			counts[i] = 4
			perNode[i] = task.Weights{0.5, 0.25}
		}
		for _, p := range []int{2, 4} {
			for _, model := range []string{"uniform", "weighted"} {
				t.Run(fmt.Sprintf("%s/P=%d/%s", g.Name(), p, model), func(t *testing.T) {
					var cl io.Closer
					var workers []*worker
					if model == "uniform" {
						cl, workers = recordedCluster(t, sys, counts, nil, p)
					} else {
						cl, workers = recordedCluster(t, sys, nil, perNode, p)
					}
					defer cl.Close()
					for _, w := range workers {
						window := int64(w.hi-w.lo) + int64(len(w.halo))
						got := residentBytes(w)
						t.Logf("worker %d: %d own + %d halo nodes, %d bytes (%.1f a node)", w.own, w.hi-w.lo, len(w.halo), got, float64(got)/float64(window))
						if limit := bytesPerWindowNode * window; got > limit {
							t.Errorf("worker %d holds %d bytes for %d own and %d halo nodes, above %d", w.own, got, w.hi-w.lo, len(w.halo), limit)
						}
					}
				})
			}
		}
	}
}
