package shard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/rng"
	"repro/internal/task"
	"repro/internal/transport"
	"repro/internal/workload"
)

// frameScan follows the frame boundaries ([u32 LE len][u8 kind]
// payload) of one direction of a transport stream, however the buffered
// reads and writes split it.
type frameScan struct {
	hdr  []byte // header bytes of the next frame seen so far
	left int    // payload bytes of the current frame still to come
}

// scan walks p and returns the offset in p at which the first frame
// header for which stop holds begins, or −1. A header split across calls
// counts as beginning at 0.
func (f *frameScan) scan(p []byte, stop func(transport.Kind) bool) int {
	for off := 0; off < len(p); {
		if f.left > 0 {
			n := min(f.left, len(p)-off)
			f.left -= n
			off += n
			continue
		}
		start := off
		if len(f.hdr) > 0 {
			start = 0
		}
		for len(f.hdr) < 5 && off < len(p) {
			f.hdr = append(f.hdr, p[off])
			off++
		}
		if len(f.hdr) < 5 {
			return -1
		}
		kind := transport.Kind(f.hdr[4])
		f.left = int(binary.LittleEndian.Uint32(f.hdr[:4]))
		f.hdr = f.hdr[:0]
		if stop(kind) {
			return start
		}
	}
	return -1
}

// faultPipe is the coordinator's end of one worker's pipe. It closes
// itself when the frame of the given kind of the given round (counted
// by the round frames the coordinator writes) is about to cross, in
// either direction: a write fails, a read delivers the bytes before the
// frame and then fails. Only the coordinator's goroutine reads and
// writes it.
type faultPipe struct {
	net.Conn
	kind  transport.Kind
	round int

	rounds  int
	out, in frameScan
	tripped bool
}

func (f *faultPipe) hit(k transport.Kind) bool { return k == f.kind && f.rounds == f.round }

func (f *faultPipe) Write(p []byte) (int, error) {
	if f.tripped {
		return 0, io.ErrClosedPipe
	}
	at := f.out.scan(p, func(k transport.Kind) bool {
		if k == transport.KindRound {
			f.rounds++
		}
		return f.hit(k)
	})
	if at < 0 {
		return f.Conn.Write(p)
	}
	f.tripped = true
	n, _ := f.Conn.Write(p[:at])
	f.Conn.Close()
	return n, io.ErrClosedPipe
}

func (f *faultPipe) Read(p []byte) (int, error) {
	if f.tripped {
		return 0, io.ErrClosedPipe
	}
	n, err := f.Conn.Read(p)
	if at := f.in.scan(p[:n], f.hit); at >= 0 {
		f.tripped = true
		f.Conn.Close()
		if at == 0 {
			return 0, io.ErrClosedPipe
		}
		return at, nil
	}
	return n, err
}

// TestClusterBarrierErrorsName breaks worker s's pipe at every frame of
// a round in turn, and at every frame of the exchanges outside a round
// (events, state, checkpoint, state load) right after that round, at
// P = 2 for both models: the run must end with an error that names the
// worker, the phase and, for a round's frames, the round, and Close must
// then return — no hang on a worker still blocked writing.
func TestClusterBarrierErrorsName(t *testing.T) {
	const round = 3
	g, err := graph.Torus(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	speeds, err := machine.TwoClass(g.N(), 0.25, 2)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(g, speeds, core.WithLambda2(0.5))
	if err != nil {
		t.Fatal(err)
	}
	counts, err := workload.AllOnOne(g.N(), 40*int64(g.N()), 0)
	if err != nil {
		t.Fatal(err)
	}
	weights := make([]task.Weights, g.N())
	for i, c := range counts {
		for k := int64(0); k < c; k++ {
			weights[i] = append(weights[i], 0.5+float64(k%3)/4)
		}
	}
	// A batch with events on both workers' ranges.
	n := g.N()
	uniformBatch := &core.EventBatch{Arrivals: make([]int64, n), Departures: make([]int64, n)}
	uniformBatch.Arrivals[0], uniformBatch.Departures[n-1] = 3, 1
	weightedBatch := &core.EventBatch{WeightArrivals: make([][]float64, n), WeightDepartures: make([]int64, n)}
	weightedBatch.WeightArrivals[n-1], weightedBatch.WeightDepartures[0] = []float64{0.75}, 2

	// cluster is the system under test, whichever its model: drive runs
	// the whole horizon, the rest run one exchange each.
	type cluster struct {
		cc    *clusterCore
		batch *core.EventBatch
		drive func(CheckpointConfig) error
		state func() error
	}
	// afterRound steps the cluster through the fault round, then runs the
	// exchange.
	afterRound := func(x func(cl cluster) error) func(cl cluster) error {
		return func(cl cluster) error {
			base := rng.New(9)
			for r := uint64(1); r <= round; r++ {
				if _, err := cl.cc.Step(r, base); err != nil {
					return err
				}
			}
			return x(cl)
		}
	}
	drive := func(cl cluster) error { return cl.drive(CheckpointConfig{}) }
	events := afterRound(func(cl cluster) error { _, err := cl.cc.ApplyEvents(cl.batch); return err })
	state := afterRound(func(cl cluster) error { return cl.state() })
	checkpoint := func(cl cluster) error {
		return cl.drive(CheckpointConfig{Path: filepath.Join(t.TempDir(), "run.ckpt"), Every: round})
	}
	// A weighted batch that may cross the recompute threshold takes the
	// materialized path: state gather, then state load.
	stateLoad := afterRound(func(cl cluster) error {
		cl.cc.sinceRecompute = int64(core.WeightRecomputeEvery) - 1
		_, err := cl.cc.ApplyEvents(cl.batch)
		return err
	})
	phases := []struct {
		kind     transport.Kind
		frame    string // the subtest's name for the frame
		name     string // the phase the error names
		inRound  bool
		weighted bool // the exchange exists only for the weighted model
		run      func(cl cluster) error
	}{
		{transport.KindRound, "round-announce", phaseRound, true, false, drive},
		{transport.KindBoundaryLoads, "boundary-loads", phaseBoundary, true, false, drive},
		{transport.KindHaloLoads, "halo-loads", phaseHalo, true, false, drive},
		{transport.KindFlows, "flows", phaseFlows, true, false, drive},
		{transport.KindGrant, "grant", phaseGrant, true, false, drive},
		{transport.KindStepDone, "step-done", phaseStepDone, true, false, drive},
		{transport.KindStats, "stats", phaseStats, true, false, drive},
		{transport.KindEvents, "events", phaseEvents, false, false, events},
		{transport.KindEventsReport, "events-report", phaseEvents, false, false, events},
		{transport.KindStateReq, "state-request", phaseState, false, false, state},
		{transport.KindState, "state", phaseState, false, false, state},
		{transport.KindCheckpoint, "checkpoint", phaseCheckpoint, false, false, checkpoint},
		{transport.KindCheckpointAck, "checkpoint-ack", phaseCheckpoint, false, false, checkpoint},
		{transport.KindStateLoad, "state-load", phaseStateLoad, false, true, stateLoad},
		{transport.KindEventsDone, "events-done", phaseStateLoad, false, true, stateLoad},
	}
	for _, model := range []string{"uniform", "weighted"} {
		for _, ph := range phases {
			if ph.weighted && model != "weighted" {
				continue
			}
			for s := 0; s < 2; s++ {
				t.Run(fmt.Sprintf("%s/%s/worker=%d", model, ph.frame, s), func(t *testing.T) {
					rws, closers, wait := localWorkers(2)
					rws[s] = &faultPipe{Conn: rws[s].(net.Conn), kind: ph.kind, round: round}
					var cl cluster
					opts := core.RunOpts{MaxRounds: 2 * round, Seed: 9}
					if model == "uniform" {
						uc, err := NewUniformCluster(sys, core.Algorithm1{}, counts, rws, Contiguous)
						if err != nil {
							t.Fatal(err)
						}
						cl = cluster{uc.clusterCore, uniformBatch,
							func(ck CheckpointConfig) error { _, err := uc.Drive(opts, ck, nil); return err },
							func() error { _, err := uc.State(); return err }}
					} else {
						wc, err := NewWeightedCluster(sys, core.Algorithm2{}, weights, rws, Contiguous)
						if err != nil {
							t.Fatal(err)
						}
						cl = cluster{wc.clusterCore, weightedBatch,
							func(ck CheckpointConfig) error { _, err := wc.Drive(opts, ck, nil); return err },
							func() error { _, err := wc.State(); return err }}
					}
					c := cl.cc
					c.closers, c.wait = closers, wait
					err := within(t, "the exchange", func() error { return ph.run(cl) })
					if err == nil {
						t.Fatal("the exchange succeeded through a broken pipe")
					}
					want := fmt.Sprintf("shard: worker %d, %s: ", s, ph.name)
					if ph.inRound {
						want = fmt.Sprintf("shard: worker %d, %s, round %d: ", s, ph.name, round)
					}
					if !strings.Contains(err.Error(), want) {
						t.Fatalf("error %q does not name %q", err, want)
					}
					if _, err := c.Step(round+1, rng.New(9)); !errors.Is(err, errBroken) {
						t.Fatalf("a round after the failed exchange returned %v, want %v", err, errBroken)
					}
					within(t, "Close", c.Close)
				})
			}
		}
	}
}

// within runs f and fails the test if it has not returned after a
// generous bound.
func within(t *testing.T, what string, f func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second):
		t.Fatalf("%s hung", what)
		return nil
	}
}
