package serve

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/spectral"
	"repro/internal/task"
)

// FuzzReadJournal feeds mutated JSONL journals, seeded with Write's
// output for both task models, to ReadJournal (and so to parseSegment,
// which ReadJournalSegments shares). Whatever the bytes, the reader
// must return a journal or an error, never panic; a journal it
// accepts, written again, must read back; and one with at most 64
// nodes and 64 rounds must replay on a seq engine to a result or an
// error, never a panic. The third seed arrives 2⁶² tasks at a lone node
// in each of two rounds, which would wrap its count.
func FuzzReadJournal(f *testing.F) {
	uniform := &Journal{
		N: 8, Seed: 3, TraceEvery: 2, Rounds: 5,
		Meta: map[string]string{"graph": "ring", "n": "8", "engine": "seq"},
		Entries: []Entry{
			{Round: 1, Arrivals: []CountEvent{{Node: 0, Count: 4}, {Node: 5, Count: 1}}},
			{Round: 3, Arrivals: []CountEvent{{Node: 2, Count: 2}}, Departures: []CountEvent{{Node: 2, Count: 7}}},
		},
		Result: &core.RunResult{
			Rounds: 5, Moves: 12,
			Trace: []core.TracePoint{
				{Round: 0, Psi0: 96.5, Psi1: 12.25, LDelta: 6},
				{Round: 2, Psi0: 40.125, LDelta: 3.5, Moves: 7},
				{Round: 5, Psi0: 8, LDelta: 1, Moves: 12},
			},
			Ledger: core.EventLedger{Batches: 2, Arrived: 7, Departed: 5},
		},
	}
	weighted := &Journal{
		N: 6, Weighted: true, Seed: 9, TraceEvery: 1, Rounds: 4,
		Meta: map[string]string{"model": "weighted", "engine": "cluster"},
		Entries: []Entry{
			{Round: 2, WeightArrivals: []WeightEvent{{Node: 1, Weights: []float64{0.25, 0.5}}, {Node: 4, Weights: []float64{1}}}},
			{Round: 4, WeightDepartures: []CountEvent{{Node: 4, Count: 2}}},
		},
		Result: &core.RunResult{
			Rounds: 4, Converged: true, Moves: 3,
			Trace: []core.TracePoint{{Round: 0, Psi0: 2.5, LDelta: 1.75}, {Round: 4, Psi0: 0.5, LDelta: 0.25, Moves: 3}},
			Ledger: core.EventLedger{
				Batches: 2, ArrivedTasks: 3, ArrivedWeight: 1.75, DepartedTasks: 2, DepartedWeight: 1.5,
			},
		},
	}
	overflow := &Journal{
		N: 1, Seed: 1, Rounds: 2,
		Entries: []Entry{
			{Round: 1, Arrivals: []CountEvent{{Node: 0, Count: 1 << 62}}},
			{Round: 2, Arrivals: []CountEvent{{Node: 0, Count: 1 << 62}}},
		},
		Result: &core.RunResult{Rounds: 2},
	}
	for _, j := range []*Journal{uniform, weighted, overflow} {
		var buf bytes.Buffer
		if err := j.Write(&buf); err != nil {
			f.Fatal(err)
		}
		if _, err := ReadJournal(bytes.NewReader(buf.Bytes())); err != nil {
			f.Fatalf("seed journal rejected: %v", err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		j, err := ReadJournal(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := j.Write(&buf); err != nil {
			t.Fatalf("writing an accepted journal: %v", err)
		}
		if _, err := ReadJournal(&buf); err != nil {
			t.Fatalf("accepted journal does not read back after Write: %v\n%s", err, buf.Bytes())
		}
		replayAccepted(t, j)
	})
}

// replayAccepted replays j, if it has at most 64 nodes and 64 rounds,
// on a seq engine over the path on j.N nodes from an empty start. Any
// connected graph serves: the property is that Replay returns, with a
// result or an error.
func replayAccepted(t *testing.T, j *Journal) {
	if j.N < 1 || j.N > 64 || j.Rounds > 64 {
		return
	}
	g, err := graph.Path(j.N)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(g, machine.Uniform(j.N), core.WithLambda2(spectral.Lambda2Path(j.N)))
	if err != nil {
		t.Fatal(err)
	}
	if j.Weighted {
		Replay[*core.WeightedState](j, weightedEngine(t, sys, make([]task.Weights, j.N)))
	} else {
		Replay[*core.UniformState](j, uniformEngine(t, sys, make([]int64, j.N)))
	}
}
