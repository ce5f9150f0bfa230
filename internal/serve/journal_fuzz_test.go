package serve

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/spectral"
	"repro/internal/task"
)

// seedJournals are the fuzz targets' hand-made journals: one of each
// task model, and one that arrives 2⁶² tasks at a lone node in each of
// two rounds, which would wrap its count.
func seedJournals() []*Journal {
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
	return []*Journal{uniform, weighted, overflow}
}

// FuzzReadJournal feeds mutated JSONL journals to ReadJournal (and so
// to parseSegment, which ReadJournalSegments shares). It is seeded with
// each seed journal in both header shapes: as a sink writes it, with
// rounds 0, and as earlier builds wrote it once at shutdown, with the
// round count in the header. Whatever the bytes, the reader must
// return a journal or an error, never panic; a journal it accepts,
// written again through a sink, must read back; and one with at most
// 64 nodes and 64 rounds must replay on a seq engine to a result or an
// error, never a panic.
func FuzzReadJournal(f *testing.F) {
	for _, j := range seedJournals() {
		data, err := os.ReadFile(writeJournal(f, j, 0))
		if err != nil {
			f.Fatal(err)
		}
		old := bytes.Replace(data, []byte(`"rounds":0,`), fmt.Appendf(nil, `"rounds":%d,`, j.Rounds), 1)
		for _, seed := range [][]byte{data, old} {
			if _, err := ReadJournal(bytes.NewReader(seed)); err != nil {
				f.Fatalf("seed journal rejected: %v\n%s", err, seed)
			}
			f.Add(seed)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		j, err := ReadJournal(bytes.NewReader(data))
		if err != nil {
			return
		}
		if _, err := ReadJournalSegments(writeJournal(t, j, 0)); err != nil {
			t.Fatalf("accepted journal does not read back after writing it through a sink: %v", err)
		}
		replayAccepted(t, j)
	})
}

// FuzzReadJournalSegments walks mutated segment chains: the input,
// split at NUL bytes (which JSON text cannot hold) into at most four
// parts, becomes segment files 0, 1, … of one journal path under
// t.TempDir(), and ReadJournalSegments reads the chain from there. It
// is seeded with rotated chains a sink wrote for the seed journals,
// one entry a segment. Whatever the files hold, the walk must return a
// journal or an error, never panic. A chain it accepts must end in a
// result footer that sets the round count, pass the single-file rules
// (validate), and replay like an accepted single file (replayAccepted).
func FuzzReadJournalSegments(f *testing.F) {
	for _, j := range seedJournals() {
		path := writeJournal(f, j, 1)
		var chain [][]byte
		for k := 0; ; k++ {
			seg, err := os.ReadFile(segmentName(path, k))
			if os.IsNotExist(err) {
				break
			}
			if err != nil {
				f.Fatal(err)
			}
			chain = append(chain, seg)
		}
		if len(chain) != len(j.Entries)+1 {
			f.Fatalf("seed chain has %d segments for %d entries", len(chain), len(j.Entries))
		}
		f.Add(bytes.Join(chain, []byte{0}))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "run.jsonl")
		for k, seg := range bytes.SplitN(data, []byte{0}, 4) {
			if err := os.WriteFile(segmentName(path, k), seg, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		j, err := ReadJournalSegments(path)
		if err != nil {
			return
		}
		if j.Result == nil || j.Rounds != j.Result.Rounds {
			t.Fatalf("accepted chain records %d rounds, footer %+v", j.Rounds, j.Result)
		}
		if err := j.validate(); err != nil {
			t.Fatalf("accepted chain breaks a single-file rule: %v", err)
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
