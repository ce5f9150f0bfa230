package serve

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// TestJournalSinkRotationReplay pins the streaming-journal contract: a
// tiny byte bound forces many rotations, the reassembled chain replays
// bit-exactly against the final footer, and a missing middle segment
// fails the walk loudly instead of replaying a shorter run.
func TestJournalSinkRotationReplay(t *testing.T) {
	const n = 48
	sys := testSystem(t, n)
	counts, err := workload.Proportional(sys.Speeds(), 10*n)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.jsonl")
	cfg := Config{
		N: n, Seed: 42, TraceEvery: 3, IdleRounds: 3,
	}
	sink, err := NewJournalSink(path, 2048, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Sink = sink
	srv, err := New[*core.UniformState](uniformEngine(t, sys, counts), cfg)
	if err != nil {
		t.Fatal(err)
	}
	live := driveServer(t, srv, n, false, 100)
	if err := sink.Close(&live); err != nil {
		t.Fatal(err)
	}
	if sink.Segments() < 3 {
		t.Fatalf("byte bound never rotated: %d segments for %d entries", sink.Segments(), sink.Entries())
	}
	for k := 0; k < sink.Segments(); k++ {
		if _, err := os.Stat(segmentName(path, k)); err != nil {
			t.Fatalf("segment %d: %v", k, err)
		}
	}

	j, err := ReadJournalSegments(path)
	if err != nil {
		t.Fatal(err)
	}
	if j.Rounds != live.Rounds || len(j.Entries) != sink.Entries() {
		t.Fatalf("chain reassembled %d rounds / %d entries, want %d / %d",
			j.Rounds, len(j.Entries), live.Rounds, sink.Entries())
	}
	if j.Result == nil || !reflect.DeepEqual(*j.Result, live) {
		t.Fatal("chain footer differs from the live result")
	}
	replayed, err := Replay[*core.UniformState](j, uniformEngine(t, sys, counts))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(live, replayed) {
		t.Fatalf("replay from rotated chain diverged:\nlive   %+v\nreplay %+v", live, replayed)
	}

	// Segment 0 alone is not the run: the single-file reader must refuse
	// its rotation footer rather than replay a prefix.
	seg0, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadJournal(bytes.NewReader(seg0)); err == nil || !strings.Contains(err.Error(), "rotates to segment") {
		t.Fatalf("single-file read of a rotated segment: %v", err)
	}

	// Dropping the final footer must read as truncation, not as a clean
	// shorter run.
	last := segmentName(path, sink.Segments()-1)
	data, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimRight(data, "\n"), []byte("\n"))
	trunc := append(bytes.Join(lines[:len(lines)-1], []byte("\n")), '\n')
	if err := os.WriteFile(last, trunc, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadJournalSegments(path); err == nil || !strings.Contains(err.Error(), "no footer") {
		t.Fatalf("chain without a final footer: %v", err)
	}
	if err := os.WriteFile(last, data, 0o644); err != nil {
		t.Fatal(err)
	}

	// A missing middle segment breaks the chain loudly.
	if err := os.Remove(segmentName(path, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadJournalSegments(path); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("chain with a missing segment: %v", err)
	}
}

// TestJournalSinkSingleSegment pins that a sink with byte bound 0 never
// rotates and writes a file the plain single-file reader accepts (the
// one-segment chain, whose header records zero rounds).
func TestJournalSinkSingleSegment(t *testing.T) {
	const n = 16
	sys := testSystem(t, n)
	path := filepath.Join(t.TempDir(), "run.jsonl")
	cfg := Config{N: n, Seed: 9}
	sink, err := NewJournalSink(path, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Sink = sink
	srv, err := New[*core.UniformState](uniformEngine(t, sys, make([]int64, n)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	live := driveServer(t, srv, n, false, 300)
	if err := sink.Close(&live); err != nil {
		t.Fatal(err)
	}
	if sink.Segments() != 1 {
		t.Fatalf("unexpected rotation: %d segments", sink.Segments())
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	j, err := ReadJournal(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if j.Rounds != live.Rounds || !reflect.DeepEqual(*j.Result, live) {
		t.Fatalf("single-segment journal mismatch: rounds %d want %d", j.Rounds, live.Rounds)
	}
	if _, err := Replay[*core.UniformState](j, uniformEngine(t, sys, make([]int64, n))); err != nil {
		t.Fatal(err)
	}
}
