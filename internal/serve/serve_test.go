package serve

import (
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/rng"
	"repro/internal/task"
	"repro/internal/workload"
)

func testSystem(t testing.TB, n int) *core.System {
	t.Helper()
	g, err := graph.Ring(n)
	if err != nil {
		t.Fatal(err)
	}
	speeds, err := machine.TwoClass(n, 0.25, 2)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(g, speeds)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func uniformEngine(t testing.TB, sys *core.System, counts []int64) core.Engine[*core.UniformState] {
	t.Helper()
	st, err := core.NewUniformState(sys, counts)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.SeqUniformEngine(st, core.Algorithm1{})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func weightedEngine(t testing.TB, sys *core.System, perNode []task.Weights) core.Engine[*core.WeightedState] {
	t.Helper()
	st, err := core.NewWeightedState(sys, perNode)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.SeqWeightedEngine(st, core.Algorithm2{})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func testWeights(t testing.TB, sys *core.System, perNodeCount int) []task.Weights {
	t.Helper()
	ws, err := task.RandomWeights(perNodeCount*len(sys.Speeds()), 0.1, 1, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	perNode, err := workload.WeightedProportional(sys.Speeds(), ws)
	if err != nil {
		t.Fatal(err)
	}
	return perNode
}

// --- batcher unit tests -------------------------------------------------

// TestBatcherFirstSubmitWakes pins the wake policy: the submission
// that opens a group signals Ready at once, with no timer and no size
// trigger in between, and later submissions join the pending group
// without another wake until the loop takes it.
func TestBatcherFirstSubmitWakes(t *testing.T) {
	b, err := NewBatcher(8, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	ready := func() bool {
		select {
		case <-b.Ready():
			return true
		default:
			return false
		}
	}
	if ready() {
		t.Fatal("ready before any submission")
	}
	if _, err := b.Submit(Op{Kind: OpArrive, Node: 0}); err != nil {
		t.Fatal(err)
	}
	if !ready() {
		t.Fatal("the group's first submission did not signal Ready")
	}
	for _, op := range []Op{{Kind: OpArrive, Node: 0, Count: 2}, {Kind: OpArrive, Node: 3}} {
		if _, err := b.Submit(op); err != nil {
			t.Fatal(err)
		}
	}
	if ready() {
		t.Fatal("a submission joining the pending group woke the loop again")
	}
	g := b.Take()
	if g == nil || g.subs != 3 {
		t.Fatalf("took group %+v", g)
	}
	if got := g.pb.batch.Arrivals[0]; got != 3 {
		t.Fatalf("node 0 arrivals %d, want 3 (1 + count 2)", got)
	}
	// Once taken, the next submission opens a fresh group and wakes the
	// loop again.
	if _, err := b.Submit(Op{Kind: OpArrive, Node: 5}); err != nil {
		t.Fatal(err)
	}
	if !ready() {
		t.Fatal("the second group's first submission did not signal Ready")
	}
	g2 := b.Take()
	if g2 == nil || g2.subs != 1 || g2 == g {
		t.Fatalf("second take %+v", g2)
	}
}

func TestBatcherValidation(t *testing.T) {
	b, _ := NewBatcher(4, false, nil)
	cases := []Op{
		{Kind: OpArrive, Node: -1},
		{Kind: OpArrive, Node: 4},
		{Kind: OpArrive, Node: 0, Count: -2},
		{Kind: OpArriveWeighted, Node: 0, Weight: 0.5}, // weighted op, uniform server
	}
	for _, op := range cases {
		if _, err := b.Submit(op); err == nil {
			t.Errorf("op %+v accepted", op)
		}
	}
	wb, _ := NewBatcher(4, true, nil)
	for _, op := range []Op{
		{Kind: OpArrive, Node: 0},                    // uniform op, weighted server
		{Kind: OpArriveWeighted, Node: 0, Weight: 0}, // weight outside (0,1]
		{Kind: OpArriveWeighted, Node: 0, Weight: 1.5},
	} {
		if _, err := wb.Submit(op); err == nil {
			t.Errorf("op %+v accepted", op)
		}
	}
	b.CloseSubmit()
	if _, err := b.Submit(Op{Kind: OpArrive, Node: 0}); err != ErrClosed {
		t.Errorf("closed submit: %v", err)
	}
}

// TestBatcherCloseSubmitDrains pins the shutdown edge: after
// CloseSubmit new submissions are refused, while the group already
// pending is still handed to the final take and its tickets resolve
// (submissions in flight are never dropped); the drained batcher then
// yields nothing.
func TestBatcherCloseSubmitDrains(t *testing.T) {
	b, err := NewBatcher(4, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	tk, err := b.Submit(Op{Kind: OpArrive, Node: 1})
	if err != nil {
		t.Fatal(err)
	}
	b.CloseSubmit()
	if _, err := b.Submit(Op{Kind: OpArrive, Node: 2}); err != ErrClosed {
		t.Fatalf("submit after CloseSubmit: %v", err)
	}
	g := b.Take()
	if g == nil || g.subs != 1 {
		t.Fatalf("final take returned %+v", g)
	}
	g.complete(3, nil)
	b.Recycle(g.pb)
	round, err := tk.Wait()
	if err != nil || round != 3 {
		t.Fatalf("ticket resolved (%d, %v), want (3, nil)", round, err)
	}
	if g2 := b.Take(); g2 != nil {
		t.Fatalf("second take returned %+v", g2)
	}
}

// TestBatcherSubmitRacesCloseSubmit hammers Submit from several
// goroutines while CloseSubmit lands mid-stream. Every submission must
// either be rejected with ErrClosed or end up in exactly one taken
// group; every accepted ticket resolves exactly once (complete panics
// on a double close, so finishing the drain loop is the
// no-double-complete check); the drained batcher yields no further
// groups. Run with -race.
func TestBatcherSubmitRacesCloseSubmit(t *testing.T) {
	for iter := 0; iter < 10; iter++ {
		b, err := NewBatcher(32, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		const workers, per = 8, 50
		var accepted, rejected atomic.Int64
		tickets := make(chan Ticket, workers*per)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < per; i++ {
					tk, err := b.Submit(Op{Kind: OpArrive, Node: (w + i) % 32})
					switch err {
					case nil:
						accepted.Add(1)
						tickets <- tk
					case ErrClosed:
						rejected.Add(1)
					default:
						t.Errorf("submit: %v", err)
						return
					}
				}
			}(w)
		}
		go func() {
			time.Sleep(50 * time.Microsecond)
			b.CloseSubmit()
		}()
		var submitDone atomic.Bool
		go func() { wg.Wait(); submitDone.Store(true) }()

		var applied int64
		var round uint64
		for {
			// Order matters: once submitDone is observed true no new
			// group can appear, so a nil Take after that means drained.
			done := submitDone.Load()
			if g := b.Take(); g != nil {
				round++
				applied += int64(g.subs)
				g.complete(round, nil)
				b.Recycle(g.pb)
				continue
			}
			if done {
				break
			}
			select {
			case <-b.Ready():
			case <-time.After(time.Millisecond):
			}
		}
		wg.Wait()
		close(tickets)
		var waited int64
		for tk := range tickets {
			r, err := tk.Wait()
			if err != nil {
				t.Fatalf("accepted ticket failed: %v", err)
			}
			if r == 0 || r > round {
				t.Fatalf("ticket admitted in round %d of %d", r, round)
			}
			waited++
		}
		if waited != accepted.Load() {
			t.Fatalf("waited on %d tickets, accepted %d", waited, accepted.Load())
		}
		if applied != accepted.Load() {
			t.Fatalf("groups carried %d submissions, accepted %d (rejected %d)",
				applied, accepted.Load(), rejected.Load())
		}
		if g := b.Take(); g != nil {
			t.Fatalf("drained batcher returned group %+v", g)
		}
	}
}

func TestPendingBatchRecycleClears(t *testing.T) {
	pb := newPendingBatch(6)
	pb.add(Op{Kind: OpArrive, Node: 2, Count: 3})
	pb.add(Op{Kind: OpComplete, Node: 4, Count: 1})
	pb.reset()
	for i := 0; i < 6; i++ {
		if pb.batch.Arrivals[i] != 0 || pb.batch.Departures[i] != 0 {
			t.Fatalf("node %d not cleared", i)
		}
	}
	if len(pb.tA) != 0 || len(pb.tD) != 0 {
		t.Fatal("touched lists not truncated")
	}
}

// --- server round loop --------------------------------------------------

func TestServerAdmitsAndSteps(t *testing.T) {
	sys := testSystem(t, 16)
	counts := make([]int64, 16)
	counts[0] = 64
	srv, err := New[*core.UniformState](uniformEngine(t, sys, counts), Config{
		N: 16, Seed: 3, TraceEvery: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var tickets []Ticket
	for i := 0; i < 10; i++ {
		tk, err := srv.Submit(Op{Kind: OpArrive, Node: i})
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	for i := range tickets {
		round, err := tickets[i].Wait()
		if err != nil {
			t.Fatal(err)
		}
		if round == 0 {
			t.Fatal("admitted in round 0")
		}
	}
	res, err := srv.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Rounds < 1 {
		t.Fatalf("result %+v", res)
	}
	if res.Ledger.Arrived != 10 {
		t.Fatalf("ledger %+v, want 10 arrivals", res.Ledger)
	}
	st := srv.Stats()
	if st.Submissions != 10 || st.Batches == 0 || st.Rounds != uint64(res.Rounds) {
		t.Fatalf("stats %+v", st)
	}
	// Stop is idempotent and stable.
	res2, _ := srv.Stop()
	if !reflect.DeepEqual(res, res2) {
		t.Fatal("second Stop returned a different result")
	}
}

// TestServerShutdownFlushesInFlight pins that Stop drops no in-flight
// submission: a group pending when the stop request reaches the loop
// runs through one final round, and all its tickets resolve with that
// round. The group forms while the loop is held in a Do, whose function
// requests the stop before it returns.
func TestServerShutdownFlushesInFlight(t *testing.T) {
	sys := testSystem(t, 16)
	srv, err := New[*core.UniformState](uniformEngine(t, sys, make([]int64, 16)), Config{
		N: 16, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	const subs = 25
	var tickets [subs]Ticket
	var submitErr, stopErr error
	var res core.RunResult
	stopped := make(chan struct{})
	srv.Do(func() {
		for i := 0; i < subs && submitErr == nil; i++ {
			tickets[i], submitErr = srv.Submit(Op{Kind: OpArrive, Node: i % 16})
		}
		go func() {
			res, stopErr = srv.Stop()
			close(stopped)
		}()
		<-srv.stopc
	})
	<-stopped
	if submitErr != nil {
		t.Fatal(submitErr)
	}
	if stopErr != nil {
		t.Fatal(stopErr)
	}
	for i := range tickets {
		round, err := tickets[i].Wait()
		if err != nil {
			t.Fatalf("ticket %d dropped: %v", i, err)
		}
		if round != uint64(res.Rounds) {
			t.Fatalf("ticket %d admitted round %d, want final round %d", i, round, res.Rounds)
		}
	}
	if res.Ledger.Arrived != subs || res.Rounds != 1 {
		t.Fatalf("result %+v, want %d arrivals in one round", res, subs)
	}
	if st := srv.Stats(); st.FlushFinal != 1 || st.FlushIdle+st.FlushBusy != 0 {
		t.Fatalf("stats %+v: want exactly the shutdown flush", st)
	}
}

// TestServerDoSubmissionsFormOneRound pins work-conserving admission:
// every submission made while the loop is busy (here, held in a Do)
// joins one group, which the loop takes the moment it is free and
// admits in one round; a submission that finds the loop parked wakes
// it at once.
func TestServerDoSubmissionsFormOneRound(t *testing.T) {
	sys := testSystem(t, 16)
	srv, err := New[*core.UniformState](uniformEngine(t, sys, make([]int64, 16)), Config{N: 16, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	const subs = 10
	var tickets [subs]Ticket
	var submitErr error
	srv.Do(func() {
		for i := 0; i < subs && submitErr == nil; i++ {
			tickets[i], submitErr = srv.Submit(Op{Kind: OpArrive, Node: i})
		}
	})
	if submitErr != nil {
		t.Fatal(submitErr)
	}
	for i := range tickets {
		if round, err := tickets[i].Wait(); err != nil || round != 1 {
			t.Fatalf("ticket %d admitted (%d, %v), want round 1", i, round, err)
		}
	}
	if st := srv.Stats(); st.Batches != 1 || st.Rounds != 1 || st.FlushBusy != 1 || st.FlushIdle != 0 {
		t.Fatalf("stats %+v: want one busy flush and one round", st)
	}
	// The loop parks once it is free; retry until a submission finds it
	// parked (the first one almost always does).
	for attempt := 0; srv.Stats().FlushIdle == 0; attempt++ {
		if attempt == 100 {
			t.Fatal("no submission ever woke a parked loop")
		}
		time.Sleep(time.Millisecond)
		tk, err := srv.Submit(Op{Kind: OpArrive, Node: 0})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if st := srv.Stats(); st.FlushIdle+st.FlushBusy != st.Batches || st.Rounds != st.Batches {
		t.Fatalf("stats %+v: every admitted group is one flush and one round", st)
	}
}

func TestServerConcurrentSubmitters(t *testing.T) {
	sys := testSystem(t, 32)
	srv, err := New[*core.UniformState](uniformEngine(t, sys, make([]int64, 32)), Config{
		N: 32, Seed: 9, IdleRounds: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	const workers, per = 8, 100
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tk, err := srv.Submit(Op{Kind: OpArrive, Node: (w*per + i) % 32})
				if err != nil {
					errs <- err
					return
				}
				if _, err := tk.Wait(); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	res, err := srv.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if res.Ledger.Arrived != workers*per {
		t.Fatalf("ledger %+v, want %d arrivals", res.Ledger, workers*per)
	}
	if st := srv.Stats(); st.IdleRounds == 0 {
		t.Fatalf("stats %+v: idle rounds never ran", st)
	}
}

func TestServerDoQuiescent(t *testing.T) {
	sys := testSystem(t, 8)
	counts := []int64{8, 0, 0, 0, 0, 0, 0, 0}
	st, err := core.NewUniformState(sys, counts)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.SeqUniformEngine(st, core.Algorithm1{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New[*core.UniformState](eng, Config{N: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	srv.Do(func() {
		for i := 0; i < 8; i++ {
			total += st.Count(i)
		}
	})
	if total != 8 {
		t.Fatalf("Do saw total %d, want 8", total)
	}
	if _, err := srv.Stop(); err != nil {
		t.Fatal(err)
	}
	// After Stop, Do runs inline.
	ran := false
	srv.Do(func() { ran = true })
	if !ran {
		t.Fatal("post-stop Do did not run")
	}
}

// --- journal / replay parity -------------------------------------------

// journaled gives cfg an unrotated JournalSink in a fresh file under
// t.TempDir(). The returned function closes the sink on the live
// result, which the caller reads after Server.Stop, and reads the
// journal back from disk.
func journaled(t testing.TB, cfg Config) (Config, func(live core.RunResult) *Journal) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.jsonl")
	sink, err := NewJournalSink(path, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Sink = sink
	return cfg, func(live core.RunResult) *Journal {
		t.Helper()
		if err := sink.Close(&live); err != nil {
			t.Fatal(err)
		}
		j, err := ReadJournalSegments(path)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
}

// writeJournal writes j through a JournalSink, rotating at maxBytes (0:
// one file), into a fresh path under t.TempDir() and returns the path.
// Each entry anchors a rotation at its own round.
func writeJournal(t testing.TB, j *Journal, maxBytes int64) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.jsonl")
	sink, err := NewJournalSink(path, maxBytes, Config{
		N: j.N, Weighted: j.Weighted, Seed: j.Seed, TraceEvery: j.TraceEvery, Meta: j.Meta,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range j.Entries {
		if err := sink.Append(e, core.RunResult{Rounds: e.Round}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Close(j.Result); err != nil {
		t.Fatal(err)
	}
	return path
}

// driveServer pushes a randomized concurrent workload through srv and
// stops it, returning the live result.
func driveServer[S core.State](t *testing.T, srv *Server[S], n int, weighted bool, seed uint64) core.RunResult {
	t.Helper()
	const workers, per = 6, 80
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rng.New(seed + uint64(w))
			for i := 0; i < per; i++ {
				op := Op{Node: r.Intn(n)}
				switch {
				case weighted && i%5 == 4:
					op.Kind = OpCompleteWeighted
				case weighted:
					op.Kind = OpArriveWeighted
					op.Weight = 0.1 + 0.9*r.Float64()
				case i%5 == 4:
					op.Kind = OpComplete
				default:
					op.Kind = OpArrive
					op.Count = int64(1 + r.Intn(3))
				}
				tk, err := srv.Submit(op)
				if err != nil {
					errs <- err
					return
				}
				if i%7 == 0 {
					if _, err := tk.Wait(); err != nil {
						errs <- err
						return
					}
				}
				if i%11 == 0 {
					time.Sleep(200 * time.Microsecond)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	res, err := srv.Stop()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestUniformReplayParity(t *testing.T) {
	const n = 48
	sys := testSystem(t, n)
	counts, err := workload.Proportional(sys.Speeds(), 10*n)
	if err != nil {
		t.Fatal(err)
	}
	cfg, journal := journaled(t, Config{N: n, Seed: 42, TraceEvery: 3, IdleRounds: 3})
	srv, err := New[*core.UniformState](uniformEngine(t, sys, counts), cfg)
	if err != nil {
		t.Fatal(err)
	}
	live := driveServer(t, srv, n, false, 100)
	j := journal(live)
	if j.Rounds != live.Rounds || !reflect.DeepEqual(*j.Result, live) {
		t.Fatalf("journal footer differs from the live result: %d rounds, want %d", j.Rounds, live.Rounds)
	}
	replayed, err := Replay[*core.UniformState](j, uniformEngine(t, sys, counts))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(live, replayed) {
		t.Fatalf("replay diverged:\nlive   %+v\nreplay %+v", live, replayed)
	}
}

func TestWeightedReplayParity(t *testing.T) {
	const n = 32
	sys := testSystem(t, n)
	perNode := testWeights(t, sys, 12)
	cfg, journal := journaled(t, Config{N: n, Weighted: true, Seed: 7, TraceEvery: 2, IdleRounds: 2})
	srv, err := New[*core.WeightedState](weightedEngine(t, sys, perNode), cfg)
	if err != nil {
		t.Fatal(err)
	}
	live := driveServer(t, srv, n, true, 200)
	replayed, err := Replay[*core.WeightedState](journal(live), weightedEngine(t, sys, perNode))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(live, replayed) {
		t.Fatalf("weighted replay diverged:\nlive   %+v\nreplay %+v", live, replayed)
	}
}

// TestReplayVersion1Schedule: a weighted journal of version 1, written
// under the mid-round recompute schedule, replays bit for bit while its
// footer counts stay below the recompute threshold, where both
// schedules agree, and is refused with an error that names both
// schedules once they reach it. The threshold is lowered to the run's
// update count for the refusal.
func TestReplayVersion1Schedule(t *testing.T) {
	const n = 32
	sys := testSystem(t, n)
	perNode := testWeights(t, sys, 12)
	cfg, journal := journaled(t, Config{N: n, Weighted: true, Seed: 7, TraceEvery: 2, IdleRounds: 2})
	srv, err := New[*core.WeightedState](weightedEngine(t, sys, perNode), cfg)
	if err != nil {
		t.Fatal(err)
	}
	live := driveServer(t, srv, n, true, 200)
	path := writeJournal(t, journal(live), 0)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	v1 := strings.Replace(string(raw), `"header":{"version":2,`, `"header":{"version":1,`, 1)
	if v1 == string(raw) {
		t.Fatal("the journal header does not start with version 2")
	}
	if err := os.WriteFile(path, []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := ReadJournalSegments(path)
	if err != nil {
		t.Fatal(err)
	}
	updates := live.Moves + live.Ledger.ArrivedTasks + live.Ledger.DepartedTasks
	saved := core.WeightRecomputeEvery
	defer func() { core.WeightRecomputeEvery = saved }()

	core.WeightRecomputeEvery = int(updates) + 1
	replayed, err := Replay[*core.WeightedState](j, weightedEngine(t, sys, perNode))
	if err != nil {
		t.Fatalf("version 1 journal below the threshold: %v", err)
	}
	if !reflect.DeepEqual(live, replayed) {
		t.Fatalf("version 1 replay diverged:\nlive   %+v\nreplay %+v", live, replayed)
	}
	core.WeightRecomputeEvery = int(updates)
	_, err = Replay[*core.WeightedState](j, weightedEngine(t, sys, perNode))
	if err == nil || !strings.Contains(err.Error(), "mid-round recompute schedule") || !strings.Contains(err.Error(), "at round ends (version 2)") {
		t.Fatalf("version 1 journal at the threshold: %v, want the refusal naming both schedules", err)
	}
}

func TestStatsCSVShape(t *testing.T) {
	var s Stats
	header := s.CSVHeader()
	row := s.CSVRow()
	nh := len(splitComma(header))
	nr := len(splitComma(row))
	if nh != nr || nh == 0 {
		t.Fatalf("header has %d columns, row has %d", nh, nr)
	}
}

func splitComma(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == ',' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	return append(out, s[start:])
}

// cloneJournal deep-copies a journal so tests can corrupt one copy
// without disturbing the original's entries.
func cloneJournal(j *Journal) *Journal {
	cp := *j
	cp.Entries = make([]Entry, len(j.Entries))
	for i, e := range j.Entries {
		e.Arrivals = slices.Clone(e.Arrivals)
		e.Departures = slices.Clone(e.Departures)
		e.WeightArrivals = slices.Clone(e.WeightArrivals)
		e.WeightDepartures = slices.Clone(e.WeightDepartures)
		cp.Entries[i] = e
	}
	if j.Result != nil {
		r := *j.Result
		cp.Result = &r
	}
	return &cp
}

// TestJournalCorruptionFailsLoudly pins the failure modes a damaged
// journal must surface instead of silently replaying a different run:
// a removed middle entry still parses (rounds stay ascending) but the
// replay no longer reproduces the result footer, so Replay must error;
// structural damage — missing footer, out-of-order or beyond-horizon
// rounds, out-of-range nodes, negative counts — written through a sink
// must be rejected by ReadJournal.
func TestJournalCorruptionFailsLoudly(t *testing.T) {
	const n = 24
	sys := testSystem(t, n)
	counts := make([]int64, n)
	cfg, journal := journaled(t, Config{N: n, Seed: 21, TraceEvery: 2, IdleRounds: 2})
	srv, err := New[*core.UniformState](uniformEngine(t, sys, counts), cfg)
	if err != nil {
		t.Fatal(err)
	}
	j := journal(driveServer(t, srv, n, false, 400))
	if len(j.Entries) < 3 {
		t.Fatalf("need at least 3 journal entries to corrupt, got %d", len(j.Entries))
	}
	if _, err := Replay[*core.UniformState](j, uniformEngine(t, sys, counts)); err != nil {
		t.Fatalf("intact journal failed to replay: %v", err)
	}

	cut := cloneJournal(j)
	mid := len(cut.Entries) / 2
	cut.Entries = append(cut.Entries[:mid], cut.Entries[mid+1:]...)
	if _, err := Replay[*core.UniformState](cut, uniformEngine(t, sys, counts)); err == nil {
		t.Fatal("replay of a journal with a removed middle entry succeeded")
	} else if !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("removed middle entry: want a divergence error, got: %v", err)
	}

	reject := func(name string, mutate func(*Journal), want string) {
		t.Helper()
		cp := cloneJournal(j)
		mutate(cp)
		f, err := os.Open(writeJournal(t, cp, 0))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := ReadJournal(f); err == nil {
			t.Fatalf("%s: corrupt journal accepted", name)
		} else if !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: error %q does not mention %q", name, err, want)
		}
	}
	reject("truncated-no-footer",
		func(c *Journal) { c.Result = nil }, "no result footer")
	reject("out-of-order-rounds",
		func(c *Journal) { c.Entries[1].Round = c.Entries[0].Round }, "is not after")
	reject("beyond-horizon",
		func(c *Journal) { c.Entries[len(c.Entries)-1].Round = c.Rounds + 5 }, "beyond the recorded")
	reject("node-out-of-range", func(c *Journal) {
		for i := range c.Entries {
			if len(c.Entries[i].Arrivals) > 0 {
				c.Entries[i].Arrivals[0].Node = c.N
				return
			}
		}
		t.Fatal("no arrival entries to corrupt")
	}, "outside")
	reject("negative-count", func(c *Journal) {
		for i := range c.Entries {
			if len(c.Entries[i].Arrivals) > 0 {
				c.Entries[i].Arrivals[0].Count = -1
				return
			}
		}
		t.Fatal("no arrival entries to corrupt")
	}, "negative")
}

// A weighted shard-engine daemon must journal-replay bit-exactly on the
// sequential reference engine (and vice versa) — the serve-mode
// extension of the repo's cross-engine parity contract.
func TestShardServeReplayParityAcrossEngines(t *testing.T) {
	const n = 40
	sys := testSystem(t, n)
	perNode := testWeights(t, sys, 10)

	h, err := harness.BuildWeightedEngine(harness.EngineShard, sys, core.Algorithm2{}, perNode,
		harness.EngineOpts{Workers: 2, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	cfg, journal := journaled(t, Config{N: n, Weighted: true, Seed: 13, TraceEvery: 2, IdleRounds: 1})
	srv, err := New[*core.WeightedState](h.Engine, cfg)
	if err != nil {
		t.Fatal(err)
	}
	live := driveServer(t, srv, n, true, 300)
	j := journal(live)

	// Replay on the sequential engine.
	seqRes, err := Replay[*core.WeightedState](j, weightedEngine(t, sys, perNode))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(live, seqRes) {
		t.Fatalf("seq replay of shard serve run diverged:\nlive %+v\nseq  %+v", live, seqRes)
	}

	// Replay on a fresh shard engine with a different partitioning.
	h2, err := harness.BuildWeightedEngine(harness.EngineShard, sys, core.Algorithm2{}, perNode,
		harness.EngineOpts{Workers: 1, Shards: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	shardRes, err := Replay[*core.WeightedState](j, h2.Engine)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(live, shardRes) {
		t.Fatal("shard replay of shard serve run diverged")
	}
}
