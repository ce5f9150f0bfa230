package serve

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// TestSubmitCannotWrapTaskCount runs, on seq servers of both models,
// submission sequences whose task counts would wrap an int64: two 2⁶²
// uniform arrivals at one node in separate rounds, the second of which
// Submit must refuse, and two 2⁶² departures of either model in one
// group, whose sum saturates and departs exactly the tasks present.
// After each sequence the daemon must still admit a valid submission,
// and its journal must replay to the live result.
func TestSubmitCannotWrapTaskCount(t *testing.T) {
	const n, big = 8, int64(1) << 62
	sys := testSystem(t, n)
	counts, err := workload.Proportional(sys.Speeds(), 10*n)
	if err != nil {
		t.Fatal(err)
	}
	perNode := testWeights(t, sys, 4)
	arrive := Op{Kind: OpArrive, Node: 0, Count: big}
	complete := Op{Kind: OpComplete, Node: 0, Count: big}
	completeW := Op{Kind: OpCompleteWeighted, Node: 0, Count: big}
	t.Run("uniform arrivals in two rounds", func(t *testing.T) {
		checkNoWrap(t, uniformEngine(t, sys, counts), uniformEngine(t, sys, counts), n, false,
			[][]Op{{arrive}}, []Op{arrive}, Op{Kind: OpArrive, Node: 1, Count: 3}, 0)
	})
	t.Run("uniform departures in one group", func(t *testing.T) {
		checkNoWrap(t, uniformEngine(t, sys, counts), uniformEngine(t, sys, counts), n, false,
			[][]Op{{complete, complete}}, nil, Op{Kind: OpArrive, Node: 0, Count: 3}, counts[0])
	})
	t.Run("weighted departures in one group", func(t *testing.T) {
		checkNoWrap(t, weightedEngine(t, sys, perNode), weightedEngine(t, sys, perNode), n, true,
			[][]Op{{completeW, completeW}}, nil, Op{Kind: OpArriveWeighted, Node: 0, Weight: 0.5}, int64(len(perNode[0])))
	})
}

// checkNoWrap serves live through groups, each submitted while the loop
// is held in Do and so admitted in one round, then submits each op of
// refused, which Submit must refuse, and next, which must be admitted.
// The ledger must record departed tasks departed, and the journal must
// replay on fresh to the live result.
func checkNoWrap[S core.State](t *testing.T, live, fresh core.Engine[S], n int, weighted bool,
	groups [][]Op, refused []Op, next Op, departed int64) {
	t.Helper()
	cfg, journal := journaled(t, Config{N: n, Weighted: weighted, Seed: 11, TraceEvery: 1})
	srv, err := New[S](live, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	for _, ops := range groups {
		var tk Ticket
		srv.Do(func() {
			for _, op := range ops {
				if tk, err = srv.Submit(op); err != nil {
					return
				}
			}
		})
		if err == nil {
			_, err = tk.Wait()
		}
		if err != nil {
			t.Fatalf("group %+v not admitted: %v", ops, err)
		}
	}
	for _, op := range refused {
		if _, err := srv.Submit(op); err == nil {
			t.Fatalf("submission %+v admitted", op)
		}
	}
	tk, err := srv.Submit(next)
	if err == nil {
		_, err = tk.Wait()
	}
	if err != nil {
		t.Fatalf("valid submission %+v not admitted after the sequence: %v", next, err)
	}
	res, err := srv.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if d := res.Ledger.Departed + res.Ledger.DepartedTasks; d != departed {
		t.Errorf("ledger records %d departed tasks, want the %d present: %+v", d, departed, res.Ledger)
	}
	replayed, err := Replay[S](journal(res), fresh)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, replayed) {
		t.Fatalf("replay diverged:\nlive   %+v\nreplay %+v", res, replayed)
	}
}
