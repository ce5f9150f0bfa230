package core

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/rng"
	"repro/internal/task"
)

// TestDecideNodeFlatScratchReuse pins that DecideNodeFlat is
// insensitive to scratch reuse: a dirty shared scratch must produce the
// exact moves a fresh per-call scratch sized to the node's degree
// produces, with the identical stream consumption. This is the property
// that lets the shard engine evaluate millions of nodes through one
// per-worker scratch.
func TestDecideNodeFlatScratchReuse(t *testing.T) {
	g, err := graph.Torus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	speeds, err := machine.TwoClass(n, 0.25, 2)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(g, speeds, WithLambda2(0.5))
	if err != nil {
		t.Fatal(err)
	}
	weights, err := task.RandomWeights(40*n, 0.1, 1, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	perNode := make([]task.Weights, n)
	perNode[0] = weights
	st, err := NewWeightedState(sys, perNode)
	if err != nil {
		t.Fatal(err)
	}
	proto := Algorithm2{}
	base := rng.New(7)
	shared := NewWeightedScratch(sys.MaxDegree())
	for round := uint64(1); round <= 5; round++ {
		loads := st.Loads()
		roundStream := base.Split(round)
		var pending []TaskMove
		for i := 0; i < n; i++ {
			fresh := proto.DecideNodeFlat(sys, i, len(st.tasks[i]), st.nodeWeight[i], loads,
				roundStream.Split(uint64(i)), NewWeightedScratch(len(g.Neighbors(i))))
			reused := proto.DecideNodeFlat(sys, i, len(st.tasks[i]), st.nodeWeight[i], loads,
				roundStream.Split(uint64(i)), shared)
			if len(fresh) != len(reused) {
				t.Fatalf("round %d node %d: %d moves via fresh scratch, %d via reused", round, i, len(fresh), len(reused))
			}
			for k := range fresh {
				if fresh[k] != reused[k] {
					t.Fatalf("round %d node %d move %d: %+v, want %+v", round, i, k, reused[k], fresh[k])
				}
			}
			pending = append(pending, fresh...)
		}
		ApplyMoves(st, pending)
	}
}

// TestSortMovesByIdxDescLarge pins that the large-list path (sort.Slice)
// and the insertion-sort path order identically — indices are distinct,
// so both must produce strictly descending indices.
func TestSortMovesByIdxDescLarge(t *testing.T) {
	gen := rng.New(3)
	for _, size := range []int{0, 1, 5, 64, 65, 4096} {
		perm := gen.Perm(size)
		mvs := make([]TaskMove, size)
		for i, idx := range perm {
			mvs[i] = TaskMove{From: 0, Idx: idx, To: 1}
		}
		sortMovesByIdxDesc(mvs)
		for i := 1; i < len(mvs); i++ {
			if mvs[i].Idx >= mvs[i-1].Idx {
				t.Fatalf("size %d: not strictly descending at %d: %d, %d", size, i, mvs[i-1].Idx, mvs[i].Idx)
			}
		}
	}
}

// TestDecideNodeFlatBlockBoundaries pins the structure of the batched
// decision exactly at the block seams: task counts straddling
// DecideBlock (one partial block, one exact block, one block plus one
// task, multiple blocks plus a remainder) must emit moves with strictly
// descending in-range indices (the ApplyMoves contract, with no
// duplicates by strictness), destinations on eligible edges only, and
// the identical move list when replayed from the same stream through a
// dirty scratch.
func TestDecideNodeFlatBlockBoundaries(t *testing.T) {
	sys := testSystem(t, 4)
	proto := Algorithm2{}
	sc := NewWeightedScratch(sys.MaxDegree())
	for _, cnt := range []int{1, 63, DecideBlock - 1, DecideBlock, DecideBlock + 1, 2*DecideBlock + 1} {
		wi := 3 * float64(cnt)
		// Ring of 4: node 0's neighbors are 1 (gap wi > 1, eligible) and 3
		// (gap wi/2 > 1, eligible at half the flow); node 2 is not adjacent.
		loads := []float64{wi, 0, wi, wi / 2}
		ms := proto.DecideNodeFlat(sys, 0, cnt, wi, loads, rng.New(5).Split(0), sc)
		for k, mv := range ms {
			if mv.From != 0 {
				t.Fatalf("cnt=%d move %d: From=%d, want 0", cnt, k, mv.From)
			}
			if mv.Idx < 0 || mv.Idx >= cnt {
				t.Fatalf("cnt=%d move %d: Idx=%d out of [0,%d)", cnt, k, mv.Idx, cnt)
			}
			if k > 0 && ms[k].Idx >= ms[k-1].Idx {
				t.Fatalf("cnt=%d: indices not strictly descending at %d: %d then %d", cnt, k, ms[k-1].Idx, ms[k].Idx)
			}
			if mv.To != 1 && mv.To != 3 {
				t.Fatalf("cnt=%d move %d: To=%d is not an eligible neighbor", cnt, k, mv.To)
			}
		}
		if cnt >= DecideBlock-1 && len(ms) == 0 {
			t.Fatalf("cnt=%d: no movers from a heavily imbalanced node", cnt)
		}
		first := append([]TaskMove(nil), ms...)
		again := proto.DecideNodeFlat(sys, 0, cnt, wi, loads, rng.New(5).Split(0), sc)
		if len(again) != len(first) {
			t.Fatalf("cnt=%d: replay emitted %d moves, want %d", cnt, len(again), len(first))
		}
		for k := range first {
			if again[k] != first[k] {
				t.Fatalf("cnt=%d: replay diverged at move %d: %+v, want %+v", cnt, k, again[k], first[k])
			}
		}
	}
}

// TestDecideNodeFlatBTPEMatchesPerTaskDistribution is the
// aggregated-versus-per-task equivalence test in the BTPE regime: with
// enough tasks that every block's Binomial(4096, Σq) gate satisfies
// n·p ≥ 30, the per-destination mover counts of the batched decision
// must match the literal per-task process (uniform neighbor draw, then
// a Bernoulli(p_ij) coin) in mean per destination and in total
// variance. A bias in the BTPE envelope, the conditional splits or the
// Fisher–Yates selection shifts these moments by many sigma.
func TestDecideNodeFlatBTPEMatchesPerTaskDistribution(t *testing.T) {
	sys := testSystem(t, 4)
	proto := Algorithm2{}
	const cnt = 20000
	wi := 3.0 * cnt
	loads := []float64{wi, 0, wi, wi / 2}
	alpha := proto.effectiveAlpha(sys)
	nbs := sys.g.Neighbors(0)
	deg := len(nbs)
	qs := make([]float64, deg) // q_idx = P(one task moves to neighbor idx)
	sumQ := 0.0
	for idx, jj := range nbs {
		j := int(jj)
		if loads[0]-loads[j] <= 1/sys.speeds[j] {
			continue
		}
		qs[idx] = migrationProb(sys, 0, j, loads[0], loads[j], alpha, wi) / float64(deg)
		sumQ += qs[idx]
	}
	if np := DecideBlock * sumQ; np < 30 {
		t.Fatalf("block gate n·p = %.1f does not reach the BTPE regime", np)
	}
	const trials = 400
	toIdx := map[int]int{}
	for idx, jj := range nbs {
		toIdx[int(jj)] = idx
	}
	// Batched path: per-destination counts and total per trial.
	sc := NewWeightedScratch(sys.MaxDegree())
	batchStream := rng.New(1001)
	batchMean := make([]float64, deg)
	batchTotSum, batchTotSq := 0.0, 0.0
	for k := 0; k < trials; k++ {
		ms := proto.DecideNodeFlat(sys, 0, cnt, wi, loads, batchStream.Split(uint64(k)), sc)
		for _, mv := range ms {
			batchMean[toIdx[mv.To]]++
		}
		tot := float64(len(ms))
		batchTotSum += tot
		batchTotSq += tot * tot
	}
	// Literal per-task path: every task draws a neighbor and a coin.
	taskStream := rng.New(2002)
	taskMean := make([]float64, deg)
	taskTotSum, taskTotSq := 0.0, 0.0
	for k := 0; k < trials; k++ {
		s := taskStream.Split(uint64(k))
		tot := 0.0
		for i := 0; i < cnt; i++ {
			idx := s.Intn(deg)
			if p := qs[idx] * float64(deg); p > 0 && s.Bernoulli(p) {
				taskMean[idx]++
				tot++
			}
		}
		taskTotSum += tot
		taskTotSq += tot * tot
	}
	for idx := range qs {
		bm, tm := batchMean[idx]/trials, taskMean[idx]/trials
		// Each trial's count is Binomial(cnt, q); two independent sample
		// means differ by at most ~6·σ·√(2/trials) with overwhelming odds.
		sd := math.Sqrt(cnt * qs[idx] * (1 - qs[idx]))
		tol := 6 * sd * math.Sqrt(2.0/trials)
		if math.Abs(bm-tm) > tol {
			t.Errorf("destination %d: batched mean %.1f vs per-task %.1f (tol %.1f)", idx, bm, tm, tol)
		}
	}
	bMean, tMean := batchTotSum/trials, taskTotSum/trials
	bVar := batchTotSq/trials - bMean*bMean
	tVar := taskTotSq/trials - tMean*tMean
	wantVar := cnt * sumQ * (1 - sumQ)
	if math.Abs(bVar-wantVar)/wantVar > 0.3 || math.Abs(tVar-wantVar)/wantVar > 0.3 {
		t.Errorf("total-mover variances off: batched %.0f, per-task %.0f, want %.0f", bVar, tVar, wantVar)
	}
}
