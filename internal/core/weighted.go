package core

import (
	"math/bits"
	"slices"

	"repro/internal/rng"
)

// WeightedProtocol is one synchronous round of a protocol on a weighted
// state; it returns the number of migrated tasks.
type WeightedProtocol interface {
	Name() string
	Step(st *WeightedState, round uint64, base *rng.Stream) int
}

// Algorithm2 is the paper's protocol for weighted tasks (Section 4,
// p. 11). The crucial design decision (versus the baseline of [6]) is
// that the migration condition ℓᵢ − ℓⱼ > 1/sⱼ is independent of the
// moving task's own weight: over any edge either all of node i's tasks
// have an incentive to migrate or none do.
//
// The migration probability follows Definition 4.1, whose expected flow
// is f_ij = (ℓᵢ−ℓⱼ)/(α·d_ij·(1/sᵢ+1/sⱼ)): each task on i moves to its
// chosen neighbor j with probability
// p_ij = (deg(i)/d_ij)·(ℓᵢ−ℓⱼ)/(α·(1/sᵢ+1/sⱼ)·Wᵢ).
// (The listing on p. 11 prints the uniform-speed simplification
// (deg(i)/d_ij)·(Wᵢ−Wⱼ)/(2α·Wᵢ), which coincides when sᵢ = sⱼ = 1;
// Algorithm2Literal implements that exact listing.)
//
// Because p_ij does not depend on the task's weight, the tasks are
// exchangeable and the round can be batched exactly: the per-task
// categorical draws (neighbor × coin, stay) factor over any partition
// of the task positions, so the decision samples destination counts per
// fixed-size block of positions — one O(1)-expected Binomial gate per
// block, conditional binomial splits over the eligible edges, and a
// block-local Fisher–Yates to pick which positions move. See
// DecideNodeFlat for the emission-order guarantee this buys.
type Algorithm2 struct {
	// Alpha is the migration damping; zero means the default 4·s_max.
	Alpha float64
}

// WeightedFlatProtocol is a WeightedProtocol whose round factorizes
// into independent per-node decisions on the round-start snapshot, the
// weighted analogue of UniformNodeProtocol, and whose per-node decision
// runs against flat state — a task count, a cached node weight and the
// global load snapshot — without a *WeightedState, writing into
// caller-owned scratch. This is what Algorithm 2's exchangeability buys:
// because the migration probability is independent of the moving task's
// own weight, the decision needs only (cnt, Wᵢ, loads), never the
// per-task multiset, so an engine that stores weights in one contiguous
// pool (package shard) can evaluate it allocation-free. ApplyMoves is
// deterministic in the multiset of pending moves, so concurrent and
// sequential execution produce the same state.
type WeightedFlatProtocol interface {
	WeightedProtocol
	// DecideNodeFlat computes node i's outgoing migrations for one round
	// from flat inputs. The returned moves are sorted by task index
	// descending — the core.ApplyMoves application order — so committing
	// engines need not re-sort them. The returned slice aliases sc and
	// is valid until the next call with the same scratch.
	DecideNodeFlat(sys *System, i, cnt int, wi float64, loads []float64, nodeStream *rng.Stream, sc *WeightedScratch) []TaskMove
}

// DecideBlock is the task-position block size of the batched weighted
// decision: destination counts are drawn per block of DecideBlock
// consecutive round-start positions and the mover positions are chosen
// by a Fisher–Yates confined to the block. The block arrays (identity
// permutation, per-position destinations, mover bitmap) total ~25 KiB,
// so the selection runs in L1/L2 cache regardless of how many tasks the
// node holds.
const DecideBlock = 4096

// WeightedScratch is the reusable buffer set of DecideNodeFlat: the
// per-edge probability vector and counts (sized by degree), the
// block-local selection arrays (identity permutation and per-position
// destination, allocated lazily on the first loaded node), and the
// output moves. Buffers grow amortized and are retained across calls,
// so a decide loop that reuses one scratch per worker allocates nothing
// in steady state.
type WeightedScratch struct {
	probs  []float64
	counts []int
	moves  []TaskMove
	ident  []int16 // identity permutation of the largest block so far
	destOf []int32 // eligible-neighbor index per selected block position
}

// Footprint returns the scratch's buffer bytes.
func (sc *WeightedScratch) Footprint() int64 {
	return int64(cap(sc.probs))*8 + int64(cap(sc.counts))*8 + int64(cap(sc.moves))*24 +
		int64(cap(sc.ident))*2 + int64(cap(sc.destOf))*4
}

// NewWeightedScratch returns a scratch pre-sized for nodes of degree up
// to maxDeg (larger degrees grow the buffers on demand).
func NewWeightedScratch(maxDeg int) *WeightedScratch {
	return &WeightedScratch{
		probs:  make([]float64, maxDeg+1),
		counts: make([]int, maxDeg+1),
	}
}

var _ WeightedFlatProtocol = Algorithm2{}

// Name implements WeightedProtocol.
func (p Algorithm2) Name() string { return "algorithm2" }

func (p Algorithm2) effectiveAlpha(sys *System) float64 {
	if p.Alpha > 0 {
		return p.Alpha
	}
	return sys.DefaultAlpha()
}

// Step implements WeightedProtocol. It reuses one scratch across the
// node loop (append copies each node's moves out of it), which draws
// the identical stream values as a fresh scratch per node.
func (p Algorithm2) Step(st *WeightedState, round uint64, base *rng.Stream) int {
	n := st.sys.g.N()
	loads := st.Loads()
	roundStream := base.Split(round)
	sc := NewWeightedScratch(st.sys.maxDeg)
	var pending []TaskMove
	for i := 0; i < n; i++ {
		ms := p.DecideNodeFlat(st.sys, i, len(st.tasks[i]), st.nodeWeight[i], loads, roundStream.Split(uint64(i)), sc)
		pending = append(pending, ms...)
	}
	return ApplyMoves(st, pending)
}

// DecideNodeFlat implements WeightedFlatProtocol: node i's outgoing
// migrations for one round of Algorithm 2, an exact batched sampling of
// the per-task process against flat inputs — node i's task count, its
// cached total weight Wᵢ and the global round-start load snapshot —
// drawing into sc instead of allocating. Note the per-task weights
// never enter: the migration condition and probability depend only on
// loads and Wᵢ (the paper's key design decision), so the tasks are
// exchangeable and batching the per-task categorical draws is exact.
//
// The batching works per block of DecideBlock consecutive positions:
// the i.i.d. per-task draws factor over any partition of the positions,
// so each block's mover total is Binomial(blockLen, Σq), its
// per-neighbor split a conditional multinomial (sequential conditional
// binomials over the eligible edges, every draw O(1) expected via
// rng.Binomial), and its mover positions a uniform subset chosen by a
// Fisher–Yates confined to the block. Blocks are visited from the
// highest positions down and each block emits its moves in descending
// position order, so the returned moves are already sorted by Idx
// descending — the core.ApplyMoves application order — without any
// sort. Work is O(movers + activeBlocks) with all selection state in
// cache, independent of the node's task count.
func (p Algorithm2) DecideNodeFlat(sys *System, i, cnt int, wi float64, loads []float64, nodeStream *rng.Stream, sc *WeightedScratch) []TaskMove {
	if cnt == 0 {
		return nil
	}
	nbs := sys.g.Neighbors(i)
	deg := len(nbs)
	li := loads[i]
	if cap(sc.probs) < deg {
		sc.probs = make([]float64, deg)
		sc.counts = make([]int, deg)
	}
	// probs[idx] = P(a task targets neighbor idx AND passes its coin).
	// The eligible edges come from the branch-free bitmask that
	// Algorithm1.DecideNode builds too; a node of degree at most 64 with
	// none costs only its mask.
	probs := sc.probs[:deg]
	counts := sc.counts[:deg]
	mask := eligibleMaskByNode(li, loads, nbs[:min(deg, 64)], sys.invSpeed)
	if mask == 0 && deg <= 64 {
		return nil
	}
	// lastPos is the last eligible neighbor: it takes the block remainder.
	sumQ, lastPos := p.edgeProbs(sys, i, wi, loads, probs, mask)
	if lastPos < 0 {
		return nil
	}
	if sumQ > 1 {
		sumQ = 1 // Σ pij/deg ≤ 1 exactly; guard the final rounding ulp
	}
	if sc.ident == nil {
		sc.ident = make([]int16, 0, DecideBlock)
		sc.destOf = make([]int32, DecideBlock)
	}
	destOf := sc.destOf
	// Presize the move buffer to the expected mover count (E = cnt·ΣQ,
	// concentrated within O(√E)) before truncating: append-driven growth
	// would memmove the dead previous contents on every doubling, so
	// replace an undersized buffer with a fresh empty one instead,
	// monotone-doubling the cap so a run allocates O(log peak) times.
	// The estimate involves no random draws, so it is trajectory-neutral.
	if est := int(float64(cnt)*sumQ*1.125) + 64; cap(sc.moves) < est {
		sc.moves = make([]TaskMove, 0, max(est, 2*cap(sc.moves)))
	}
	out := sc.moves[:0]
	for base := (cnt - 1) / DecideBlock * DecideBlock; base >= 0; base -= DecideBlock {
		bsz := cnt - base
		if bsz > DecideBlock {
			bsz = DecideBlock
		}
		tb := nodeStream.Binomial(bsz, sumQ)
		if tb == 0 {
			continue
		}
		// Conditional multinomial split of the block's movers over the
		// eligible neighbors (probabilities q/Σq), with the same
		// conditional-probability clamp as rng.MultinomialInto; the last
		// eligible neighbor takes the remainder outright.
		remaining := tb
		rest := sumQ
		for idx := 0; idx < lastPos; idx++ {
			q := probs[idx]
			if q <= 0 {
				counts[idx] = 0
				continue
			}
			cp := 1.0
			if rest > q {
				cp = q / rest
			}
			c := nodeStream.Binomial(remaining, cp)
			counts[idx] = c
			remaining -= c
			rest -= q
		}
		counts[lastPos] = remaining
		// Choose which block positions move: the prefix of a partial
		// Fisher–Yates over [0, bsz) in random order, split into runs of
		// counts[idx] — a uniformly random ordered partition. Record each
		// mover's destination per position and mark it in the bitmap.
		// ident is kept the identity between blocks, extended once to the
		// largest block a scratch sees, and restored below in O(movers).
		for len(sc.ident) < bsz {
			sc.ident = append(sc.ident, int16(len(sc.ident)))
		}
		ident := sc.ident
		var bm [DecideBlock / 64]uint64
		t := 0
		for idx := 0; idx <= lastPos; idx++ {
			for c := counts[idx]; c > 0; c-- {
				r := t + nodeStream.Intn(bsz-t)
				ident[t], ident[r] = ident[r], ident[t]
				pos := int(ident[t])
				destOf[pos] = int32(idx)
				bm[pos>>6] |= 1 << (uint(pos) & 63)
				t++
			}
		}
		// Step k swapped cell k with a cell r >= k, so after t steps a
		// cell c >= t holds c or a value below t, and it lost c exactly
		// when c now sits in the prefix [0, t). Resetting the prefix and
		// the cells its values name therefore restores the identity.
		for s := 0; s < t; s++ {
			if v := ident[s]; int(v) >= t {
				ident[v] = v
			}
			ident[s] = int16(s)
		}
		// Emit the block's moves in descending position order by scanning
		// the bitmap from the top word down.
		for w := (bsz - 1) >> 6; w >= 0; w-- {
			word := bm[w]
			for word != 0 {
				b := bits.Len64(word) - 1
				word &^= 1 << uint(b)
				pos := w<<6 | b
				out = append(out, TaskMove{From: i, Idx: base + pos, To: int(nbs[destOf[pos]])})
			}
		}
	}
	sc.moves = out
	if len(out) == 0 {
		return nil
	}
	return out
}

// edgeProbs fills probs, zero off the eligible edges, for node i with
// total weight wi, given the mask of its first 64 neighbors; it masks
// the later chunks as it reaches them. It returns Σ probs and the last
// index with a positive probability, −1 if there is none. The per-node
// factors of p_ij are locals (see edgeProb).
func (p Algorithm2) edgeProbs(sys *System, i int, wi float64, loads, probs []float64, mask uint64) (sumQ float64, lastPos int) {
	nbs := sys.g.Neighbors(i)
	deg := len(nbs)
	for idx := range probs {
		probs[idx] = 0
	}
	degIsMax := deg == sys.maxDeg // no edge needs the degree ratio
	li, invI, invSpeed := loads[i], sys.invSpeed[i], sys.invSpeed
	alpha := p.effectiveAlpha(sys)
	lastPos = -1
	for lo := 0; ; {
		for ; mask != 0; mask &= mask - 1 {
			idx := lo + bits.TrailingZeros64(mask)
			j := nbs[idx]
			num := li - loads[j]
			if !degIsMax {
				num = sys.edgeNum(j, deg, num)
			}
			pij := edgeProb(num, alpha, invI, invSpeed[j], wi)
			if pij <= 0 {
				continue
			}
			probs[idx] = pij / float64(deg)
			sumQ += probs[idx]
			lastPos = idx
		}
		if lo += 64; lo >= deg {
			return sumQ, lastPos
		}
		mask = eligibleMaskByNode(li, loads, nbs[lo:min(lo+64, deg)], sys.invSpeed)
	}
}

// TaskMove records a pending migration of the task at position Idx of
// node From to node To, relative to the round-start task layout.
type TaskMove struct {
	From, Idx, To int
}

// ApplyMoves applies a round's pending migrations to st after all nodes
// decided on the same round-start snapshot. Within one node, higher task
// indices are removed first so the swap-delete does not disturb the
// remaining round-start indices. It ends the round: the cached weight
// sums are rebuilt if the update count has reached
// WeightRecomputeEvery. Returns the number of moves applied.
func ApplyMoves(st *WeightedState, pending []TaskMove) int {
	n := st.sys.g.N()
	byNode := make(map[int][]TaskMove, len(pending))
	for _, mv := range pending {
		byNode[mv.From] = append(byNode[mv.From], mv)
	}
	moves := 0
	for i := 0; i < n; i++ {
		mvs := byNode[i]
		if len(mvs) == 0 {
			continue
		}
		sortMovesByIdxDesc(mvs)
		for _, mv := range mvs {
			st.moveTask(mv.From, mv.Idx, mv.To)
			moves++
		}
	}
	st.endRound()
	return moves
}

// sortMovesByIdxDesc sorts one node's moves by task index descending —
// the application order ApplyMoves uses, under which the swap-delete of
// moveTask never disturbs a pending round-start index. Task indices
// within a node are distinct, so any comparison sort yields the same
// order: insertion sort for the common small lists, slices.SortFunc
// beyond that (pattern-defeating quicksort on the concrete slice, no
// sort.Interface boxing) — an all-on-one start at million-node scale
// emits millions of moves from a single node per round, where both
// quadratic sorting and per-compare interface dispatch stall the run.
func sortMovesByIdxDesc(mvs []TaskMove) {
	if len(mvs) > 64 {
		slices.SortFunc(mvs, func(a, b TaskMove) int { return b.Idx - a.Idx })
		return
	}
	for i := 1; i < len(mvs); i++ {
		for j := i; j > 0 && mvs[j].Idx > mvs[j-1].Idx; j-- {
			mvs[j], mvs[j-1] = mvs[j-1], mvs[j]
		}
	}
}

// Algorithm2PerTask is the literal per-task formulation of Algorithm 2:
// each task draws its neighbor and coin independently. Reference
// implementation for equivalence tests.
type Algorithm2PerTask struct {
	Alpha float64
}

var _ WeightedProtocol = Algorithm2PerTask{}

// Name implements WeightedProtocol.
func (p Algorithm2PerTask) Name() string { return "algorithm2-pertask" }

// Step implements WeightedProtocol.
func (p Algorithm2PerTask) Step(st *WeightedState, round uint64, base *rng.Stream) int {
	alpha := Algorithm2{Alpha: p.Alpha}.effectiveAlpha(st.sys)
	decide := func(st *WeightedState, i, j int, li, lj, w float64, stream *rng.Stream) bool {
		sys := st.sys
		if li-lj <= 1/sys.speeds[j] {
			return false
		}
		pij := migrationProb(sys, i, j, li, lj, alpha, st.nodeWeight[i])
		return stream.Bernoulli(pij)
	}
	return perTaskWeightedStep(st, round, base, decide)
}

// Algorithm2Literal implements the exact listing on p. 11 of the paper:
// condition ℓᵢ − ℓⱼ > 1/sⱼ, probability (deg(i)/d_ij)·(Wᵢ−Wⱼ)/(2α·Wᵢ).
// It coincides with Algorithm2 when all speeds are 1.
type Algorithm2Literal struct {
	Alpha float64
}

var _ WeightedProtocol = Algorithm2Literal{}

// Name implements WeightedProtocol.
func (p Algorithm2Literal) Name() string { return "algorithm2-literal" }

// Step implements WeightedProtocol.
func (p Algorithm2Literal) Step(st *WeightedState, round uint64, base *rng.Stream) int {
	alpha := Algorithm2{Alpha: p.Alpha}.effectiveAlpha(st.sys)
	decide := func(st *WeightedState, i, j int, li, lj, w float64, stream *rng.Stream) bool {
		sys := st.sys
		if li-lj <= 1/sys.speeds[j] {
			return false
		}
		wi, wj := st.nodeWeight[i], st.nodeWeight[j]
		p := float64(sys.g.Degree(i)) / float64(sys.g.DMax(i, j)) * (wi - wj) / (2 * alpha * wi)
		if p < 0 {
			p = 0
		} else if p > 1 {
			p = 1
		}
		return stream.Bernoulli(p)
	}
	return perTaskWeightedStep(st, round, base, decide)
}

// perTaskWeightedStep runs one synchronous round where each task draws a
// neighbor uniformly and then consults decide(st, i, j, ℓᵢ, ℓⱼ, wℓ) on
// the round-start snapshot. Like ApplyMoves, it ends with the round-end
// check of the cached weight sums.
func perTaskWeightedStep(
	st *WeightedState,
	round uint64,
	base *rng.Stream,
	decide func(st *WeightedState, i, j int, li, lj, w float64, stream *rng.Stream) bool,
) int {
	sys := st.sys
	g := sys.g
	n := g.N()
	loads := st.Loads()
	moves := 0
	roundStream := base.Split(round)
	var pending []TaskMove
	for i := 0; i < n; i++ {
		cnt := len(st.tasks[i])
		if cnt == 0 {
			continue
		}
		nodeStream := roundStream.Split(uint64(i))
		nbs := g.Neighbors(i)
		li := loads[i]
		for t := 0; t < cnt; t++ {
			j := int(nbs[nodeStream.Intn(len(nbs))])
			if decide(st, i, j, li, loads[j], st.tasks[i][t], nodeStream) {
				pending = append(pending, TaskMove{From: i, Idx: t, To: j})
				moves++
			}
		}
	}
	// Apply per node with indices descending (pending is generated in
	// ascending idx order per node, so walk backwards).
	for k := len(pending) - 1; k >= 0; k-- {
		mv := pending[k]
		st.moveTask(mv.From, mv.Idx, mv.To)
	}
	st.endRound()
	return moves
}
