package core

import (
	"math/bits"

	"repro/internal/rng"
)

// UniformProtocol is one synchronous round of a load-balancing protocol
// on a uniform-task state. Step must use only streams derived from base
// via Split so that trajectories are reproducible; it returns the number
// of migrated tasks.
type UniformProtocol interface {
	Name() string
	Step(st *UniformState, round uint64, base *rng.Stream) int64
}

// UniformNodeProtocol is a UniformProtocol whose round factorizes into
// independent per-node decisions on the round-start snapshot: node i's
// migrations depend only on its own task count, the loads of itself and
// its direct neighbors, and the stream base.At(round, i). That locality
// is exactly the paper's model, and it is what lets the concurrent
// engines in package shard (in process and across processes) execute
// the decisions in parallel while reproducing the sequential trajectory
// bit-for-bit.
type UniformNodeProtocol interface {
	UniformProtocol
	// DecideNode computes node i's outgoing migrations for one round
	// using only information local to i: its task count wi, the
	// round-start load vector indexed by node id (of which it reads
	// loads[i] and its neighbors' entries), and its per-round stream. It
	// returns the neighbors that receive tasks, in the order
	// Graph.Neighbors(i) lists them, and their total. The flows are
	// appended to out[:0], so a caller that passes capacity for deg(i)
	// entries allocates nothing; the returned slice aliases out.
	DecideNode(sys *System, i int, wi int64, loads []float64, nodeStream *rng.Stream, out []Outflow) ([]Outflow, int64)
}

// Outflow is one neighbor a node sends tasks to in a round: Count tasks
// move to node To.
type Outflow struct {
	To    int32
	Count int64
}

// Algorithm1 is the paper's protocol for uniform tasks on machines with
// speeds (p. 5):
//
//	for each task on node i in parallel:
//	  choose neighbor j uniformly at random
//	  if ℓᵢ − ℓⱼ > 1/sⱼ:
//	    move with probability
//	    p_ij = (deg(i)/d_ij) · (ℓᵢ−ℓⱼ) / (α·(1/sᵢ+1/sⱼ)·Wᵢ)
//
// The implementation aggregates the per-task coin flips into one draw
// per edge: a task moves to neighbor j with probability q_j = p_ij/deg
// (the uniform neighbor pick times the coin), so the per-neighbor mover
// counts are jointly Multinomial(wi; q_1, …, q_deg, stay) and are drawn
// directly as sequential conditional binomials over the edges. This is
// distributionally identical to the per-task loop (tasks are
// exchangeable, so only the counts matter) at O(deg) draws per node —
// each one O(1) expected time via rng.Binomial — instead of O(m).
type Algorithm1 struct {
	// Alpha is the migration damping; zero means the paper's default
	// 4·s_max. The exact-Nash phase of Theorem 1.2 requires 4·s_max/ε̄.
	Alpha float64
}

var _ UniformNodeProtocol = Algorithm1{}

// Name implements UniformProtocol.
func (p Algorithm1) Name() string { return "algorithm1" }

// effectiveAlpha resolves the damping parameter for a system.
func (p Algorithm1) effectiveAlpha(sys *System) float64 {
	if p.Alpha > 0 {
		return p.Alpha
	}
	return sys.DefaultAlpha()
}

// Step implements UniformProtocol.
func (p Algorithm1) Step(st *UniformState, round uint64, base *rng.Stream) int64 {
	return stepNodewise(st, round, base, p)
}

// DecideNode implements UniformNodeProtocol: the aggregated sampling of
// node i's per-task coin flips. The joint distribution of the mover
// counts is Multinomial(wi; q_1, …, q_deg, stay) with q_j = p_ij/deg, so
// the counts are drawn as sequential conditional binomials over the
// eligible edges: neighbor idx receives Binomial(remaining, q/rest)
// where rest is the probability mass not yet consumed. One O(1)-expected
// draw per eligible edge, no intermediate per-neighbor pick counts.
//
// The eligible edges are found without a data-dependent branch: each
// chunk of up to 64 neighbors becomes a bitmask (eligibleMaskByNode),
// and only its set bits are visited, in ascending neighbor order — the
// order, and hence the draws, of a plain scan. A node of degree at most
// 64 with no eligible edge (a balanced neighborhood) costs only its
// mask; the draws live in drawMovers, out of this small hot frame.
func (p Algorithm1) DecideNode(sys *System, i int, wi int64, loads []float64, nodeStream *rng.Stream, out []Outflow) ([]Outflow, int64) {
	out = out[:0]
	if wi == 0 {
		return out, 0
	}
	nbs := sys.g.Neighbors(i)
	mask := eligibleMaskByNode(loads[i], loads, nbs[:min(len(nbs), 64)], sys.invSpeed)
	if mask == 0 && len(nbs) <= 64 {
		return out, 0
	}
	return p.drawMovers(sys, i, wi, loads, nodeStream, out, mask)
}

// drawMovers draws node i's mover counts over its eligible edges, given
// the mask of its first 64 neighbors; it masks the later chunks as it
// reaches them. The per-node factors of p_ij are locals (see edgeProb).
func (p Algorithm1) drawMovers(sys *System, i int, wi int64, loads []float64, nodeStream *rng.Stream, out []Outflow, mask uint64) ([]Outflow, int64) {
	nbs := sys.g.Neighbors(i)
	deg := len(nbs)
	degIsMax := deg == sys.maxDeg // no edge needs the degree ratio
	invDeg := 1 / float64(deg)
	li, invI, invSpeed := loads[i], sys.invSpeed[i], sys.invSpeed
	alpha, wf := p.effectiveAlpha(sys), float64(wi)
	remaining := int(wi)
	rest := 1.0 // probability mass of the categories not yet drawn
	moves := int64(0)
	for lo := 0; ; {
		for ; mask != 0; mask &= mask - 1 {
			j := nbs[lo+bits.TrailingZeros64(mask)]
			num := li - loads[j]
			if !degIsMax {
				num = sys.edgeNum(j, deg, num)
			}
			q := edgeProb(num, alpha, invI, invSpeed[j], wf) * invDeg
			if q <= 0 {
				continue
			}
			// Clamp the conditional like rng.MultinomialInto: rest can drift
			// at or below q when the eligible edges carry the full mass.
			cp := 1.0
			if rest > q {
				cp = q / rest
			}
			k := nodeStream.Binomial(remaining, cp)
			if k > 0 {
				out = append(out, Outflow{To: j, Count: int64(k)})
				moves += int64(k)
				remaining -= k
				if remaining == 0 {
					return out, moves
				}
			}
			rest -= q
		}
		if lo += 64; lo >= deg {
			return out, moves
		}
		mask = eligibleMaskByNode(li, loads, nbs[lo:min(lo+64, deg)], sys.invSpeed)
	}
}

// eligibleMaskByNode returns the edges, at most 64, over which a task of
// a node with load li has an incentive to move, given the loads indexed
// by node: bit k is set iff ℓᵢ − loads[nbs[k]] > 1/s_nbs[k], written
// !(… <= …) so that it selects exactly the edges a "skip if
// ℓᵢ − ℓⱼ <= 1/sⱼ" scan keeps. The loop has no data-dependent branch
// (the comparison compiles to SETcc), so random loads cost no
// mispredictions, and it must stay small enough to inline into the
// kernels.
func eligibleMaskByNode(li float64, loads []float64, nbs []int32, invSpeed []float64) uint64 {
	mask := uint64(0)
	for k, j := range nbs {
		var b uint64
		if !(li-loads[j] <= invSpeed[j]) {
			b = 1
		}
		mask |= b << (uint(k) & 63)
	}
	return mask
}

// stepNodewise runs one synchronous round of a node-decomposable protocol
// on the sequential engine: decide every node on the round-start load
// snapshot, accumulating migration deltas, then apply them. Package
// shard executes the same DecideNode calls concurrently; because node
// i's round-r stream base.At(r, i) is derived purely from the seed, the
// trajectories agree exactly.
func stepNodewise(st *UniformState, round uint64, base *rng.Stream, p UniformNodeProtocol) int64 {
	sys := st.sys
	n := sys.g.N()
	counts := st.counts
	loads := st.Loads() // round-start snapshot: all tasks act concurrently
	roundStream := base.Split(round)
	delta := make([]int64, n)
	out := make([]Outflow, 0, sys.maxDeg)
	var nodeStream rng.Stream // roundStream.Split(i), without the allocation
	moves := int64(0)
	for i := 0; i < n; i++ {
		wi := counts[i]
		if wi == 0 {
			continue
		}
		roundStream.SplitTo(uint64(i), &nodeStream)
		var m int64
		out, m = p.DecideNode(sys, i, wi, loads, &nodeStream, out)
		if m == 0 {
			continue
		}
		moves += m
		delta[i] -= m
		for _, f := range out {
			delta[f.To] += f.Count
		}
	}
	st.applyDelta(delta)
	return moves
}

// migrationProb returns p_ij for node weight wi (uniform: task count;
// weighted: total weight) with the given loads and damping.
func migrationProb(sys *System, i, j int, li, lj, alpha, wi float64) float64 {
	deg := float64(sys.g.Degree(i))
	dij := float64(sys.g.DMax(i, j))
	p := deg / dij * (li - lj) / (alpha * (1/sys.speeds[i] + 1/sys.speeds[j]) * wi)
	if p > 1 {
		// Cannot occur for α ≥ s_max (p ≤ 1/α·sᵢ·(ℓᵢ−ℓⱼ)·sᵢ/wᵢ ≤ 1/α·s_max
		// is bounded by 1), but clamp defensively for user-chosen α.
		p = 1
	}
	if p < 0 {
		p = 0
	}
	return p
}

// edgeNum and edgeProb are migrationProb for the eligible edges of one
// node, in its expression and order, split so that the kernels hold the
// node's factors in locals and the per-edge part inlines into them:
// p_ij = edgeProb(edgeNum(…), α, 1/sᵢ, 1/sⱼ, Wᵢ), with 1/s read from
// System.invSpeed.

// edgeNum returns (deg(i)/d_ij)·diff for node i of degree deg, neighbor
// j and diff = ℓᵢ − ℓⱼ. deg(j) comes from System.degree, so a halo
// neighbor of a window System has its true degree. The ratio is left
// out where it is exactly 1, on every edge with deg(j) <= deg(i), so
// the kernels skip the call on a node of maximum degree Δ — every node
// of a regular graph. Multiplying by an exact 1 changes no float.
func (s *System) edgeNum(j int32, deg int, diff float64) float64 {
	if dj := s.degree(int(j)); dj > deg {
		return float64(deg) / float64(dj) * diff
	}
	return diff
}

// edgeProb returns num/(α·(1/sᵢ+1/sⱼ)·Wᵢ) clamped to [0, 1].
func edgeProb(num, alpha, invI, invJ, wi float64) float64 {
	p := num / (alpha * (invI + invJ) * wi)
	if p > 1 {
		return 1
	} else if p < 0 {
		return 0
	}
	return p
}

// Algorithm1PerTask is the literal per-task formulation of Algorithm 1:
// every task independently draws a neighbor and a coin. It samples from
// exactly the same distribution as Algorithm1 but costs O(m) per round.
// Kept as the reference implementation for equivalence tests and for the
// batching ablation benchmark.
type Algorithm1PerTask struct {
	Alpha float64
}

var _ UniformNodeProtocol = Algorithm1PerTask{}

// Name implements UniformProtocol.
func (p Algorithm1PerTask) Name() string { return "algorithm1-pertask" }

// Step implements UniformProtocol.
func (p Algorithm1PerTask) Step(st *UniformState, round uint64, base *rng.Stream) int64 {
	return stepNodewise(st, round, base, p)
}

// DecideNode implements UniformNodeProtocol: the literal per-task loop.
// It tallies the movers per neighbor in out[:deg] and then drops the
// neighbors that receive none, so the flows keep ascending neighbor
// order.
func (p Algorithm1PerTask) DecideNode(sys *System, i int, wi int64, loads []float64, nodeStream *rng.Stream, out []Outflow) ([]Outflow, int64) {
	out = out[:0]
	if wi == 0 {
		return out, 0
	}
	nbs := sys.g.Neighbors(i)
	deg := len(nbs)
	for _, j := range nbs {
		out = append(out, Outflow{To: j})
	}
	alpha := Algorithm1{Alpha: p.Alpha}.effectiveAlpha(sys)
	li := loads[i]
	moves := int64(0)
	for t := int64(0); t < wi; t++ {
		idx := nodeStream.Intn(deg)
		j := int(nbs[idx])
		lj := loads[j]
		if li-lj <= 1/sys.speeds[j] {
			continue
		}
		pij := migrationProb(sys, i, j, li, lj, alpha, float64(wi))
		if nodeStream.Bernoulli(pij) {
			out[idx].Count++
			moves++
		}
	}
	kept := out[:0]
	for _, f := range out {
		if f.Count > 0 {
			kept = append(kept, f)
		}
	}
	return kept, moves
}
