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
	// using only information local to i: its task count wi, its load li,
	// the round-start loads of its neighbors (nbLoads, indexed like
	// Graph.Neighbors(i)), and its per-round stream. The first deg(i)
	// entries of out are overwritten with the number of tasks sent to
	// each neighbor; the return value is their sum.
	DecideNode(sys *System, i int, wi int64, li float64, nbLoads []float64, nodeStream *rng.Stream, out []int64) int64
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
// chunk of up to 64 neighbors becomes a bitmask (eligibleMask), and only
// its set bits are visited, in ascending neighbor order — the order, and
// hence the draws, of a plain scan. A node of degree at most 64 with no
// eligible edge (a balanced neighborhood) costs only its mask; the draws
// live in drawMovers, out of this small hot frame.
func (p Algorithm1) DecideNode(sys *System, i int, wi int64, li float64, nbLoads []float64, nodeStream *rng.Stream, out []int64) int64 {
	nbs := sys.g.Neighbors(i)
	deg := len(nbs)
	for idx := 0; idx < deg; idx++ {
		out[idx] = 0
	}
	if wi == 0 {
		return 0
	}
	hi := min(deg, 64)
	mask := eligibleMask(li, nbLoads[:hi], nbs[:hi], sys.invSpeed)
	if mask == 0 && deg <= 64 {
		return 0
	}
	return p.drawMovers(sys, i, wi, li, nbLoads, nodeStream, out, mask)
}

// drawMovers draws node i's mover counts over its eligible edges, given
// the mask of its first 64 neighbors; it masks the later chunks as it
// reaches them.
func (p Algorithm1) drawMovers(sys *System, i int, wi int64, li float64, nbLoads []float64, nodeStream *rng.Stream, out []int64, mask uint64) int64 {
	nbs := sys.g.Neighbors(i)
	ep := newEdgeProb(sys, i, li, p.effectiveAlpha(sys), float64(wi))
	invDeg := 1 / float64(len(nbs))
	remaining := int(wi)
	rest := 1.0 // probability mass of the categories not yet drawn
	moves := int64(0)
	for lo := 0; ; {
		for ; mask != 0; mask &= mask - 1 {
			idx := lo + bits.TrailingZeros64(mask)
			q := ep.at(int(nbs[idx]), nbLoads[idx]) * invDeg
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
				out[idx] = int64(k)
				moves += int64(k)
				remaining -= k
				if remaining == 0 {
					return moves
				}
			}
			rest -= q
		}
		if lo += 64; lo >= len(nbs) {
			return moves
		}
		hi := min(lo+64, len(nbs))
		mask = eligibleMask(li, nbLoads[lo:hi], nbs[lo:hi], sys.invSpeed)
	}
}

// eligibleMask returns the edges, at most 64, over which a task of a
// node with load li has an incentive to move: bit k is set iff
// ℓᵢ − loads[k] > 1/s_nbs[k], written !(… <= …) so that it selects
// exactly the edges a "skip if ℓᵢ − ℓⱼ <= 1/sⱼ" scan keeps. The loop
// has no data-dependent branch (the comparison compiles to SETcc), so
// random loads cost no mispredictions, and it must stay small enough
// to inline into the kernels.
func eligibleMask(li float64, loads []float64, nbs []int32, invSpeed []float64) uint64 {
	loads = loads[:len(nbs)]
	mask := uint64(0)
	for k, j := range nbs {
		var b uint64
		if !(li-loads[k] <= invSpeed[j]) {
			b = 1
		}
		mask |= b << (uint(k) & 63)
	}
	return mask
}

// eligibleMaskByNode is eligibleMask with the loads indexed by node (a
// global snapshot) instead of by edge.
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
	g := sys.g
	n := g.N()
	counts := st.counts
	loads := st.Loads() // round-start snapshot: all tasks act concurrently
	roundStream := base.Split(round)
	delta := make([]int64, n)
	nb := make([]float64, sys.maxDeg)
	out := make([]int64, sys.maxDeg)
	moves := int64(0)
	for i := 0; i < n; i++ {
		wi := counts[i]
		if wi == 0 {
			continue
		}
		nbs := g.Neighbors(i)
		deg := len(nbs)
		for idx, jj := range nbs {
			nb[idx] = loads[jj]
		}
		m := p.DecideNode(sys, i, wi, loads[i], nb[:deg], roundStream.Split(uint64(i)), out)
		if m == 0 {
			continue
		}
		moves += m
		delta[i] -= m
		for idx := 0; idx < deg; idx++ {
			if out[idx] > 0 {
				delta[nbs[idx]] += out[idx]
			}
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

// edgeProb is migrationProb for the edges of one node, with the
// per-node factors computed once and 1/sⱼ read from System.invSpeed.
// deg(j) comes from System.degree, so a halo neighbor of a window System
// has its true degree. The degree ratio is left out where it is exactly
// 1, on every edge with deg(j) <= deg(i): on all edges of a node of
// maximum degree Δ, so of every regular graph, without looking deg(j)
// up. Multiplying by an exact 1 changes no float, and the rest is
// migrationProb's expression in its order, so both return the same bits.
type edgeProb struct {
	sys             *System
	invSpeed        []float64
	deg             int
	degF            float64
	li, invI, alpha float64
	wi              float64
	degIsMax        bool // deg(i) = Δ: no edge needs the degree ratio
}

func newEdgeProb(sys *System, i int, li, alpha, wi float64) edgeProb {
	deg := sys.g.Degree(i)
	return edgeProb{
		sys:      sys,
		invSpeed: sys.invSpeed,
		deg:      deg,
		degF:     float64(deg),
		li:       li,
		invI:     sys.invSpeed[i],
		alpha:    alpha,
		wi:       wi,
		degIsMax: deg == sys.maxDeg,
	}
}

// at returns p_ij for neighbor j with load lj.
func (e *edgeProb) at(j int, lj float64) float64 {
	num := e.li - lj
	if !e.degIsMax {
		if dj := e.sys.degree(j); dj > e.deg {
			num = e.degF / float64(dj) * num
		}
	}
	p := num / (e.alpha * (e.invI + e.invSpeed[j]) * e.wi)
	if p > 1 {
		p = 1
	} else if p < 0 {
		p = 0
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
func (p Algorithm1PerTask) DecideNode(sys *System, i int, wi int64, li float64, nbLoads []float64, nodeStream *rng.Stream, out []int64) int64 {
	nbs := sys.g.Neighbors(i)
	deg := len(nbs)
	for idx := 0; idx < deg; idx++ {
		out[idx] = 0
	}
	if wi == 0 {
		return 0
	}
	alpha := Algorithm1{Alpha: p.Alpha}.effectiveAlpha(sys)
	moves := int64(0)
	for t := int64(0); t < wi; t++ {
		idx := nodeStream.Intn(deg)
		j := int(nbs[idx])
		lj := nbLoads[idx]
		if li-lj <= 1/sys.speeds[j] {
			continue
		}
		pij := migrationProb(sys, i, j, li, lj, alpha, float64(wi))
		if nodeStream.Bernoulli(pij) {
			out[idx]++
			moves++
		}
	}
	return moves
}
