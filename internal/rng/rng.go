// Package rng provides a deterministic, splittable pseudo-random number
// generator substrate for the load-balancing simulations.
//
// The simulator must be reproducible: the same seed must yield the same
// trajectory, including when the simulation is executed by concurrent
// workers or worker processes (package shard). math/rand's global state
// is unsuitable for that, so this package implements:
//
//   - xoshiro256** as the core generator (fast, 256-bit state, passes
//     BigCrush), seeded via SplitMix64 so that low-entropy seeds still
//     produce well-mixed states;
//   - Split, which derives an independent child stream from a parent in a
//     way that is stable under the order of other draws (each child is
//     keyed by an explicit index, not by the parent's current position);
//   - exact discrete samplers (Bernoulli, Binomial, Multinomial) used to
//     batch per-task migration coin flips into per-edge draws without
//     changing the sampled distribution.
package rng

import "math"

// Stream is a deterministic pseudo-random stream. It is NOT safe for
// concurrent use; give each goroutine its own Stream via Split.
type Stream struct {
	s [4]uint64
	// id is the stream's immutable identity, fixed at creation; Split
	// derives children from id so that the derivation is independent of
	// how many values the parent has already produced.
	id uint64
}

// splitmix64 advances a SplitMix64 state and returns the next output.
// It is used for seeding and for key mixing in Split.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Stream seeded from seed. Any seed value, including zero,
// is valid: the state is expanded through SplitMix64.
func New(seed uint64) *Stream {
	return fromIdentity(splitmix64(&seed))
}

// fromIdentity builds a stream whose state is expanded from an identity
// word via SplitMix64.
func fromIdentity(id uint64) *Stream {
	st := new(Stream)
	expandInto(id, st)
	return st
}

// expandInto writes the stream with the given identity into dst: the
// single source of truth for state expansion, shared by New, Split and
// SplitTo.
func expandInto(id uint64, dst *Stream) {
	dst.id = id
	x := id
	for i := range dst.s {
		dst.s[i] = splitmix64(&x)
	}
	// xoshiro256** requires a non-zero state; SplitMix64 of any seed can
	// produce all-zero only with negligible probability, but guard anyway.
	if dst.s[0]|dst.s[1]|dst.s[2]|dst.s[3] == 0 {
		dst.s[0] = 0x9e3779b97f4a7c15
	}
}

// Split returns an independent child stream identified by index.
// Children with distinct indices are statistically independent of each
// other and of the parent, and the derivation uses only the parent's
// immutable identity — not its position — so Split(i) yields the same
// child no matter how much the parent (or other children) have been
// consumed.
func (r *Stream) Split(index uint64) *Stream {
	child := new(Stream)
	r.SplitTo(index, child)
	return child
}

// SplitTo is Split without the allocation: it writes the child stream
// for index into dst. It is the single source of truth for the child
// derivation (Split delegates here), and exists for the engines' hot
// loops: a worker that reuses one scratch Stream per shard evaluates
// millions of nodes per round with zero allocations, while still
// drawing node i's randomness from the exact stream Split(i) returns.
func (r *Stream) SplitTo(index uint64, dst *Stream) {
	x := r.id ^ (index+1)*0xd1342543de82ef95
	expandInto(splitmix64(&x), dst)
}

// Words returns the stream's complete state — the four xoshiro256**
// words followed by the immutable identity — for serialization.
// StreamFromWords reconstructs a stream that continues exactly where
// this one stands and derives the identical Split children, which is
// what checkpointing and the cross-process transport need: a restored
// worker draws the same randomness as the uninterrupted run.
func (r *Stream) Words() [5]uint64 {
	return [5]uint64{r.s[0], r.s[1], r.s[2], r.s[3], r.id}
}

// StreamFromWords rebuilds the stream Words captured. It is the only
// constructor that bypasses SplitMix64 expansion, so it must only be
// fed values produced by Words.
func StreamFromWords(w [5]uint64) *Stream {
	st := new(Stream)
	st.s = [4]uint64{w[0], w[1], w[2], w[3]}
	st.id = w[4]
	if st.s[0]|st.s[1]|st.s[2]|st.s[3] == 0 {
		st.s[0] = 0x9e3779b97f4a7c15
	}
	return st
}

// At pins the simulator's keying contract for (round, node) streams:
// At(r, i) ≡ Split(r).Split(i). The sequential engine in package core
// and the concurrent engines in package shard draw node i's round-r
// randomness from exactly this stream (they derive Split(r) once per
// round and Split(i) per node, which is identical). Because the
// derivation reads only the parent's immutable identity, At is safe to
// call from many goroutines on a shared base stream, and engines that
// evaluate nodes in different orders (or in parallel) still produce
// identical trajectories.
func (r *Stream) At(round, node uint64) *Stream {
	return r.Split(round).Split(node)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits (xoshiro256**).
func (r *Stream) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform float64 in [0,1) with 53 random bits.
func (r *Stream) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0,n). It panics if n <= 0.
// Lemire's nearly-divisionless bounded sampling is used to avoid modulo
// bias without a division in the common case.
func (r *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	un := uint64(n)
	x := r.Uint64()
	hi, lo := mul64(x, un)
	if lo < un {
		threshold := -un % un
		for lo < threshold {
			x = r.Uint64()
			hi, lo = mul64(x, un)
		}
	}
	_ = lo
	return int(hi)
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	a0, a1 := a&mask32, a>>32
	b0, b1 := b&mask32, b>>32
	t := a1*b0 + (a0*b0)>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += a0 * b1
	hi = a1*b1 + w2 + (w1 >> 32)
	lo = a * b
	return hi, lo
}

// Bernoulli returns true with probability p. Probabilities outside [0,1]
// are clamped.
func (r *Stream) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Perm returns a uniformly random permutation of [0,n).
func (r *Stream) Perm(n int) []int {
	p := make([]int, n)
	for i := 1; i < n; i++ {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle randomizes the order of n elements using swap (Fisher–Yates).
func (r *Stream) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// NormFloat64 returns a standard normal variate (polar Box–Muller).
func (r *Stream) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}
