package rng

import "math"

// btpeMinNP is the n·min(p,q) threshold above which Binomial switches
// from CDF-inversion mode walking to the BTPE acceptance sampler. Below
// it the mode walk costs O(√(n·p·q)) ≤ O(√btpeMinNP) expected steps —
// a handful — and keeps the draw sequences of small instances pinned;
// above it BTPE draws in constant expected time regardless of n.
const btpeMinNP = 30

// Binomial returns a sample from Binomial(n, p): the number of successes
// in n independent trials with success probability p.
//
// The sampler is exact (up to floating-point pmf evaluation) and costs
// O(1) expected time uniformly in n: n = 1 is a single Bernoulli coin
// flip, n < 16 inverts the CDF from k = 0 with pmf(0) = (1−p)ⁿ, moderate
// n·p·q inverts it by walking outward from the mode (O(√(n·p·q))
// expected steps, bounded by the BTPE threshold), and large n·p·q uses
// the BTPE acceptance–rejection sampler of Kachitvichyanukul &
// Schmeiser. This keeps per-round simulation cost proportional to the
// number of edges rather than the number of tasks, without changing the
// sampled distribution relative to per-task Bernoulli coin flips.
//
// Inversion that starts at k = 0 (n < 16, or the mode walk when its mode
// is 0) first compares its uniform against a lower bound on pmf(0) (see
// zeroMassBound) and returns 0 below it without evaluating pmf(0) — the
// common case under Algorithm 1's damping, where almost every per-edge
// draw moves nothing. The shortcut draws the same single uniform and
// returns the value inversion would, so it changes no stream or
// trajectory.
func (r *Stream) Binomial(n int, p float64) int {
	switch {
	// A NaN probability fails every comparison below; without the
	// explicit guard it would send the mode walk to int(NaN) and loop
	// effectively forever (found by FuzzBinomial).
	case n <= 0 || p <= 0 || math.IsNaN(p):
		return 0
	case p >= 1:
		return n
	case n == 1:
		if r.Bernoulli(p) {
			return 1
		}
		return 0
	}

	// Small n: direct inversion from 0 is cheapest and avoids Lgamma.
	if n < 16 {
		return binomialSmall(n, p, r.Float64())
	}

	pmin := p
	if q := 1 - p; q < pmin {
		pmin = q
	}
	if float64(n)*pmin >= btpeMinNP {
		return r.binomialBTPE(n, p)
	}
	return binomialModeWalk(n, p, r.Float64())
}

// binomialModeWalk inverts the Binomial(n, p) CDF at u by walking
// outward from the mode: k = mode, mode+1, mode-1, mode+2, ... using the
// pmf recurrence
//
//	pmf(k+1) = pmf(k) · (n-k)/(k+1) · p/q
//	pmf(k-1) = pmf(k) · k/(n-k+1) · q/p.
//
// The uniform is a parameter (rather than drawn inside) so tests can
// force the floating-point residue path with u at the top of [0,1).
func binomialModeWalk(n int, p float64, u float64) int {
	q := 1 - p
	// Mode of Binomial(n,p).
	mode := int(math.Floor(float64(n+1) * p))
	if mode > n {
		mode = n
	}
	// With the mode at 0 the walk starts by returning 0 for u < pmf(0).
	if mode == 0 && u < zeroMassBound(n, p) {
		return 0
	}
	logPmfMode := logChoose(n, mode) + float64(mode)*math.Log(p) + float64(n-mode)*math.Log(q)
	pmfMode := math.Exp(logPmfMode)

	ratio := p / q
	upK, upPmf := mode, pmfMode     // last value consumed going up
	downK, downPmf := mode, pmfMode // last value consumed going down
	acc := pmfMode
	last := mode // last support point consumed by the walk
	if u < acc {
		return mode
	}
	for {
		advanced := false
		if upK < n {
			upPmf *= float64(n-upK) / float64(upK+1) * ratio
			upK++
			acc += upPmf
			if u < acc {
				return upK
			}
			last = upK
			advanced = true
		}
		if downK > 0 {
			downPmf *= float64(downK) / float64(n-downK+1) / ratio
			downK--
			acc += downPmf
			if u < acc {
				return downK
			}
			last = downK
			advanced = true
		}
		if !advanced {
			// Entire support consumed; u landed in the floating-point
			// residue above the accumulated CDF mass. Inversion maps the
			// top of [0,1) to the far tail, so return the last boundary
			// the walk consumed — not the mode, which would teleport a
			// top-of-range u back to the distribution's center.
			return last
		}
	}
}

// binomialBTPE samples Binomial(n, p) by the BTPE algorithm
// (Kachitvichyanukul & Schmeiser, "Binomial random variate generation",
// CACM 31(2), 1988): a triangle/parallelogram/exponential-tail envelope
// around the scaled pmf with squeeze acceptance, costing O(1) expected
// uniforms independent of n. Requires 16 ≤ n, 0 < p < 1 and
// n·min(p,q) ≥ btpeMinNP (the caller guarantees all three; the envelope
// constants below are only valid in that regime).
func (r *Stream) binomialBTPE(n int, p float64) int {
	// Work with pp = min(p, 1-p) and flip the result for p > 1/2.
	flipped := p > 0.5
	pp := p
	if flipped {
		pp = 1 - p
	}
	q := 1 - pp
	fn := float64(n)
	fm := fn*pp + pp
	m := int(fm)       // mode
	nrq := fn * pp * q // n·p·q, the variance
	xm := float64(m) + 0.5
	p1 := math.Floor(2.195*math.Sqrt(nrq)-4.6*q) + 0.5 // half-width of the triangle
	xl := xm - p1
	xr := xm + p1
	c := 0.134 + 20.5/(15.3+float64(m))
	al := (fm - xl) / (fm - xl*pp)
	laml := al * (1 + al/2)
	al = (xr - fm) / (xr * q)
	lamr := al * (1 + al/2)
	p2 := p1 * (1 + 2*c) // triangle + parallelogram
	p3 := p2 + c/laml    // + left exponential tail
	p4 := p3 + c/lamr    // + right exponential tail

	var y int
	for {
		u := r.Float64() * p4
		v := r.Float64()
		switch {
		case u <= p1:
			// Triangular central region: accept immediately.
			y = int(math.Floor(xm - p1*v + u))
			goto done
		case u <= p2:
			// Parallelogram: scale v to the envelope height at x.
			x := xl + (u-p1)/c
			v = v*c + 1 - math.Abs(x-xm)/p1
			if v > 1 {
				continue
			}
			y = int(math.Floor(x))
		case u <= p3:
			// Left exponential tail.
			y = int(math.Floor(xl + math.Log(v)/laml))
			if y < 0 {
				continue
			}
			v = v * (u - p2) * laml
		default:
			// Right exponential tail.
			y = int(math.Floor(xr - math.Log(v)/lamr))
			if y > n {
				continue
			}
			v = v * (u - p3) * lamr
		}

		// Acceptance test: v ≤ pmf(y)/pmf(m).
		{
			k := y - m
			if k < 0 {
				k = -k
			}
			fk := float64(k)
			if fk <= 20 || fk >= nrq/2-1 {
				// Near the mode (or in the narrow-variance regime) the
				// pmf ratio is cheap to evaluate by recurrence.
				s := pp / q
				a := s * (fn + 1)
				f := 1.0
				if m < y {
					for i := m + 1; i <= y; i++ {
						f *= a/float64(i) - s
					}
				} else if m > y {
					for i := y + 1; i <= m; i++ {
						f /= a/float64(i) - s
					}
				}
				if v <= f {
					goto done
				}
				continue
			}
			// Squeeze on log(v) before the expensive exact comparison.
			rho := (fk / nrq) * ((fk*(fk/3+0.625)+1.0/6)/nrq + 0.5)
			t := -fk * fk / (2 * nrq)
			alv := math.Log(v)
			if alv < t-rho {
				goto done
			}
			if alv > t+rho {
				continue
			}
			// Exact comparison via Stirling series of log(pmf(y)/pmf(m)).
			x1 := float64(y + 1)
			f1 := float64(m + 1)
			z := float64(n + 1 - m)
			w := float64(n - y + 1)
			x2 := x1 * x1
			f2 := f1 * f1
			z2 := z * z
			w2 := w * w
			bound := xm*math.Log(f1/x1) + (fn-float64(m)+0.5)*math.Log(z/w) +
				float64(y-m)*math.Log(w*pp/(x1*q)) +
				(13860.0-(462.0-(132.0-(99.0-140.0/f2)/f2)/f2)/f2)/f1/166320.0 +
				(13860.0-(462.0-(132.0-(99.0-140.0/z2)/z2)/z2)/z2)/z/166320.0 +
				(13860.0-(462.0-(132.0-(99.0-140.0/x2)/x2)/x2)/x2)/x1/166320.0 +
				(13860.0-(462.0-(132.0-(99.0-140.0/w2)/w2)/w2)/w2)/w/166320.0
			if alv <= bound {
				goto done
			}
			continue
		}
	}
done:
	if flipped {
		return n - y
	}
	return y
}

// binomialSmall inverts the Binomial(n, p) CDF at u from k = 0; only
// used for 2 ≤ n < 16. Like binomialModeWalk it takes the uniform as a
// parameter, so tests can sweep u across the zero-mass bound.
func binomialSmall(n int, p, u float64) int {
	if u < zeroMassBound(n, p) {
		return 0
	}
	q := 1 - p
	pmf := math.Pow(q, float64(n))
	acc := pmf
	k := 0
	ratio := p / q
	for u >= acc && k < n {
		pmf *= float64(n-k) / float64(k+1) * ratio
		k++
		acc += pmf
	}
	return k
}

// zeroMassBound returns a lower bound on the pmf(0) = (1−p)ⁿ that the
// inversion paths compute, for n ≥ 2 and 0 < p < 1: a uniform u below it
// inverts to 0, so the caller can return 0 without evaluating pmf(0)
// (math.Pow in binomialSmall; three Lgamma calls, two Log and one Exp in
// binomialModeWalk). Under Algorithm 1's damping α = 4·s_max nearly
// every per-edge draw lands here.
//
// The bound is Bernoulli's inequality (1−p)ⁿ ≥ 1 − n·p, lowered by a
// margin n·2⁻⁴⁰ that absorbs every rounding error in both sides. Write
// ε = 2⁻⁵³ and suppose the computed bound b is positive (otherwise no
// u ∈ [0,1) is below it); then n·p < 1, so p < 1/2 and q ∈ [1/2, 1]:
//
//   - q = fl(1−p) is at most 2⁻⁵⁴ below 1−p, and d(qⁿ)/dq ≤ n, so
//     qⁿ ≥ (1−p)ⁿ − n·ε/2 ≥ 1 − n·p − n·ε/2.
//   - Evaluating qⁿ loses at most (n+4)·ε relative: math.Pow's
//     repeated squaring for integer exponents rounds about n + log₂n
//     times in the worst chain (n < 16 there); the mode walk's
//     Exp(logChoose(n, 0) + 0·Log p + n·Log q), with logChoose(n, 0)
//     exactly 0 (Lgamma(1) = 0, a − 0 − a = 0) and |n·Log q| < 2, loses
//     a few ulps in Log, the product and Exp, independent of n.
//   - Computing b itself rounds three times: b ≤ 1 − n·p − n·2⁻⁴⁰ + 3ε.
//
// So b ≤ computed pmf(0) whenever n·2⁻⁴⁰ = 8192·n·ε ≥ (3n/2 + 7)·ε, which
// holds for every n ≥ 1 with a factor of thousands to spare. The
// shortcut is therefore bit-exact: same uniform, same result. n = 1
// never reaches it (Binomial flips one Bernoulli coin there).
func zeroMassBound(n int, p float64) float64 {
	return 1 - float64(n)*(p+0x1p-40)
}

// logChoose returns log(C(n,k)) using math.Lgamma.
func logChoose(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	a, _ := math.Lgamma(float64(n + 1))
	b, _ := math.Lgamma(float64(k + 1))
	c, _ := math.Lgamma(float64(n - k + 1))
	return a - b - c
}

// maxPoissonLambda bounds the rate Poisson accepts: far above any
// simulation event rate, yet small enough that the mode conversion to
// int cannot overflow (int(lambda) is implementation-defined for
// lambda ≥ 2⁶³ — saturating on arm64, wrapping negative on amd64) and
// the O(√lambda) mode walk stays bounded.
const maxPoissonLambda = 1 << 30

// Poisson returns a sample from Poisson(lambda), the task-arrival and
// task-completion distribution of the dynamic workload layer
// (package dynamics). Like Binomial, it inverts the CDF exactly: for
// small lambda by walking up from 0, for large lambda by walking outward
// from the mode with the pmf recurrence pmf(k+1) = pmf(k)·λ/(k+1), which
// costs O(sqrt(lambda)) expected steps. Rates above maxPoissonLambda
// (including +Inf) are clamped to it.
func (r *Stream) Poisson(lambda float64) int {
	if lambda <= 0 || math.IsNaN(lambda) {
		return 0
	}
	if lambda > maxPoissonLambda {
		lambda = maxPoissonLambda
	}
	if lambda < 30 {
		pmf := math.Exp(-lambda)
		u := r.Float64()
		acc := pmf
		k := 0
		// The tail bound keeps the walk finite even if u lands in the
		// floating-point residue above the accumulated CDF.
		for u >= acc && k < 1<<20 {
			k++
			pmf *= lambda / float64(k)
			acc += pmf
		}
		return k
	}

	return poissonModeWalk(lambda, r.Float64())
}

// poissonModeWalk inverts the Poisson(lambda) CDF at u by walking
// outward from the mode, k = mode, mode+1, mode-1, ..., with the pmf
// recurrences pmf(k+1) = pmf(k)·λ/(k+1) and pmf(k-1) = pmf(k)·k/λ. As in
// binomialModeWalk, the uniform is a parameter so tests can force the
// residue path with u at the top of [0,1).
func poissonModeWalk(lambda, u float64) int {
	mode := int(math.Floor(lambda))
	lg, _ := math.Lgamma(float64(mode + 1))
	pmfMode := math.Exp(float64(mode)*math.Log(lambda) - lambda - lg)
	upK, upPmf := mode, pmfMode
	downK, downPmf := mode, pmfMode
	acc := pmfMode
	last := mode // last support point consumed by the walk
	if u < acc {
		return mode
	}
	for {
		advanced := false
		if upPmf > 0 {
			upPmf *= lambda / float64(upK+1)
			upK++
			acc += upPmf
			if u < acc {
				return upK
			}
			last = upK
			advanced = true
		}
		if downK > 0 {
			downPmf *= float64(downK) / lambda
			downK--
			acc += downPmf
			if u < acc {
				return downK
			}
			last = downK
			advanced = true
		}
		if !advanced {
			// Entire representable support consumed; u landed in the
			// floating-point residue above the accumulated mass (about
			// 1.5·10⁻¹³ of [0,1) at λ = 1000). Return the last point the
			// walk consumed, the far upper tail, not the mode: inversion
			// maps the top of [0,1) to the top of the support.
			return last
		}
	}
}

// EqualSplit distributes n trials uniformly over k equally likely
// categories (a multinomial with equal probabilities), via sequential
// conditional binomials. The result has k entries summing to n.
func (r *Stream) EqualSplit(n, k int) []int {
	// Guard before the allocation: make([]int, k) panics for k < 0
	// (found by FuzzEqualSplit).
	if k <= 0 {
		return nil
	}
	counts := make([]int, k)
	if n <= 0 {
		return counts
	}
	remaining := n
	for i := 0; i < k-1 && remaining > 0; i++ {
		c := r.Binomial(remaining, 1/float64(k-i))
		counts[i] = c
		remaining -= c
	}
	counts[k-1] = remaining
	return counts
}

// EqualSplitInto is EqualSplit without the allocation: it fills dst[:k]
// (dst must have at least k elements) with the identical draws —
// the same conditional binomials in the same order — and returns
// dst[:k]. Engines whose decide loop must not allocate (package shard)
// reuse one scratch buffer across nodes.
func (r *Stream) EqualSplitInto(n, k int, dst []int64) []int64 {
	if k <= 0 {
		return nil
	}
	counts := dst[:k]
	for i := range counts {
		counts[i] = 0
	}
	if n <= 0 {
		return counts
	}
	remaining := n
	for i := 0; i < k-1 && remaining > 0; i++ {
		c := r.Binomial(remaining, 1/float64(k-i))
		counts[i] = int64(c)
		remaining -= c
	}
	counts[k-1] = int64(remaining)
	return counts
}

// Multinomial distributes n trials over len(probs) categories with the
// given probabilities (which must be non-negative; they are normalized by
// their sum). The result slice has one count per category and sums to n.
// Sampling is by sequential conditional binomials, which is exact.
func (r *Stream) Multinomial(n int, probs []float64) []int {
	return r.MultinomialInto(n, probs, make([]int, len(probs)))
}

// MultinomialInto is Multinomial without the allocation: it fills
// dst[:len(probs)] (dst must have at least len(probs) elements) with the
// identical draws — the same conditional binomials in the same order —
// and returns dst[:len(probs)]. Multinomial delegates here, so the two
// are draw-identical by construction; engines whose decide loop must not
// allocate (package shard) reuse one scratch buffer across nodes.
func (r *Stream) MultinomialInto(n int, probs []float64, dst []int) []int {
	counts := dst[:len(probs)]
	for i := range counts {
		counts[i] = 0
	}
	if n <= 0 || len(probs) == 0 {
		return counts
	}
	total := 0.0
	lastPos := -1 // index of the last positive-probability category
	for i, p := range probs {
		if p > 0 {
			total += p
			lastPos = i
		}
	}
	if lastPos < 0 {
		// Degenerate all-zero vector: keep the historical sum==n
		// invariant by stacking everything on the last category.
		counts[len(counts)-1] = n
		return counts
	}
	remaining := n
	for i, p := range probs {
		if remaining == 0 {
			break
		}
		if p <= 0 {
			continue
		}
		if i == lastPos {
			// The exact conditional probability of the final positive
			// category is 1; assigning directly avoids a drift-polluted
			// Binomial draw and guarantees zero-probability categories
			// (including a zero-probability final slot) never receive
			// the remainder.
			counts[i] = remaining
			remaining = 0
			break
		}
		// Clamp the conditional probability into [0,1]: the running
		// total -= p accumulates floating-point drift, which for
		// adversarial vectors (many tiny entries, catastrophic
		// cancellation against a large one) can push total below p — or
		// to zero — while positive-probability categories remain.
		// Without the clamp those categories would draw from a garbage
		// conditional; with it they absorb the remaining trials, the
		// correct limit of the conditional chain.
		cp := 1.0
		if total > p {
			cp = p / total
		}
		c := r.Binomial(remaining, cp)
		counts[i] = c
		remaining -= c
		total -= p
	}
	return counts
}
