package core

import "math"

// Theoretical quantities from the paper's analysis. These power the
// analytic reproduction of Table 1 and the experiment harness's
// predicted-vs-measured comparisons.

// Gamma returns γ with 1/γ = λ₂/(32·Δ·s_max²) (Lemma 3.11): the
// multiplicative-drop time constant of Ψ₀.
func (s *System) Gamma() float64 {
	return 32 * float64(s.maxDeg) * s.sMax * s.sMax / s.lambda2
}

// PsiCritical returns ψ_c = 16·n·Δ·s_max/λ₂ as used in the statement of
// Theorem 1.1. (Definition 3.12 uses the constant 8; the theorem and the
// proofs of Lemmas 3.15/3.17 work with 16 — we follow the theorem.)
func (s *System) PsiCritical() float64 {
	return 16 * float64(s.g.N()) * float64(s.maxDeg) * s.sMax / s.lambda2
}

// PsiCriticalWeighted returns ψ_c = 16·n·Δ/λ₂ · s_max/s_min² for the
// weighted model (Theorem 1.3).
func (s *System) PsiCriticalWeighted() float64 {
	return 16 * float64(s.g.N()) * float64(s.maxDeg) / s.lambda2 * s.sMax / (s.sMin * s.sMin)
}

// ApproxPhaseRounds returns T = 2·γ·ln(m/n) (Lemma 3.15): after T rounds
// Ψ₀ ≤ 4ψ_c holds with probability ≥ 3/4, and the expected time to reach
// such a state is at most 2T (Theorem 1.1).
func (s *System) ApproxPhaseRounds(m int64) float64 {
	ratio := float64(m) / float64(s.g.N())
	if ratio < math.E {
		ratio = math.E // the bound is vacuous below m ≈ n·e; floor the log at 1
	}
	return 2 * s.Gamma() * math.Log(ratio)
}

// ExactPhaseRounds returns the Theorem 1.2 bound on the expected time to
// an exact Nash equilibrium with speed granularity eps:
// 607·Δ²·s_max⁴/ε̄² · n/λ₂ (the explicit constant from the proof).
func (s *System) ExactPhaseRounds(eps float64) float64 {
	d := float64(s.maxDeg)
	return 607 * d * d * math.Pow(s.sMax, 4) / (eps * eps) * float64(s.g.N()) / s.lambda2
}

// WeightedApproxPhaseRounds returns the Theorem 1.3 convergence bound
// O(ln(m/n)·Δ/λ₂·s_max²/s_min), with the same 2·2·32 constant structure
// as the uniform case (the proof reuses Lemmas 3.9–3.15).
func (s *System) WeightedApproxPhaseRounds(m int64) float64 {
	ratio := float64(m) / float64(s.g.N())
	if ratio < math.E {
		ratio = math.E
	}
	gammaW := 32 * float64(s.maxDeg) * s.sMax * s.sMax / (s.lambda2 * s.sMin)
	return 2 * 2 * gammaW * math.Log(ratio)
}

// ApproxNETaskThreshold returns the Lemma 3.17 threshold: if
// m ≥ 8·δ·s_max·S·n², a state with Ψ₀ ≤ 4ψ_c is a 2/(1+δ)-approximate NE.
func (s *System) ApproxNETaskThreshold(delta float64) float64 {
	n := float64(s.g.N())
	return 8 * delta * s.sMax * s.sSum * n * n
}

// WeightedApproxNEWeightThreshold returns the Theorem 1.3 threshold on
// total weight: W > 8·δ·(s_max/s_min)·S·n².
func (s *System) WeightedApproxNEWeightThreshold(delta float64) float64 {
	n := float64(s.g.N())
	return 8 * delta * s.sMax / s.sMin * s.sSum * n * n
}

// EpsilonForDelta returns ε = 2/(1+δ) (Lemma 3.17 / Theorem 1.1).
func EpsilonForDelta(delta float64) float64 { return 2 / (1 + delta) }

// LDeltaBoundFromPsi0 returns the Observation 3.16 sandwich:
// L_Δ² ≤ Ψ₀ ≤ S·L_Δ², i.e. L_Δ ≤ √Ψ₀.
func LDeltaBoundFromPsi0(psi0 float64) float64 { return math.Sqrt(psi0) }

// BlocksForConfidence returns the number of T-round blocks needed for
// success probability ≥ 1 − 1/n^c per Corollaries 3.18 and 3.27:
// ⌈c·log₄(n)⌉. By Lemma 3.15 each block of T = ApproxPhaseRounds rounds
// succeeds with probability ≥ 3/4 from any start, so a run checked after
// every block (RunOpts.CheckEvery = T) needs at most this many blocks.
func BlocksForConfidence(n int, c float64) int {
	if n < 2 || c <= 0 {
		return 1
	}
	log4 := math.Log2(float64(n)) / 2
	b := int(c*log4) + 1
	if b < 1 {
		b = 1
	}
	return b
}
