// Differential tests for the zero-mass shortcut in the Binomial
// inversion paths. The shortcut may only skip work: every call must
// return the value plain inversion returns and consume the same single
// uniform. The reference below is the sampler as it stood before the
// shortcut; the tests compare against it call by call on streams, point
// by point on dense bands of u around the bound and around pmf(0), and
// under the fuzzer.
package rng

import (
	"math"
	"testing"
)

// refBinomial is Binomial without the shortcut, verbatim apart from
// calling the reference paths below.
func refBinomial(r *Stream, n int, p float64) int {
	switch {
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

	if n < 16 {
		return refBinomialSmall(n, p, r.Float64())
	}

	pmin := p
	if q := 1 - p; q < pmin {
		pmin = q
	}
	if float64(n)*pmin >= btpeMinNP {
		return r.binomialBTPE(n, p)
	}
	return refBinomialModeWalk(n, p, r.Float64())
}

// refBinomialSmall is binomialSmall without the shortcut. The uniform
// is lifted to a parameter, the only edit: it used to be drawn after
// math.Pow, which touches no stream, so the draw order is unchanged.
func refBinomialSmall(n int, p, u float64) int {
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

// refBinomialModeWalk is binomialModeWalk without the shortcut.
func refBinomialModeWalk(n int, p float64, u float64) int {
	q := 1 - p
	mode := int(math.Floor(float64(n+1) * p))
	if mode > n {
		mode = n
	}
	logPmfMode := logChoose(n, mode) + float64(mode)*math.Log(p) + float64(n-mode)*math.Log(q)
	pmfMode := math.Exp(logPmfMode)

	ratio := p / q
	upK, upPmf := mode, pmfMode
	downK, downPmf := mode, pmfMode
	acc := pmfMode
	last := mode
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
			return last
		}
	}
}

// checkZeroShortcutAt compares the inversion path Binomial dispatches
// (n, p) to against its reference at the uniform u. BTPE draws are not
// compared here: that path has no shortcut, and the stream test covers
// it end to end. No t.Helper: the band test calls this millions of
// times, and the messages name the path and its arguments.
func checkZeroShortcutAt(t *testing.T, n int, p, u float64) {
	if n < 16 {
		if got, want := binomialSmall(n, p, u), refBinomialSmall(n, p, u); got != want {
			t.Fatalf("binomialSmall(%d, %g, %v) = %d, reference %d", n, p, u, got, want)
		}
		return
	}
	if float64(n)*math.Min(p, 1-p) >= btpeMinNP {
		return
	}
	if got, want := binomialModeWalk(n, p, u), refBinomialModeWalk(n, p, u); got != want {
		t.Fatalf("binomialModeWalk(%d, %g, %v) = %d, reference %d", n, p, u, got, want)
	}
}

// TestBinomialZeroShortcutStream draws 50 Binomials from each of
// thousands of (seed, n, p) cases, n log-uniform in [2, 2²⁰] and p
// log-uniform in [10⁻¹², 0.6], on a stream and on a twin stream through
// the reference. Every value must match, and so must the next Uint64
// after every call: the shortcut consumes exactly the reference's
// draws.
func TestBinomialZeroShortcutStream(t *testing.T) {
	const cases, calls = 20000, 50
	meta := New(2026)
	lo, hi := math.Log(1e-12), math.Log(0.6)
	positive := 0 // cases whose zero-mass bound is positive
	for c := 0; c < cases; c++ {
		seed := meta.Uint64()
		n := int(math.Round(math.Exp2(1 + 19*meta.Float64())))
		p := math.Exp(lo + (hi-lo)*meta.Float64())
		if zeroMassBound(n, p) > 0 {
			positive++
		}
		a, b := New(seed), New(seed)
		for i := 0; i < calls; i++ {
			if got, want := a.Binomial(n, p), refBinomial(b, n, p); got != want {
				t.Fatalf("seed %d call %d: Binomial(%d, %g) = %d, reference %d", seed, i, n, p, got, want)
			}
			if x, y := a.Uint64(), b.Uint64(); x != y {
				t.Fatalf("seed %d call %d: Binomial(%d, %g) consumed a different number of draws", seed, i, n, p)
			}
		}
	}
	if positive < cases/2 {
		t.Fatalf("only %d of %d cases can take the shortcut; the test is not exercising it", positive, cases)
	}
}

// TestBinomialZeroShortcutBand walks u one ulp at a time across ±2¹⁸
// ulps of the zero-mass bound and of the computed pmf(0), for the small-n
// path and for the mode walk with its mode at 0. Tiny p puts the bound
// and pmf(0) within one band, so the sweep crosses both the point where
// the shortcut stops firing and the point where inversion leaves 0.
func TestBinomialZeroShortcutBand(t *testing.T) {
	const halfWidth = 1 << 18
	sweep := func(n int, p, center float64) {
		below := 0 // points where the shortcut fires
		bound := zeroMassBound(n, p)
		for _, dir := range []float64{0, 1} {
			u := center
			for i := 0; i <= halfWidth; i++ {
				if u >= 0 && u < 1 {
					checkZeroShortcutAt(t, n, p, u)
					if u < bound {
						below++
					}
				}
				u = math.Nextafter(u, dir)
			}
		}
		if center == bound && below == 0 {
			t.Fatalf("n=%d p=%g: the band around the bound %v never takes the shortcut", n, p, bound)
		}
	}
	for _, c := range []struct {
		n int
		p float64
	}{
		// binomialSmall (n < 16).
		{2, 1e-12}, {2, 0x1p-40}, {2, 1e-6}, {2, 0.3},
		{3, 1e-9}, {7, 1e-4}, {15, 1e-12}, {15, 0.05},
		// binomialModeWalk with its mode at 0.
		{16, 1e-12}, {16, 0.05}, {100, 1e-7}, {100, 0.9 / 101},
		{4096, 1e-12}, {4096, 0.5 / 4097}, {1 << 20, 1e-12}, {1 << 20, 0.99 / (1<<20 + 1)},
		// Found by FuzzBinomialZeroShortcut against a margin-free bound
		// 1 − n·p: the computed pmf(0) lies below it here.
		{140, 1.4285714285714284e-13},
	} {
		// pmf(0) as the path computes it.
		pmf0 := math.Pow(1-c.p, float64(c.n))
		if c.n >= 16 {
			if mode := int(math.Floor(float64(c.n+1) * c.p)); mode != 0 {
				t.Fatalf("n=%d p=%g: mode %d, want 0", c.n, c.p, mode)
			}
			pmf0 = math.Exp(logChoose(c.n, 0) + 0*math.Log(c.p) + float64(c.n)*math.Log(1-c.p))
		}
		sweep(c.n, c.p, zeroMassBound(c.n, c.p))
		sweep(c.n, c.p, pmf0)
	}
}

// FuzzBinomialZeroShortcut compares the u-parameterised inversion paths
// with the reference at the fuzzed uniform and at the zero-mass bound
// and its two neighbouring floats, for n in [2, 2²⁰] and 0 < p < 1.
func FuzzBinomialZeroShortcut(f *testing.F) {
	f.Add(2, 1e-12, 0.5)
	f.Add(15, 0.05, 0.4632)
	f.Add(16, 1e-6, 0.99998)
	f.Add(100, 0.009, 0.1)
	f.Add(1<<20, 1e-7, 0.9)
	f.Fuzz(func(t *testing.T, n int, p, u float64) {
		if n < 0 {
			n = -(n + 1)
		}
		n = 2 + n%(1<<20-1)
		if !(p > 0 && p < 1) || math.IsNaN(u) || math.IsInf(u, 0) {
			return
		}
		u = math.Abs(u)
		u -= math.Floor(u)
		b := zeroMassBound(n, p)
		for _, v := range []float64{u, math.Nextafter(b, 0), b, math.Nextafter(b, 1)} {
			if v >= 0 && v < 1 {
				checkZeroShortcutAt(t, n, p, v)
			}
		}
	})
}
