package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBinomialEdgeCases(t *testing.T) {
	r := New(1)
	cases := []struct {
		n    int
		p    float64
		want int
	}{
		{0, 0.5, 0},
		{-3, 0.5, 0},
		{10, 0, 0},
		{10, -1, 0},
		{10, 1, 10},
		{10, 2, 10},
	}
	for _, c := range cases {
		if got := r.Binomial(c.n, c.p); got != c.want {
			t.Errorf("Binomial(%d,%g) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
}

func TestBinomialRange(t *testing.T) {
	f := func(seed uint64, n int, p float64) bool {
		if n < 0 {
			n = -n
		}
		n %= 10000
		p = math.Abs(p)
		p -= math.Floor(p) // p in [0,1)
		k := New(seed).Binomial(n, p)
		return k >= 0 && k <= n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestBinomialMoments(t *testing.T) {
	cases := []struct {
		n int
		p float64
	}{
		{5, 0.3},
		{12, 0.5},
		{100, 0.05},
		{1000, 0.9},
		{100000, 0.001},
		{100000, 0.5},
	}
	r := New(77)
	const trials = 20000
	for _, c := range cases {
		sum, sumSq := 0.0, 0.0
		for i := 0; i < trials; i++ {
			k := float64(r.Binomial(c.n, c.p))
			sum += k
			sumSq += k * k
		}
		mean := sum / trials
		variance := sumSq/trials - mean*mean
		wantMean := float64(c.n) * c.p
		wantVar := float64(c.n) * c.p * (1 - c.p)
		// 6-sigma tolerance on the sample mean.
		tol := 6 * math.Sqrt(wantVar/trials)
		if math.Abs(mean-wantMean) > tol+1e-9 {
			t.Errorf("Binomial(%d,%g): mean %.3f, want %.3f ± %.3f", c.n, c.p, mean, wantMean, tol)
		}
		if wantVar > 0 && math.Abs(variance-wantVar)/wantVar > 0.1 {
			t.Errorf("Binomial(%d,%g): variance %.3f, want %.3f", c.n, c.p, variance, wantVar)
		}
	}
}

func TestBinomialExactPMFSmall(t *testing.T) {
	// Chi-squared-style check of the full pmf for a small case.
	const n, trials = 6, 120000
	const p = 0.37
	r := New(88)
	counts := make([]int, n+1)
	for i := 0; i < trials; i++ {
		counts[r.Binomial(n, p)]++
	}
	choose := func(n, k int) float64 {
		return math.Exp(logChoose(n, k))
	}
	for k := 0; k <= n; k++ {
		want := choose(n, k) * math.Pow(p, float64(k)) * math.Pow(1-p, float64(n-k)) * trials
		if want < 20 {
			continue
		}
		got := float64(counts[k])
		if math.Abs(got-want) > 6*math.Sqrt(want) {
			t.Errorf("pmf(%d): observed %d, expected %.0f", k, counts[k], want)
		}
	}
}

func TestLogChoose(t *testing.T) {
	cases := []struct {
		n, k int
		want float64
	}{
		{10, 0, 0},
		{10, 10, 0},
		{4, 2, math.Log(6)},
		{10, 3, math.Log(120)},
		{52, 5, math.Log(2598960)},
	}
	for _, c := range cases {
		if got := logChoose(c.n, c.k); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("logChoose(%d,%d) = %g, want %g", c.n, c.k, got, c.want)
		}
	}
	if !math.IsInf(logChoose(5, 6), -1) || !math.IsInf(logChoose(5, -1), -1) {
		t.Error("logChoose outside support should be -Inf")
	}
}

func TestMultinomialSumsToN(t *testing.T) {
	f := func(seed uint64, n int) bool {
		if n < 0 {
			n = -n
		}
		n %= 5000
		probs := []float64{0.1, 0.4, 0.2, 0.3}
		counts := New(seed).Multinomial(n, probs)
		sum := 0
		for _, c := range counts {
			if c < 0 {
				return false
			}
			sum += c
		}
		return sum == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMultinomialZeroProbability(t *testing.T) {
	r := New(5)
	counts := r.Multinomial(1000, []float64{0, 1, 0})
	if counts[0] != 0 || counts[2] != 0 || counts[1] != 1000 {
		t.Fatalf("Multinomial with point mass misallocated: %v", counts)
	}
}

func TestMultinomialMeans(t *testing.T) {
	r := New(6)
	probs := []float64{0.5, 0.25, 0.25}
	const n, trials = 100, 20000
	sums := make([]float64, len(probs))
	for i := 0; i < trials; i++ {
		for j, c := range r.Multinomial(n, probs) {
			sums[j] += float64(c)
		}
	}
	for j, p := range probs {
		mean := sums[j] / trials
		want := float64(n) * p
		if math.Abs(mean-want) > 0.5 {
			t.Errorf("category %d mean %.2f, want %.2f", j, mean, want)
		}
	}
}

func TestEqualSplitSumsToN(t *testing.T) {
	f := func(seed uint64, n, k int) bool {
		if n < 0 {
			n = -n
		}
		if k < 0 {
			k = -k
		}
		n %= 10000
		k = k%64 + 1
		counts := New(seed).EqualSplit(n, k)
		if len(counts) != k {
			return false
		}
		sum := 0
		for _, c := range counts {
			if c < 0 {
				return false
			}
			sum += c
		}
		return sum == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEqualSplitUniform(t *testing.T) {
	r := New(7)
	const n, k, trials = 60, 6, 20000
	sums := make([]float64, k)
	for i := 0; i < trials; i++ {
		for j, c := range r.EqualSplit(n, k) {
			sums[j] += float64(c)
		}
	}
	want := float64(n) / k
	for j := range sums {
		mean := sums[j] / trials
		if math.Abs(mean-want) > 0.3 {
			t.Errorf("slot %d mean %.2f, want %.2f", j, mean, want)
		}
	}
}

func TestPoissonEdgeCases(t *testing.T) {
	r := New(1)
	if got := r.Poisson(0); got != 0 {
		t.Errorf("Poisson(0) = %d, want 0", got)
	}
	if got := r.Poisson(-3); got != 0 {
		t.Errorf("Poisson(-3) = %d, want 0", got)
	}
	if got := r.Poisson(math.NaN()); got != 0 {
		t.Errorf("Poisson(NaN) = %d, want 0", got)
	}
	// Rates beyond the int-safe range clamp instead of overflowing the
	// mode conversion (int(lambda) is implementation-defined ≥ 2⁶³).
	for _, l := range []float64{1e19, math.Inf(1), math.MaxFloat64} {
		if got := r.Poisson(l); got < 0 {
			t.Errorf("Poisson(%g) = %d, want ≥ 0", l, got)
		}
	}
}

// TestPoissonMoments checks the sample mean and variance against
// lambda on both the small-lambda inversion path and the large-lambda
// mode-walk path.
func TestPoissonMoments(t *testing.T) {
	for _, lambda := range []float64{0.3, 2.5, 12, 29.9, 30, 75, 400} {
		r := New(77)
		const trials = 20000
		sum, sumSq := 0.0, 0.0
		for i := 0; i < trials; i++ {
			k := float64(r.Poisson(lambda))
			sum += k
			sumSq += k * k
		}
		mean := sum / trials
		variance := sumSq/trials - mean*mean
		// Standard error of the mean is sqrt(lambda/trials); allow 5σ.
		tol := 5 * math.Sqrt(lambda/trials)
		if math.Abs(mean-lambda) > tol {
			t.Errorf("lambda=%g: mean %.3f, want %.3f ± %.3f", lambda, mean, lambda, tol)
		}
		if math.Abs(variance-lambda) > 0.1*lambda+tol*5 {
			t.Errorf("lambda=%g: variance %.3f, want ≈ %.3f", lambda, variance, lambda)
		}
	}
}

// TestPoissonDeterministic pins the keying contract: the same stream
// position yields the same sample.
func TestPoissonDeterministic(t *testing.T) {
	for _, lambda := range []float64{0.9, 17, 64} {
		a, b := New(5), New(5)
		for i := 0; i < 200; i++ {
			if ka, kb := a.Poisson(lambda), b.Poisson(lambda); ka != kb {
				t.Fatalf("lambda=%g draw %d: %d != %d", lambda, i, ka, kb)
			}
		}
	}
}

// TestPoissonModeWalkResidue pins the residue rule of Poisson's mode
// walk, the same rule TestBinomialModeWalkResidue pins for Binomial: at
// λ = 1000 the walk accumulates only 1 − 1.5·10⁻¹³ of mass, so the top
// uniform 1 − 2⁻⁵³ lands above it and must map to the far upper tail,
// not back to the mode. The rule changes no draw count: the mode-walk
// path consumes exactly one uniform.
func TestPoissonModeWalkResidue(t *testing.T) {
	if got := poissonModeWalk(1000, 1-0x1p-53); got <= 2000 {
		t.Errorf("poissonModeWalk(1000, 1−2⁻⁵³) = %d, want the upper tail (> 2000)", got)
	}
	if got := poissonModeWalk(1000, 0.5); got < 950 || got > 1050 {
		t.Errorf("poissonModeWalk(1000, 0.5) = %d, want near the median 1000", got)
	}
	a, b := New(5), New(5)
	a.Poisson(1000)
	b.Float64()
	if x, y := a.Uint64(), b.Uint64(); x != y {
		t.Errorf("Poisson(1000) did not consume exactly one uniform")
	}
}

// TestPoissonExactPMFSmall compares the sampled distribution with the
// exact pmf for a small lambda (chi-squared-style absolute check).
func TestPoissonExactPMFSmall(t *testing.T) {
	const lambda = 3.0
	const trials = 60000
	r := New(11)
	histogram := make([]int, 30)
	for i := 0; i < trials; i++ {
		k := r.Poisson(lambda)
		if k < len(histogram) {
			histogram[k]++
		}
	}
	pmf := math.Exp(-lambda)
	for k := 0; k < 12; k++ {
		got := float64(histogram[k]) / trials
		if math.Abs(got-pmf) > 0.01 {
			t.Errorf("P(X=%d): sampled %.4f, exact %.4f", k, got, pmf)
		}
		pmf *= lambda / float64(k+1)
	}
}

func BenchmarkPoissonSmall(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		r.Poisson(4)
	}
}

func BenchmarkPoissonLarge(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		r.Poisson(5000)
	}
}

func BenchmarkBinomialSmallNP(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		r.Binomial(1000, 0.002)
	}
}

func BenchmarkBinomialLargeNP(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		r.Binomial(1_000_000, 0.4)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		r.Uint64()
	}
}

// TestEqualSplitIntoMatchesEqualSplit pins the allocation-free variant:
// for identical stream states it must consume the same randomness and
// produce the same counts as EqualSplit.
func TestEqualSplitIntoMatchesEqualSplit(t *testing.T) {
	buf := make([]int64, 64)
	for _, tc := range []struct{ n, k int }{
		{0, 4}, {1, 1}, {5, 3}, {100, 7}, {64, 64}, {1000, 2}, {3, 8},
	} {
		a, b := New(42), New(42)
		want := a.EqualSplit(tc.n, tc.k)
		got := b.EqualSplitInto(tc.n, tc.k, buf)
		if len(got) != len(want) {
			t.Fatalf("n=%d k=%d: len %d, want %d", tc.n, tc.k, len(got), len(want))
		}
		for i := range want {
			if got[i] != int64(want[i]) {
				t.Fatalf("n=%d k=%d slot %d: %d, want %d", tc.n, tc.k, i, got[i], want[i])
			}
		}
		// Post-state must agree too: the same draws were consumed.
		if a.Uint64() != b.Uint64() {
			t.Fatalf("n=%d k=%d: stream states diverged", tc.n, tc.k)
		}
	}
	if got := New(1).EqualSplitInto(5, 0, buf); got != nil {
		t.Fatalf("k=0: got %v, want nil", got)
	}
	// A dirty buffer must not leak into the result.
	for i := range buf {
		buf[i] = -7
	}
	got := New(9).EqualSplitInto(0, 5, buf)
	for i, v := range got {
		if v != 0 {
			t.Fatalf("n=0 slot %d: %d, want 0", i, v)
		}
	}
}

// TestMultinomialIntoMatchesMultinomial pins the draw identity the
// engines rely on: MultinomialInto must consume the stream exactly like
// Multinomial and produce the identical counts, including into a dirty
// reused buffer.
func TestMultinomialIntoMatchesMultinomial(t *testing.T) {
	dirty := make([]int, 16)
	for trial := 0; trial < 50; trial++ {
		seed := uint64(trial + 1)
		gen := New(seed * 31)
		k := 1 + gen.Intn(8)
		probs := make([]float64, k)
		for i := range probs {
			probs[i] = gen.Float64()
		}
		if trial%3 == 0 {
			probs[gen.Intn(k)] = 0 // zero-probability categories
		}
		n := gen.Intn(1000)
		a, b := New(seed), New(seed)
		want := a.Multinomial(n, probs)
		for i := range dirty {
			dirty[i] = -7
		}
		got := b.MultinomialInto(n, probs, dirty)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d counts, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: counts[%d] = %d, want %d", trial, i, got[i], want[i])
			}
		}
		if a.Uint64() != b.Uint64() {
			t.Fatalf("trial %d: stream positions diverged", trial)
		}
	}
}
