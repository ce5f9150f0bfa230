package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(12345)
	b := New(12345)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seeds diverged at draw %d", i)
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with different seeds agreed on %d/100 draws", same)
	}
}

func TestZeroSeedValid(t *testing.T) {
	r := New(0)
	seen := make(map[uint64]bool)
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 99 {
		t.Fatalf("zero-seeded stream produced only %d distinct values in 100 draws", len(seen))
	}
}

func TestSplitStability(t *testing.T) {
	// Split(i) must not depend on how much the parent has been consumed.
	a := New(7)
	childA := a.Split(5)
	b := New(7)
	for i := 0; i < 50; i++ {
		b.Uint64()
	}
	childB := b.Split(5)
	for i := 0; i < 100; i++ {
		if childA.Uint64() != childB.Uint64() {
			t.Fatalf("Split(5) depends on parent consumption (draw %d)", i)
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(99)
	c1 := parent.Split(1)
	c2 := parent.Split(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("sibling splits agreed on %d/1000 draws", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %g", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(4)
	const trials = 200000
	sum := 0.0
	for i := 0; i < trials; i++ {
		sum += r.Float64()
	}
	mean := sum / trials
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("Float64 mean %.4f far from 0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(5)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(6)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Intn(n)]++
	}
	expected := float64(trials) / n
	for v, c := range counts {
		if math.Abs(float64(c)-expected) > 5*math.Sqrt(expected) {
			t.Errorf("Intn(%d): value %d drawn %d times, expected ~%.0f", n, v, c, expected)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(8)
	for _, n := range []int{0, 1, 2, 5, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) returned %d elements", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestShuffleKeepsMultiset(t *testing.T) {
	r := New(9)
	data := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, v := range data {
		sum += v
	}
	r.Shuffle(len(data), func(i, j int) { data[i], data[j] = data[j], data[i] })
	sum2 := 0
	for _, v := range data {
		sum2 += v
	}
	if sum != sum2 {
		t.Fatalf("shuffle changed multiset: %v", data)
	}
}

func TestBernoulliEdgeCases(t *testing.T) {
	r := New(10)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
		if r.Bernoulli(-0.5) {
			t.Fatal("Bernoulli(-0.5) returned true")
		}
		if !r.Bernoulli(1.5) {
			t.Fatal("Bernoulli(1.5) returned false")
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(11)
	const trials = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < trials; i++ {
		x := r.NormFloat64()
		sum += x
		sumSq += x * x
	}
	mean := sum / trials
	variance := sumSq/trials - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("normal mean %.4f far from 0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("normal variance %.4f far from 1", variance)
	}
}

func TestMul64(t *testing.T) {
	cases := []struct {
		a, b, hi, lo uint64
	}{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{1 << 32, 1 << 32, 1, 0},
		{math.MaxUint64, math.MaxUint64, math.MaxUint64 - 1, 1},
	}
	for _, c := range cases {
		hi, lo := mul64(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Errorf("mul64(%d,%d) = (%d,%d), want (%d,%d)", c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
}

func TestSplitDerivationIsPure(t *testing.T) {
	// Property: Split(i) twice from the same parent state yields the same
	// child stream.
	f := func(seed, idx uint64) bool {
		p := New(seed)
		a := p.Split(idx)
		b := p.Split(idx)
		for i := 0; i < 10; i++ {
			if a.Uint64() != b.Uint64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestAtKeyingContract pins the (round, node) stream derivation that the
// sequential and concurrent engines share: At(r, i) ≡ Split(r).Split(i),
// unaffected by how much the parent or siblings have been consumed, and
// stable when called concurrently on one shared base stream.
func TestAtKeyingContract(t *testing.T) {
	base := New(99)
	want := base.Split(7).Split(3).Uint64()
	if got := base.At(7, 3).Uint64(); got != want {
		t.Fatalf("At(7,3) = %d, want Split(7).Split(3) = %d", got, want)
	}
	// Consuming the parent must not perturb the derivation.
	base.Uint64()
	base.Split(7).Uint64()
	if got := base.At(7, 3).Uint64(); got != want {
		t.Fatalf("At(7,3) after parent draws = %d, want %d", got, want)
	}
	// Concurrent derivation from a shared base (run under -race).
	const workers = 8
	results := make([]uint64, workers)
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func(w int) {
			results[w] = base.At(7, 3).Uint64()
			done <- struct{}{}
		}(w)
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	for w, got := range results {
		if got != want {
			t.Fatalf("worker %d: At(7,3) = %d, want %d", w, got, want)
		}
	}
}

// TestSplitToMatchesSplit pins the allocation-free derivation: SplitTo
// must produce a stream whose identity and draw sequence are identical
// to Split's for the same index — it is the same keying contract, just
// written into caller storage.
func TestSplitToMatchesSplit(t *testing.T) {
	base := New(99)
	var scratch Stream
	for _, idx := range []uint64{0, 1, 7, 1 << 40, ^uint64(0)} {
		want := base.Split(idx)
		base.SplitTo(idx, &scratch)
		for k := 0; k < 32; k++ {
			if got, w := scratch.Uint64(), want.Uint64(); got != w {
				t.Fatalf("index %d draw %d: SplitTo %d, Split %d", idx, k, got, w)
			}
		}
		// Children of the reused scratch must also agree.
		if got, w := scratch.Split(3).Uint64(), want.Split(3).Uint64(); got != w {
			t.Fatalf("index %d: grandchild mismatch %d vs %d", idx, got, w)
		}
	}
}

// TestSplitToReuseIsStateless checks that reusing one scratch Stream
// across indices leaves no residue: deriving i after j gives the same
// stream as deriving i fresh.
func TestSplitToReuseIsStateless(t *testing.T) {
	base := New(5)
	var scratch Stream
	base.SplitTo(11, &scratch)
	scratch.Uint64() // consume in between
	base.SplitTo(4, &scratch)
	want := base.Split(4)
	for k := 0; k < 8; k++ {
		if got, w := scratch.Uint64(), want.Uint64(); got != w {
			t.Fatalf("draw %d after reuse: %d, want %d", k, got, w)
		}
	}
}
