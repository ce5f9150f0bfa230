package stats

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestWelfordAgainstDirect(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	if w.N() != len(xs) {
		t.Errorf("N = %d", w.N())
	}
	if math.Abs(w.Mean()-5) > 1e-12 {
		t.Errorf("mean %g, want 5", w.Mean())
	}
	// Unbiased sample variance of this classic dataset is 32/7.
	if math.Abs(w.Variance()-32.0/7) > 1e-12 {
		t.Errorf("variance %g, want %g", w.Variance(), 32.0/7)
	}
	if w.StdErr() <= 0 {
		t.Error("non-positive stderr")
	}
}

func TestWelfordMatchesNaive(t *testing.T) {
	f := func(seed uint64) bool {
		stream := rng.New(seed)
		n := 2 + stream.Intn(100)
		xs := make([]float64, n)
		var w Welford
		for i := range xs {
			xs[i] = stream.NormFloat64() * 10
			w.Add(xs[i])
		}
		mean := Mean(xs)
		ss := 0.0
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		naiveVar := ss / float64(n-1)
		return math.Abs(w.Mean()-mean) < 1e-9 && math.Abs(w.Variance()-naiveVar) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 5}, {0.5, 3}, {0.25, 2}, {0.1, 1.4},
	}
	for _, c := range cases {
		got, err := Quantile(xs, c.q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if _, err := Quantile(nil, 0.5); !errors.Is(err, ErrInsufficientData) {
		t.Errorf("empty sample: %v", err)
	}
	if _, err := Quantile(xs, 1.5); err == nil {
		t.Error("q > 1 accepted")
	}
}

func TestFitLinearExact(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{5, 7, 9, 11} // y = 2x + 3
	fit, err := FitLinear(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope-2) > 1e-12 || math.Abs(fit.Intercept-3) > 1e-12 {
		t.Errorf("fit %+v", fit)
	}
	if math.Abs(fit.R2-1) > 1e-12 {
		t.Errorf("R² = %g, want 1", fit.R2)
	}
}

func TestFitLinearValidation(t *testing.T) {
	if _, err := FitLinear([]float64{1}, []float64{1}); !errors.Is(err, ErrInsufficientData) {
		t.Errorf("single point: %v", err)
	}
	if _, err := FitLinear([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, err := FitLinear([]float64{2, 2}, []float64{1, 3}); err == nil {
		t.Error("degenerate x accepted")
	}
}

func TestFitPowerLawExact(t *testing.T) {
	// y = 5·x³.
	x := []float64{1, 2, 4, 8, 16}
	y := make([]float64, len(x))
	for i := range x {
		y[i] = 5 * math.Pow(x[i], 3)
	}
	exp, coeff, r2, err := FitPowerLaw(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(exp-3) > 1e-9 || math.Abs(coeff-5) > 1e-9 || math.Abs(r2-1) > 1e-12 {
		t.Errorf("exp=%g coeff=%g R²=%g", exp, coeff, r2)
	}
}

func TestFitPowerLawRejectsNonPositive(t *testing.T) {
	if _, _, _, err := FitPowerLaw([]float64{1, 2}, []float64{0, 3}); err == nil {
		t.Error("zero y accepted")
	}
	if _, _, _, err := FitPowerLaw([]float64{1}, []float64{1}); !errors.Is(err, ErrInsufficientData) {
		t.Errorf("single point: %v", err)
	}
}

func TestMeanEmpty(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
}
