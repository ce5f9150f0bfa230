// Package stats provides the statistics used by the experiment harness:
// streaming moments (Welford), quantiles and ordinary least squares —
// including the log–log regression used to extract empirical scaling
// exponents from convergence-time sweeps.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrInsufficientData is returned when an estimator needs more samples.
var ErrInsufficientData = errors.New("stats: insufficient data")

// Welford accumulates streaming mean and variance.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add incorporates a sample.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the sample count.
func (w *Welford) N() int { return w.n }

// Mean returns the sample mean (0 for no samples).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the unbiased sample variance.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// StdErr returns the standard error of the mean.
func (w *Welford) StdErr() float64 {
	if w.n == 0 {
		return 0
	}
	return w.StdDev() / math.Sqrt(float64(w.n))
}

// Mean returns the mean of xs.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation on the sorted sample.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrInsufficientData
	}
	if q < 0 || q > 1 {
		return 0, fmt.Errorf("stats: quantile %g outside [0,1]", q)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// LinearFit is an ordinary least squares fit y ≈ Slope·x + Intercept.
type LinearFit struct {
	Slope, Intercept float64
	// R2 is the coefficient of determination.
	R2 float64
}

// FitLinear performs OLS on (x, y) pairs.
func FitLinear(x, y []float64) (LinearFit, error) {
	if len(x) != len(y) {
		return LinearFit{}, fmt.Errorf("stats: mismatched lengths %d vs %d", len(x), len(y))
	}
	if len(x) < 2 {
		return LinearFit{}, ErrInsufficientData
	}
	n := float64(len(x))
	mx, my := Mean(x), Mean(y)
	sxx, sxy, syy := 0.0, 0.0, 0.0
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return LinearFit{}, fmt.Errorf("stats: degenerate x values")
	}
	slope := sxy / sxx
	fit := LinearFit{Slope: slope, Intercept: my - slope*mx}
	if syy > 0 {
		fit.R2 = sxy * sxy / (sxx * syy)
	} else {
		fit.R2 = 1
	}
	_ = n
	return fit, nil
}

// FitPowerLaw fits y ≈ C·x^Exponent by OLS in log–log space. All inputs
// must be positive.
func FitPowerLaw(x, y []float64) (exponent, coeff, r2 float64, err error) {
	if len(x) != len(y) || len(x) < 2 {
		return 0, 0, 0, ErrInsufficientData
	}
	lx := make([]float64, len(x))
	ly := make([]float64, len(y))
	for i := range x {
		if x[i] <= 0 || y[i] <= 0 {
			return 0, 0, 0, fmt.Errorf("stats: power-law fit requires positive data, got (%g,%g)", x[i], y[i])
		}
		lx[i] = math.Log(x[i])
		ly[i] = math.Log(y[i])
	}
	fit, err := FitLinear(lx, ly)
	if err != nil {
		return 0, 0, 0, err
	}
	return fit.Slope, math.Exp(fit.Intercept), fit.R2, nil
}
