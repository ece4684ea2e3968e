package consensus

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"consensus/internal/approx"
	"consensus/internal/genfunc"
)

// Estimate is a Monte Carlo estimate of an expectation (mean, standard
// error, sample count).
type Estimate struct {
	// Mean is the sample mean of the estimated expectation.
	Mean float64
	// StdErr is the sample standard error (s / sqrt(n)).
	StdErr float64
	// Samples is the number of worlds drawn.
	Samples int
}

// String renders mean ± standard error.
func (e Estimate) String() string {
	return fmt.Sprintf("%.6g ± %.2g (n=%d)", e.Mean, e.StdErr, e.Samples)
}

// Comparison is a paired Monte Carlo comparison of two candidate answers:
// estimates of both expectations and of their difference, all from the
// same world draws (common random numbers), which typically shrinks the
// variance of the difference far below that of independent estimates.
type Comparison struct {
	A, B Estimate
	// Diff estimates E[fA(pw)] - E[fB(pw)].
	Diff Estimate
}

// EstimateExpected estimates E[f(pw)] by sampling possible worlds; use it
// for quantities without a closed form or on databases too large to
// enumerate.
func EstimateExpected(t *Tree, f func(*World) float64, samples int, rng *rand.Rand) (Estimate, error) {
	return EstimateExpectedContext(context.Background(), t, f, samples, rng)
}

// EstimateExpectedContext is EstimateExpected with cancellation: the
// sampling loop stops promptly when ctx is cancelled or its deadline
// passes, returning the context's error.
func EstimateExpectedContext(ctx context.Context, t *Tree, f func(*World) float64, samples int, rng *rand.Rand) (Estimate, error) {
	sum, sumSq := 0.0, 0.0
	err := approx.SampleWorlds(ctx, t, samples, rng, func(w *World) {
		v := f(w)
		sum += v
		sumSq += v * v
	})
	if err != nil {
		return Estimate{}, err
	}
	return sampleEstimate(sum, sumSq, samples), nil
}

// CompareAnswers estimates E[fA(pw)] and E[fB(pw)] with common random
// numbers, which typically gives a far tighter estimate of the difference
// than independent runs.
func CompareAnswers(t *Tree, fA, fB func(*World) float64, samples int, rng *rand.Rand) (Comparison, error) {
	var sa, sqa, sb, sqb, sd, sqd float64
	err := approx.SampleWorlds(context.Background(), t, samples, rng, func(w *World) {
		a, b := fA(w), fB(w)
		sa += a
		sqa += a * a
		sb += b
		sqb += b * b
		d := a - b
		sd += d
		sqd += d * d
	})
	if err != nil {
		return Comparison{}, err
	}
	return Comparison{
		A:    sampleEstimate(sa, sqa, samples),
		B:    sampleEstimate(sb, sqb, samples),
		Diff: sampleEstimate(sd, sqd, samples),
	}, nil
}

// sampleEstimate turns the sum and sum of squares of n samples into the
// sample mean and its standard error.
func sampleEstimate(sum, sumSq float64, n int) Estimate {
	mean := sum / float64(n)
	varr := 0.0
	if n > 1 {
		varr = (sumSq - sum*mean) / float64(n-1)
		if varr < 0 {
			varr = 0
		}
	}
	return Estimate{Mean: mean, StdErr: math.Sqrt(varr / float64(n)), Samples: n}
}

// HoeffdingSamples returns a sample count sufficient for a (1-delta)
// confidence half-width of eps when the estimated quantity lies in
// [lo, hi].
func HoeffdingSamples(eps, lo, hi, delta float64) (int, error) {
	return approx.HoeffdingSamples(eps, lo, hi, delta)
}

// RankDistributionParallel is RankDistribution computed with a worker
// pool (workers <= 0 selects GOMAXPROCS); results are identical.
func RankDistributionParallel(t *Tree, k, workers int) (*RankDist, error) {
	return genfunc.RanksParallel(t, k, workers)
}

// TopKFromWorld returns the top-k answer of a deterministic world,
// deterministic under score ties.
func TopKFromWorld(w *World, k int) TopKList {
	return TopKList(w.TopK(k))
}
