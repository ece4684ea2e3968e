// Package approx is the adaptive Monte-Carlo evaluation backend of the
// serving engine: sampling-based estimators for the same quantities the
// exact generating-function algorithms compute (rank distributions,
// world-size statistics, membership marginals, mean top-k answers), with
// distribution-free error guarantees.
//
// The exact algorithms of Sections 4-5 are polynomial but their cost grows
// like n^2 k^2 on an n-alternative tree, which prices large trees out of
// interactive serving; the paper itself falls back to sampling for
// quantities with no closed form (e.g. the mean Kendall distance).  Every
// estimator here accepts an error budget (epsilon, delta) and reports a
// confidence radius: with probability at least 1-delta, every returned
// estimate lies within radius <= epsilon of the true value.  Guarantees
// come from Hoeffding bounds (with a union bound over the coordinates of
// vector-valued estimates) tightened by empirical-Bernstein early stopping
// where the observed variance allows.
//
// Sampling is sharded across workers, each shard owning its own
// deterministically seeded RNG; shard partials are merged in shard order,
// so results are reproducible for a fixed (seed, workers) pair.  All
// entry points take a context and stop sampling promptly on cancellation.
package approx

import (
	"fmt"
	"math"
	"runtime"
)

// Default budget and sampling parameters, applied when the corresponding
// Budget/Options fields are zero.
const (
	// DefaultEpsilon is the default confidence half-width target.
	DefaultEpsilon = 0.02
	// DefaultDelta is the default failure probability.
	DefaultDelta = 0.01
	// DefaultSeed is the RNG seed used when Options.Seed is zero, so
	// repeated identical requests are deterministic (and cacheable).
	DefaultSeed = 1
	// DefaultMaxSamples caps the worlds a single estimate may draw; a
	// budget needing more is rejected rather than silently degraded.
	DefaultMaxSamples = 8 << 20
)

// Budget is an error budget: the estimator must report a confidence
// radius of at most Epsilon holding with probability at least 1-Delta.
type Budget struct {
	// Epsilon is the target half-width of every reported confidence
	// interval, on the estimate's own scale (probabilities and the
	// normalized top-k distances all live in [0, 1]).  Zero selects
	// DefaultEpsilon.
	Epsilon float64
	// Delta is the probability that any reported interval misses its
	// true value.  Zero selects DefaultDelta.
	Delta float64
}

// Validate rejects structurally impossible budgets (negative or NaN
// epsilon, delta outside [0, 1)).  Zero fields are valid: they select the
// defaults.
func (b Budget) Validate() error {
	if b.Epsilon < 0 || math.IsNaN(b.Epsilon) || math.IsInf(b.Epsilon, 0) {
		return fmt.Errorf("approx: epsilon %v must be a non-negative finite number", b.Epsilon)
	}
	if b.Delta < 0 || b.Delta >= 1 || math.IsNaN(b.Delta) {
		return fmt.Errorf("approx: delta %v must lie in [0, 1)", b.Delta)
	}
	return nil
}

// Normalized fills zero Budget fields with the defaults.
func (b Budget) Normalized() Budget {
	if b.Epsilon == 0 {
		b.Epsilon = DefaultEpsilon
	}
	if b.Delta == 0 {
		b.Delta = DefaultDelta
	}
	return b
}

// Options configures the sampling machinery (as opposed to the statistical
// budget).  The zero value selects GOMAXPROCS shards, DefaultSeed and
// DefaultMaxSamples.
type Options struct {
	// Workers is the number of sampling shards; <= 0 selects GOMAXPROCS.
	Workers int
	// Seed is the base RNG seed; shard i derives its own stream from it.
	// Zero selects DefaultSeed.
	Seed int64
	// MaxSamples caps the total worlds one estimate may draw; <= 0
	// selects DefaultMaxSamples.
	MaxSamples int
}

func (o Options) normalized() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Seed == 0 {
		o.Seed = DefaultSeed
	}
	if o.MaxSamples <= 0 {
		o.MaxSamples = DefaultMaxSamples
	}
	return o
}

// Info reports the realized accuracy of a vector-valued estimate.
type Info struct {
	// Radius is the confidence half-width holding simultaneously for
	// every coordinate with probability 1-delta; always <= epsilon.
	Radius float64
	// Samples is the number of worlds drawn.
	Samples int
}

// Estimate is a scalar estimate with its realized accuracy.
type Estimate struct {
	// Value is the estimated expectation.
	Value float64
	// Radius is the confidence half-width at the budget's delta.
	Radius float64
	// Samples is the number of worlds drawn; adaptive stopping may need
	// far fewer than the Hoeffding worst case when the variance is small.
	Samples int
}

// FixedSamples returns the Hoeffding-sufficient sample count for a
// [0,1]-valued mean under the budget, erroring out when the budget needs
// more than max draws (<= 0 selects DefaultMaxSamples).  Exposed for
// callers that sample outside this package (e.g. the engine's consensus-
// ranking sampler) but want the same budget arithmetic and caps.
func FixedSamples(b Budget, max int) (int, error) {
	b = b.Normalized()
	if max <= 0 {
		max = DefaultMaxSamples
	}
	return hoeffdingSamples(b.Epsilon, b.Delta, max)
}

// FixedRadius returns the realized (1-delta) confidence half-width of a
// mean of n samples of a [0,1]-bounded quantity under the budget: the
// Radius companion of FixedSamples.
func FixedRadius(n int, b Budget) float64 {
	return HoeffdingRadius(n, 0, 1, b.Normalized().Delta)
}

// HoeffdingRadius returns the half-width of the (1-delta) confidence
// interval for a mean of n samples of a quantity bounded in [lo, hi]:
// (hi-lo) * sqrt(ln(2/delta) / (2n)).
func HoeffdingRadius(n int, lo, hi, delta float64) float64 {
	if n <= 0 || hi <= lo || delta <= 0 || delta >= 1 {
		return math.Inf(1)
	}
	return (hi - lo) * math.Sqrt(math.Log(2/delta)/(2*float64(n)))
}

// hoeffdingSamples returns the sample count sufficient for a (1-delta)
// confidence half-width of at most eps on a [0,1]-valued mean, erroring
// out when the budget needs more than max draws.  Budgets whose count
// would not even fit an int64 (adversarially tiny eps) are rejected
// rather than overflowed.
func hoeffdingSamples(eps, delta float64, max int) (int, error) {
	if eps <= 0 || delta <= 0 || delta >= 1 {
		return 0, fmt.Errorf("approx: need eps > 0, 0 < delta < 1")
	}
	n := math.Ceil(math.Log(2/delta) / (2 * eps * eps))
	if math.IsNaN(n) || n >= float64(math.MaxInt64) {
		return 0, fmt.Errorf("approx: budget (eps=%g, delta=%g) needs %g samples, beyond any feasible run", eps, delta, n)
	}
	if int(n) > max {
		return 0, fmt.Errorf("approx: budget (epsilon=%g, delta=%g) needs %d samples, above the %d cap; loosen the budget", eps, delta, int(n), max)
	}
	if n < 1 {
		n = 1
	}
	return int(n), nil
}

// bernsteinRadius is the empirical-Bernstein (1-delta) half-width for a
// mean of n samples of a [0,1]-bounded quantity with sample variance v
// (Audibert, Munos and Szepesvari): unlike Hoeffding it shrinks with the
// observed variance, so low-variance estimates stop early.
func bernsteinRadius(n int, v, delta float64) float64 {
	if n <= 1 {
		return math.Inf(1)
	}
	l := math.Log(3 / delta)
	return math.Sqrt(2*v*l/float64(n)) + 3*l/float64(n)
}
