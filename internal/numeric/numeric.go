// Package numeric holds the small numeric helpers shared across the
// repository: harmonic numbers (used by the Upsilon_H ranking function and
// its 1/H_k approximation bound in Section 5.3) and tolerant floating
// point comparison for cross-checking algebraic computations against
// enumeration.
package numeric

import "math"

// DefaultTol is the absolute/relative tolerance used when comparing
// probabilities computed by two independent methods (generating functions
// vs. possible-world enumeration).  Enumeration instances are kept small so
// accumulated float error stays far below this.
const DefaultTol = 1e-9

// Harmonic returns the k-th harmonic number H_k = sum_{i=1..k} 1/i, with
// H_0 = 0.
func Harmonic(k int) float64 {
	s := 0.0
	for i := k; i >= 1; i-- { // summing small-to-large reduces error
		s += 1 / float64(i)
	}
	return s
}

// AlmostEqual reports whether a and b are equal within tol, interpreted as
// an absolute tolerance for small magnitudes and relative otherwise.
func AlmostEqual(a, b, tol float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	if diff <= tol {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= tol*scale
}
