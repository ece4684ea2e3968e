package topk

import (
	"math"
	"math/rand"

	"consensus/internal/andxor"
	"consensus/internal/genfunc"
)

// KendallPivot returns an approximate mean top-k answer under the Kendall
// distance using only the pairwise precedence probabilities
// Pr(r(ti) < r(tj)), which Section 5.5 points out is the only statistic
// Ailon's partial-rank-aggregation algorithm consumes and which the
// generating-function method computes in polynomial time.
//
// The paper's 3/2-approximation rounds an LP; with the standard library
// only, we implement the combinatorial pivot variant instead (quicksort
// with a random pivot on the majority tournament w(i,j) = Pr(r(ti) <
// r(tj)) >= 1/2) and take the first k of the resulting order.  Experiment
// E10 measures its realized quality against the exact optimum and the
// proven bounds of the LP algorithm.  See DESIGN.md, substitutions.
func KendallPivot(t *andxor.Tree, k int, rng *rand.Rand) (List, error) {
	keys := t.Keys()
	if k > len(keys) {
		k = len(keys)
	}
	prec := genfunc.PrecedenceMatrix(t, keys)
	idx := make([]int, len(keys))
	for i := range idx {
		idx[i] = i
	}
	order := pivotSort(idx, prec, rng)
	out := make(List, k)
	for i := 0; i < k; i++ {
		out[i] = keys[order[i]]
	}
	return out, nil
}

// pivotSort recursively orders items by a random pivot: i goes before the
// pivot when the tournament prefers i, i.e. Pr(r(ti) < r(tp)) >=
// Pr(r(tp) < r(ti)).
func pivotSort(items []int, prec [][]float64, rng *rand.Rand) []int {
	if len(items) <= 1 {
		return items
	}
	p := items[rng.Intn(len(items))]
	var before, after []int
	for _, i := range items {
		if i == p {
			continue
		}
		if prec[i][p] >= prec[p][i] {
			before = append(before, i)
		} else {
			after = append(after, i)
		}
	}
	out := pivotSort(before, prec, rng)
	out = append(out, p)
	return append(out, pivotSort(after, prec, rng)...)
}

// KendallViaFootrule returns the footrule-optimal answer as a Kendall
// consensus: Section 5.5 notes d_F and d_K lie in one equivalence class,
// so the footrule optimum is a constant-factor (2) approximation for d_K.
func KendallViaFootrule(t *andxor.Tree, k int) (List, error) {
	tau, _, _, err := MeanFootrule(t, k)
	return tau, err
}

// ExactKendallMean exhaustively searches all ordered k-lists over the
// tree's keys for the one minimizing the expected Kendall distance
// (penalty parameter p) computed against an explicitly enumerated world
// distribution.  Exponential; used by tests and experiment E10 to measure
// the approximations.  The expected distance of the optimum is returned.
func ExactKendallMean(worlds []andxor.WeightedWorld, keys []string, k int, p float64) (List, float64) {
	if k > len(keys) {
		k = len(keys)
	}
	// Pre-compute the top-k answer of every world.
	answers := make([]List, len(worlds))
	for i, ww := range worlds {
		answers[i] = FromWorld(ww.World, k)
	}
	best := math.Inf(1)
	var bestTau List
	cur := make(List, 0, k)
	used := make(map[string]bool, len(keys))
	var rec func()
	rec = func() {
		if len(cur) == k {
			e := 0.0
			for i, ww := range worlds {
				e += ww.Prob * Kendall(cur, answers[i], p)
			}
			if e < best {
				best = e
				bestTau = append(List(nil), cur...)
			}
			return
		}
		for _, key := range keys {
			if used[key] {
				continue
			}
			used[key] = true
			cur = append(cur, key)
			rec()
			cur = cur[:len(cur)-1]
			used[key] = false
		}
	}
	rec()
	return bestTau, best
}

// ExpectedKendall returns E[d_K(tau, tau_pw)] against an enumerated world
// distribution (penalty p).
func ExpectedKendall(worlds []andxor.WeightedWorld, tau List, k int, p float64) float64 {
	e := 0.0
	for _, ww := range worlds {
		e += ww.Prob * Kendall(tau, FromWorld(ww.World, k), p)
	}
	return e
}
