// Package topk implements Section 5 of the paper: consensus top-k answers
// over probabilistic databases represented as and/xor trees.
//
// A top-k answer is an ordered list of distinct tuple keys.  The package
// provides the three distances the paper analyses — the normalized
// symmetric difference metric, the intersection metric and Spearman's
// footrule with location parameter k+1 (all following Fagin, Kumar and
// Sivakumar's "Comparing top k lists") plus the top-k Kendall distance —
// and the consensus algorithms:
//
//   - mean answer under symmetric difference (Theorem 3), equal to the
//     PT-k/Global-top-k answer: the k tuples maximizing Pr(r(t) <= k);
//   - median answer under symmetric difference by dynamic programming over
//     the and/xor tree (Theorem 4);
//   - mean answer under the intersection metric, exactly via an assignment
//     problem, plus the Upsilon_H ranking-function approximation with its
//     H_k guarantee (Section 5.3);
//   - mean answer under the footrule distance, exactly via an assignment
//     problem (Section 5.4, Figure 2);
//   - Kendall approximations (Section 5.5): the footrule optimum as a
//     2-approximation and a pivot heuristic driven by the pairwise
//     precedence probabilities Pr(r(ti) < r(tj));
//   - the prior ranking semantics used as baselines (U-top-k, PT-k,
//     expected rank, expected score; global top-k is the symmetric
//     difference mean itself).
package topk

import "fmt"

// List is an ordered top-k answer: tuple keys from rank 1 downward.
type List []string

// Validate reports an error if the list contains duplicates.
func (l List) Validate() error {
	seen := make(map[string]bool, len(l))
	for _, t := range l {
		if seen[t] {
			return fmt.Errorf("topk: duplicate tuple %q in answer list", t)
		}
		seen[t] = true
	}
	return nil
}

// Position returns the 1-based position of t in l, or 0 if absent.
func (l List) Position(t string) int {
	for i, v := range l {
		if v == t {
			return i + 1
		}
	}
	return 0
}

// Contains reports membership.
func (l List) Contains(t string) bool { return l.Position(t) > 0 }

// Equal reports whether two lists are identical element-wise.
func (l List) Equal(o List) bool {
	if len(l) != len(o) {
		return false
	}
	for i := range l {
		if l[i] != o[i] {
			return false
		}
	}
	return true
}

// symDiffCount returns |l1 delta l2| treating the lists as sets.
func symDiffCount(a, b List) int {
	inA := make(map[string]bool, len(a))
	for _, t := range a {
		inA[t] = true
	}
	d := len(a) + len(b)
	for _, t := range b {
		if inA[t] {
			d -= 2
		}
	}
	return d
}

// NormSymDiff is the normalized symmetric difference metric of Section 5.1:
// |tau1 delta tau2| / (2k).  The normalizer uses the query's k rather than
// the list lengths so that answers of worlds holding fewer than k tuples
// compare on the same scale.
func NormSymDiff(a, b List, k int) float64 {
	if k <= 0 {
		return 0
	}
	return float64(symDiffCount(a, b)) / float64(2*k)
}

// prefix returns the first i entries of l (all of l if shorter).
func prefix(l List, i int) List {
	if len(l) > i {
		return l[:i]
	}
	return l
}

// Intersection is the intersection metric of Section 5.1:
// (1/k) * sum_{i=1..k} normSymDiff(tau1^i, tau2^i) with each prefix
// normalized by its own length i.
func Intersection(a, b List, k int) float64 {
	if k <= 0 {
		return 0
	}
	s := 0.0
	for i := 1; i <= k; i++ {
		s += NormSymDiff(prefix(a, i), prefix(b, i), i)
	}
	return s / float64(k)
}

// Footrule is Spearman's footrule with location parameter l = k+1
// (Section 5.1): every element missing from a list is placed at position
// k+1 and the L1 distance between the position vectors is taken.  The
// result is the unnormalized F* the paper minimizes in Section 5.4.
func Footrule(a, b List, k int) float64 {
	loc := k + 1
	s := 0
	for i, t := range a {
		pa := i + 1
		pb := b.Position(t)
		if pb == 0 {
			pb = loc
		}
		s += abs(pa - pb)
	}
	for i, t := range b {
		if !a.Contains(t) {
			s += abs(i + 1 - loc)
		}
	}
	return float64(s)
}

// Kendall is the top-k Kendall distance of Section 5.5 with penalty
// parameter p, following Fagin et al.'s K^(p): for every unordered pair
// {ti, tj} of elements appearing in either list,
//
//   - both in both lists: penalty 1 if the two lists order them oppositely;
//   - both in one list, exactly one in the other: membership in a top-k
//     list pins an absent element below every present one, so the order is
//     determined in both lists; penalty 1 on disagreement;
//   - ti only in one list, tj only in the other: the lists necessarily
//     disagree; penalty 1;
//   - both in exactly one list (absent from the other): the other list's
//     order is unknowable; penalty p.
//
// p = 0 gives the optimistic K_min the paper calls d_K; p = 1/2 the neutral
// variant.
func Kendall(a, b List, p float64) float64 {
	elems := map[string]bool{}
	for _, t := range a {
		elems[t] = true
	}
	for _, t := range b {
		elems[t] = true
	}
	all := make([]string, 0, len(elems))
	for t := range elems {
		all = append(all, t)
	}
	s := 0.0
	for i := 0; i < len(all); i++ {
		for j := i + 1; j < len(all); j++ {
			ti, tj := all[i], all[j]
			pa1, pa2 := a.Position(ti), a.Position(tj)
			pb1, pb2 := b.Position(ti), b.Position(tj)
			inA := pa1 > 0 && pa2 > 0
			inB := pb1 > 0 && pb2 > 0
			switch {
			case inA && inB:
				if (pa1 < pa2) != (pb1 < pb2) {
					s++
				}
			case inA && !inB:
				if pb1 == 0 && pb2 == 0 {
					s += p // case 4: both absent from b
				} else {
					// One of them is in b; the absent one sits below it.
					bFirstIsI := pb1 > 0
					if (pa1 < pa2) != bFirstIsI {
						s++
					}
				}
			case !inA && inB:
				if pa1 == 0 && pa2 == 0 {
					s += p
				} else {
					aFirstIsI := pa1 > 0
					if (pb1 < pb2) != aFirstIsI {
						s++
					}
				}
			default:
				// Each element in exactly one list: necessarily opposite
				// orders in any extensions.
				s++
			}
		}
	}
	return s
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
