package topk

import (
	"fmt"
	"math"
	"sort"

	"consensus/internal/andxor"
	"consensus/internal/genfunc"
	"consensus/internal/types"
)

// FromWorld returns the top-k answer of a deterministic world: its at most
// k highest-score tuples by decreasing score.
func FromWorld(w *types.World, k int) List {
	return List(w.TopK(k))
}

// RankSource is the rank-distribution view the symmetric-difference
// consensus algorithms consume: the covered tuple keys (sorted) and the
// cumulative rank probabilities Pr(r(t) <= i).  It is satisfied by the
// exact *genfunc.RankDist and by sampling-based estimates (package
// internal/approx), so the same Theorem 3/4 code serves both backends.
type RankSource interface {
	Keys() []string
	PrLE(key string, i int) float64
}

// ExpectedNormSymDiff returns E[d_Delta(tau, tau_pw)] in closed form from a
// rank distribution with cutoff k (the rewriting in the proof of
// Theorem 3): E[|tau delta tau_pw|] = sum_{t in tau} Pr(r(t) > k) +
// sum_{t not in tau} Pr(r(t) <= k), normalized by 2k.  Foreign keys in tau
// contribute Pr(r(t) > k) = 1.
func ExpectedNormSymDiff(rd RankSource, tau List, k int) float64 {
	e := 0.0
	for _, key := range rd.Keys() {
		if tau.Contains(key) {
			e += 1 - rd.PrLE(key, k)
		} else {
			e += rd.PrLE(key, k)
		}
	}
	for _, t := range tau {
		if !containsKey(rd.Keys(), t) {
			e += 1
		}
	}
	return e / float64(2*k)
}

func containsKey(keys []string, t string) bool {
	i := sort.SearchStrings(keys, t)
	return i < len(keys) && keys[i] == t
}

// MeanSymDiff returns the mean top-k answer under the normalized symmetric
// difference metric: by Theorem 3, the k tuples with the largest
// Pr(r(t) <= k).  Since d_Delta ignores order, the answer is returned
// sorted by that probability (descending, ties by key) for determinism.
// If the tree has fewer than k tuples, all of them are returned.
func MeanSymDiff(t *andxor.Tree, k int) (List, *genfunc.RankDist, error) {
	rd, err := genfunc.Ranks(t, k)
	if err != nil {
		return nil, nil, err
	}
	return MeanSymDiffRanks(rd, k), rd, nil
}

// MeanSymDiffRanks is MeanSymDiff on a precomputed rank distribution with
// cutoff rd.K >= k, letting callers (notably the serving engine) amortize
// the expensive Ranks computation across queries.
func MeanSymDiffRanks(rd RankSource, k int) List {
	keys := rd.Keys()
	col := make([]float64, len(keys))
	for i, key := range keys {
		col[i] = rd.PrLE(key, k)
	}
	return topByValue(keys, col, k)
}

// topByValue returns the k keys with the largest values (all of them when
// there are fewer), by decreasing value with ties broken by key; vals[i]
// belongs to keys[i].  The values are computed once up front, so the
// sort's comparisons read them instead of recomputing two per call.
func topByValue(keys []string, vals []float64, k int) List {
	type keyed struct {
		key string
		v   float64
	}
	order := make([]keyed, len(keys))
	for i, key := range keys {
		order[i] = keyed{key, vals[i]}
	}
	sort.SliceStable(order, func(i, j int) bool {
		if order[i].v != order[j].v {
			return order[i].v > order[j].v
		}
		return order[i].key < order[j].key
	})
	if len(order) > k {
		order = order[:k]
	}
	out := make(List, len(order))
	for i, o := range order {
		out[i] = o.key
	}
	return out
}

// MedianSymDiff returns a median top-k answer under the normalized
// symmetric difference metric: the top-k answer of some possible world
// minimizing the expected distance, found by the threshold + tree dynamic
// program of Theorem 4.
//
// For every candidate score threshold a, the DP computes the possible
// world of the tree restricted to leaves with score >= a that has exactly
// k such leaves and maximizes the answer's total Pr(r(t) <= k) (shifted by
// -1/2 per member so different answer sizes compare correctly); the best
// candidate over all thresholds is the median answer, ordered by
// decreasing score.  Because a world holding fewer than k tuples answers
// with all of them, answers of size j < k (realized by worlds of exactly j
// tuples, i.e. the no-threshold DP) are also candidates; the paper's DP is
// the size-k case.
func MedianSymDiff(t *andxor.Tree, k int) (List, *genfunc.RankDist, error) {
	rd, err := genfunc.Ranks(t, k)
	if err != nil {
		return nil, nil, err
	}
	tau, err := MedianSymDiffRanks(t, rd, k)
	return tau, rd, err
}

// MedianSymDiffRanks is MedianSymDiff on a precomputed rank distribution
// with cutoff rd.K >= k.
func MedianSymDiffRanks(t *andxor.Tree, rd RankSource, k int) (List, error) {
	if k > len(t.Keys()) {
		k = len(t.Keys())
	}
	if k == 0 {
		return List{}, nil
	}
	// Candidate thresholds: every distinct leaf score.
	scoreSet := map[float64]bool{}
	minScore := math.Inf(1)
	for _, l := range t.LeafAlternatives() {
		scoreSet[l.Score] = true
		minScore = math.Min(minScore, l.Score)
	}
	scores := make([]float64, 0, len(scoreSet))
	for s := range scoreSet {
		scores = append(scores, s)
	}
	sort.Float64s(scores)

	// E[d_Delta] decreases in sum_{t in tau} (Pr(r(t)<=k) - 1/2), so the
	// DP maximizes that weight and the best candidate across thresholds
	// and sizes is the median.
	bestVal := math.Inf(-1)
	var bestLeaves []types.Leaf
	for _, a := range scores {
		tab := medianDP(t, rd, k, a)
		if !math.IsInf(tab[k].val, -1) && tab[k].val > bestVal {
			bestVal = tab[k].val
			bestLeaves = tab[k].leaves
		}
		if a == minScore {
			// No-threshold table: worlds of exactly j < k tuples answer
			// with all of them.
			for j := 0; j < k; j++ {
				if !math.IsInf(tab[j].val, -1) && tab[j].val > bestVal {
					bestVal = tab[j].val
					bestLeaves = tab[j].leaves
				}
			}
		}
	}
	if math.IsInf(bestVal, -1) {
		return nil, fmt.Errorf("topk: tree admits no possible world")
	}
	sort.Slice(bestLeaves, func(i, j int) bool { return bestLeaves[i].Score > bestLeaves[j].Score })
	out := make(List, len(bestLeaves))
	for i, l := range bestLeaves {
		out[i] = l.Key
	}
	return out, nil
}

// dpEntry is one row of a node's DP table: the best achievable total
// Pr(r(t)<=k) over producible leaf sets of a given size, with the set
// itself for reconstruction.
type dpEntry struct {
	val    float64
	leaves []types.Leaf
}

// medianDP runs the Theorem 4 dynamic program for one threshold a and
// returns the full root table: entry j holds the best achievable total
// weight sum (Pr(r(t)<=k) - 1/2) over possible worlds with exactly j
// leaves of score >= a, with value -Inf when no such world exists.
func medianDP(t *andxor.Tree, rd RankSource, k int, a float64) []dpEntry {
	var walk func(n *andxor.Node) []dpEntry // index = size, nil entry = unachievable
	negInf := math.Inf(-1)
	walk = func(n *andxor.Node) []dpEntry {
		switch n.Kind() {
		case andxor.KindLeaf:
			l := n.Leaf()
			tab := make([]dpEntry, k+1)
			for i := range tab {
				tab[i].val = negInf
			}
			if l.Score >= a {
				if k >= 1 {
					tab[1] = dpEntry{val: rd.PrLE(l.Key, k) - 0.5, leaves: []types.Leaf{l}}
				}
			} else {
				// Below the threshold the leaf is present in the world but
				// contributes nothing to the top set.
				tab[0] = dpEntry{val: 0}
			}
			return tab
		case andxor.KindOr:
			tab := make([]dpEntry, k+1)
			for i := range tab {
				tab[i].val = negInf
			}
			if n.StopProb() > 0 {
				tab[0] = dpEntry{val: 0}
			}
			for ci, c := range n.Children() {
				sub := walk(c)
				if n.Probs()[ci] == 0 {
					continue
				}
				for sz, e := range sub {
					if e.val > tab[sz].val {
						tab[sz] = e
					}
				}
			}
			return tab
		default: // KindAnd: max-plus knapsack over children
			acc := make([]dpEntry, k+1)
			for i := range acc {
				acc[i].val = negInf
			}
			acc[0] = dpEntry{val: 0}
			for _, c := range n.Children() {
				sub := walk(c)
				next := make([]dpEntry, k+1)
				for i := range next {
					next[i].val = negInf
				}
				for s1, e1 := range acc {
					if math.IsInf(e1.val, -1) {
						continue
					}
					for s2, e2 := range sub {
						if math.IsInf(e2.val, -1) || s1+s2 > k {
							continue
						}
						if v := e1.val + e2.val; v > next[s1+s2].val {
							merged := make([]types.Leaf, 0, len(e1.leaves)+len(e2.leaves))
							merged = append(merged, e1.leaves...)
							merged = append(merged, e2.leaves...)
							next[s1+s2] = dpEntry{val: v, leaves: merged}
						}
					}
				}
				acc = next
			}
			return acc
		}
	}
	return walk(t.Root())
}
