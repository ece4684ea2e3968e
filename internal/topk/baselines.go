package topk

import (
	"fmt"
	"math/rand"
	"sort"

	"consensus/internal/andxor"
	"consensus/internal/exact"
	"consensus/internal/genfunc"
)

// This file implements the prior top-k ranking semantics the paper's
// introduction surveys (Soliman et al.'s U-top-k, Hua et al.'s PT-k,
// Cormode et al.'s expected rank, and the naive expected-score ranking;
// Zhang-Chomicki's global top-k is the Theorem 3 mean, MeanSymDiff).  Experiment E15 compares all of them to
// the consensus answers under the paper's expected-distance yardstick:
// Theorem 3 implies the mean answer dominates every other list under
// E[d_Delta].

// PTk returns the probabilistic-threshold top-k answer: every tuple with
// Pr(r(t) <= k) >= threshold, ordered by that probability (descending,
// ties by key).  Section 5.2 observes that choosing the threshold so that
// exactly k tuples qualify recovers the mean answer under d_Delta.
func PTk(t *andxor.Tree, k int, threshold float64) (List, error) {
	rd, err := genfunc.Ranks(t, k)
	if err != nil {
		return nil, err
	}
	var out List
	for _, key := range rd.Keys() {
		if rd.PrTopK(key) >= threshold {
			out = append(out, key)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		pi, pj := rd.PrTopK(out[i]), rd.PrTopK(out[j])
		if pi != pj {
			return pi > pj
		}
		return out[i] < out[j]
	})
	return out, nil
}

// UTopK returns the U-top-k answer: the single top-k list with the highest
// total probability of being the top-k answer of a random world.  This
// implementation enumerates the world distribution, so it is exponential
// in general; pass limit 0 for the enumeration default.
func UTopK(t *andxor.Tree, k int, limit int) (List, float64, error) {
	ws, err := exact.Enumerate(t, limit)
	if err != nil {
		return nil, 0, err
	}
	probs := map[string]float64{}
	rep := map[string]List{}
	for _, ww := range ws {
		tau := FromWorld(ww.World, k)
		key := fingerprint(tau)
		probs[key] += ww.Prob
		rep[key] = tau
	}
	bestKey, bestP := "", -1.0
	for key, p := range probs {
		if p > bestP || (p == bestP && key < bestKey) {
			bestKey, bestP = key, p
		}
	}
	return rep[bestKey], bestP, nil
}

// UTopKSampled estimates the U-top-k answer by sampling worlds; it trades
// exactness for applicability to large trees.
func UTopKSampled(t *andxor.Tree, k, samples int, rng *rand.Rand) (List, float64, error) {
	if samples <= 0 {
		return nil, 0, fmt.Errorf("topk: samples must be positive")
	}
	counts := map[string]int{}
	rep := map[string]List{}
	for i := 0; i < samples; i++ {
		tau := FromWorld(t.Sample(rng), k)
		key := fingerprint(tau)
		counts[key]++
		rep[key] = tau
	}
	bestKey, bestC := "", -1
	for key, c := range counts {
		if c > bestC || (c == bestC && key < bestKey) {
			bestKey, bestC = key, c
		}
	}
	return rep[bestKey], float64(bestC) / float64(samples), nil
}

// ExpectedRankTopK ranks tuples by Cormode et al.'s expected rank
// (ascending) and returns the first k.  The statistic runs on genfunc's
// compiled dual-number kernel (one incremental sweep per term, no
// cutoff-n rank distribution), so this baseline now costs about as much
// as a single rank-distribution batch at k=2.
func ExpectedRankTopK(t *andxor.Tree, k int) (List, error) {
	er, err := genfunc.ExpectedRank(t)
	if err != nil {
		return nil, err
	}
	keys := append([]string(nil), t.Keys()...)
	sort.SliceStable(keys, func(i, j int) bool {
		if er[keys[i]] != er[keys[j]] {
			return er[keys[i]] < er[keys[j]]
		}
		return keys[i] < keys[j]
	})
	if len(keys) > k {
		keys = keys[:k]
	}
	return List(keys), nil
}

// ExpectedScoreTopK ranks tuples by expected score contribution
// sum_alternatives Pr(alt) * score(alt) (absent worlds contribute 0) and
// returns the first k: the simplest baseline that ignores rank semantics
// entirely.
func ExpectedScoreTopK(t *andxor.Tree, k int) List {
	es := map[string]float64{}
	probs := t.MarginalProbs()
	for i, l := range t.LeafAlternatives() {
		es[l.Key] += probs[i] * l.Score
	}
	keys := append([]string(nil), t.Keys()...)
	sort.SliceStable(keys, func(i, j int) bool {
		if es[keys[i]] != es[keys[j]] {
			return es[keys[i]] > es[keys[j]]
		}
		return keys[i] < keys[j]
	})
	if len(keys) > k {
		keys = keys[:k]
	}
	return List(keys)
}

func fingerprint(l List) string {
	out := ""
	for _, t := range l {
		out += t + "\x00"
	}
	return out
}
