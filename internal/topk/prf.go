package topk

import (
	"fmt"
	"math"
	"sort"

	"consensus/internal/andxor"
	"consensus/internal/genfunc"
)

// Parameterized ranking functions (PRF).  Section 5.3's Upsilon_H is "a
// special case of the parameterized ranking function proposed in [29]"
// (Li, Saha, Deshpande): rank tuples by
//
//	Upsilon_w(t) = sum_{i >= 1} w(i) * Pr(r(t) = i)
//
// for a position-weight function w.  Different weight functions recover
// the prior semantics: a step function w(i) = 1{i <= k} yields PT-k /
// global top-k (and hence the Theorem 3 consensus mean), the harmonic
// tail weight w(i) = H_k - H_{i-1} yields Upsilon_H, and exponentially
// decaying weights interpolate between "membership counts" and "only the
// top position matters".  This file implements the general machinery so
// the experiments can compare the whole family under the consensus
// yardstick.

// WeightFunc assigns a non-negative weight to each rank position
// (1-based).
type WeightFunc func(i int) float64

// StepWeight returns w(i) = 1 for i <= k, else 0: the PT-k / global
// top-k / Theorem 3 weight.
func StepWeight(k int) WeightFunc {
	return func(i int) float64 {
		if i <= k {
			return 1
		}
		return 0
	}
}

// HarmonicTailWeight returns w(i) = H_k - H_{i-1} for i <= k (the
// Upsilon_H weight of Section 5.3).
func HarmonicTailWeight(k int) WeightFunc {
	h := make([]float64, k+1)
	for i := 1; i <= k; i++ {
		h[i] = h[i-1] + 1/float64(i)
	}
	return func(i int) float64 {
		if i > k {
			return 0
		}
		return h[k] - h[i-1]
	}
}

// GeometricWeight returns w(i) = alpha^(i-1), emphasizing top positions
// for alpha < 1.
func GeometricWeight(alpha float64) WeightFunc {
	return func(i int) float64 { return math.Pow(alpha, float64(i-1)) }
}

// PRF computes Upsilon_w(t) for every key, truncating the sum at rank
// cutoff (weights beyond it are treated as zero, which is exact for
// weights supported on 1..cutoff).
func PRF(t *andxor.Tree, w WeightFunc, cutoff int) (map[string]float64, error) {
	rd, err := genfunc.Ranks(t, cutoff)
	if err != nil {
		return nil, err
	}
	return PRFFromRanks(rd, w), nil
}

// PRFFromRanks computes the same values from a precomputed rank
// distribution.
func PRFFromRanks(rd *genfunc.RankDist, w WeightFunc) map[string]float64 {
	ws := make([]float64, rd.K+1)
	for i := 1; i <= rd.K; i++ {
		ws[i] = w(i)
	}
	out := make(map[string]float64, len(rd.Keys()))
	for r, key := range rd.Keys() {
		eq := rd.EqRow(r)
		s := 0.0
		for i := 1; i <= rd.K; i++ {
			if wi := ws[i]; wi != 0 {
				s += wi * eq[i]
			}
		}
		out[key] = s
	}
	return out
}

// PRFTopK returns the k keys with the largest Upsilon_w values, ordered
// by value (descending, ties by key).
func PRFTopK(t *andxor.Tree, w WeightFunc, k, cutoff int) (List, error) {
	if cutoff < k {
		return nil, fmt.Errorf("topk: PRF cutoff %d below k %d", cutoff, k)
	}
	vals, err := PRF(t, w, cutoff)
	if err != nil {
		return nil, err
	}
	keys := make([]string, 0, len(vals))
	for key := range vals {
		keys = append(keys, key)
	}
	sort.SliceStable(keys, func(i, j int) bool {
		if vals[keys[i]] != vals[keys[j]] {
			return vals[keys[i]] > vals[keys[j]]
		}
		return keys[i] < keys[j]
	})
	if len(keys) > k {
		keys = keys[:k]
	}
	return List(keys), nil
}
