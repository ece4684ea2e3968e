// Package cluster implements Section 6.2 of the paper: consensus
// clustering over probabilistic databases.
//
// Two tuples are clustered together in a possible world iff they take the
// same value for the (uncertain) value attribute; tuples absent from the
// world are gathered into one artificial cluster.  The distance between
// clusterings is the number of unordered pairs clustered together in one
// and separated in the other (the CONSENSUS-CLUSTERING metric), and the
// goal is a clustering minimizing the expected distance to the clustering
// of a random world.
//
// Everything the approximation algorithms need is the co-clustering
// probability matrix w[i][j] = Pr(tuples i and j fall in the same
// cluster), which the paper shows is computable with generating functions:
// Pr(i.A = a and j.A = a) is the coefficient of x^2 when the label-a
// alternatives of i and j are marked with x, and the both-absent
// probability is the constant coefficient when every alternative of i and
// j is marked.
//
// The paper adapts Ailon, Charikar and Newman's 4/3-approximation, which
// rounds an LP; under the standard-library-only constraint this package
// ships the combinatorial side of that toolkit instead: CC-Pivot (random
// pivot clustering on the majority graph) with restarts, best-of-candidate
// selection, and an exact partition search for small inputs so experiments
// can measure realized approximation ratios (see DESIGN.md,
// substitutions).
package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"consensus/internal/andxor"
	"consensus/internal/genfunc"
	"consensus/internal/types"
)

// Clustering assigns each item index 0..n-1 a cluster id.  Ids are
// arbitrary; Canonical relabels them in first-appearance order.
type Clustering []int

// Canonical relabels cluster ids in order of first appearance so that
// equal partitions compare equal element-wise.
func (c Clustering) Canonical() Clustering {
	relabel := map[int]int{}
	out := make(Clustering, len(c))
	next := 0
	for i, id := range c {
		m, ok := relabel[id]
		if !ok {
			m = next
			relabel[id] = m
			next++
		}
		out[i] = m
	}
	return out
}

// Together reports whether items i and j share a cluster.
func (c Clustering) Together(i, j int) bool { return c[i] == c[j] }

// PairDistance returns the number of unordered pairs on which the two
// clusterings disagree (together in one, separated in the other).
func PairDistance(a, b Clustering) int {
	if len(a) != len(b) {
		panic("cluster: clusterings over different item sets")
	}
	d := 0
	for i := 0; i < len(a); i++ {
		for j := i + 1; j < len(a); j++ {
			if a.Together(i, j) != b.Together(i, j) {
				d++
			}
		}
	}
	return d
}

// Instance is a consensus-clustering problem: item names (tuple keys,
// sorted) and the co-clustering probability matrix w.
type Instance struct {
	Keys []string
	W    [][]float64
}

// FromTree builds the instance for an and/xor tree, computing w with the
// generating-function method (experiment E13 checks it against
// enumeration).
func FromTree(t *andxor.Tree) *Instance {
	keys := t.Keys()
	leaves := t.LeafAlternatives()
	n := len(keys)
	idx := map[string]int{}
	for i, k := range keys {
		idx[k] = i
	}
	// Collect, per key, its labels.
	labels := map[string]map[string]bool{}
	for _, l := range leaves {
		if labels[l.Key] == nil {
			labels[l.Key] = map[string]bool{}
		}
		labels[l.Key][l.Label] = true
	}
	w := make([][]float64, n)
	for i := range w {
		w[i] = make([]float64, n)
		w[i][i] = 1
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			ki, kj := keys[i], keys[j]
			p := 0.0
			// Same-label terms: coefficient of x^2 with both keys' label-a
			// alternatives marked.
			for a := range labels[ki] {
				if !labels[kj][a] {
					continue
				}
				f := genfunc.Eval(t, func(_ int, l types.Leaf) (int, int) {
					if (l.Key == ki || l.Key == kj) && l.Label == a {
						return 1, 0
					}
					return 0, 0
				}, 2, 0)
				p += f.Coeff(2, 0)
			}
			// Both-absent term: the artificial cluster of missing keys.
			p += genfunc.AllAbsent(t, map[string]bool{ki: true, kj: true})
			w[i][j] = p
			w[j][i] = p
		}
	}
	return &Instance{Keys: keys, W: w}
}

// FromWorld returns the clustering a possible world induces over the
// instance's keys: present tuples cluster by label and absent tuples share
// the artificial cluster.
func (ins *Instance) FromWorld(w *types.World) Clustering {
	byLabel := map[string]int{}
	out := make(Clustering, len(ins.Keys))
	next := 1 // cluster 0 is the absent cluster
	for i, key := range ins.Keys {
		l, ok := w.Lookup(key)
		if !ok {
			out[i] = 0
			continue
		}
		id, seen := byLabel[l.Label]
		if !seen {
			id = next
			next++
			byLabel[l.Label] = id
		}
		out[i] = id
	}
	return out.Canonical()
}

// ExpectedDistance returns E[d(c, C_pw)] from the w matrix alone: a pair
// clustered together by c disagrees with probability 1 - w_ij, a separated
// pair with probability w_ij.
func (ins *Instance) ExpectedDistance(c Clustering) float64 {
	if len(c) != len(ins.Keys) {
		panic("cluster: clustering size mismatch")
	}
	e := 0.0
	for i := range c {
		for j := i + 1; j < len(c); j++ {
			if c.Together(i, j) {
				e += 1 - ins.W[i][j]
			} else {
				e += ins.W[i][j]
			}
		}
	}
	return e
}

// CCPivot runs one pass of pivot clustering: pick a random unclustered
// pivot, group with it every unclustered j with w[pivot][j] >= 1/2, and
// repeat.
func (ins *Instance) CCPivot(rng *rand.Rand) Clustering {
	n := len(ins.Keys)
	out := make(Clustering, n)
	for i := range out {
		out[i] = -1
	}
	order := rng.Perm(n)
	next := 0
	for _, p := range order {
		if out[p] >= 0 {
			continue
		}
		out[p] = next
		for _, j := range order {
			if out[j] < 0 && ins.W[p][j] >= 0.5 {
				out[j] = next
			}
		}
		next++
	}
	return out.Canonical()
}

// CCPivotBest runs CC-Pivot restarts times and keeps the clustering with
// the smallest expected distance.
func (ins *Instance) CCPivotBest(rng *rand.Rand, restarts int) (Clustering, float64) {
	if restarts < 1 {
		restarts = 1
	}
	var best Clustering
	bestE := math.Inf(1)
	for r := 0; r < restarts; r++ {
		c := ins.CCPivot(rng)
		if e := ins.ExpectedDistance(c); e < bestE {
			best, bestE = c, e
		}
	}
	return best, bestE
}

// BestOf returns the candidate with the smallest expected distance; use it
// to combine pivot runs with per-world clusterings (the classical pick-a-
// candidate 2-approximation).
func (ins *Instance) BestOf(candidates []Clustering) (Clustering, float64) {
	var best Clustering
	bestE := math.Inf(1)
	for _, c := range candidates {
		if e := ins.ExpectedDistance(c); e < bestE {
			best, bestE = c, e
		}
	}
	return best, bestE
}

// MaxExact bounds the exact partition search (Bell numbers grow fast).
const MaxExact = 10

// Exact enumerates every partition of the items (restricted growth
// strings) and returns the one minimizing the expected distance.
func (ins *Instance) Exact() (Clustering, float64, error) {
	n := len(ins.Keys)
	if n > MaxExact {
		return nil, 0, fmt.Errorf("cluster: exact search limited to %d items, got %d", MaxExact, n)
	}
	cur := make(Clustering, n)
	var best Clustering
	bestE := math.Inf(1)
	var rec func(i, maxID int)
	rec = func(i, maxID int) {
		if i == n {
			if e := ins.ExpectedDistance(cur); e < bestE {
				best = append(Clustering(nil), cur...)
				bestE = e
			}
			return
		}
		for id := 0; id <= maxID; id++ {
			cur[i] = id
			nm := maxID
			if id == maxID {
				nm++
			}
			rec(i+1, nm)
		}
	}
	rec(0, 0)
	return best.Canonical(), bestE, nil
}

// KeyIndex returns the index of a key in the instance, or -1.
func (ins *Instance) KeyIndex(key string) int {
	i := sort.SearchStrings(ins.Keys, key)
	if i < len(ins.Keys) && ins.Keys[i] == key {
		return i
	}
	return -1
}
