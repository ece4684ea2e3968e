package topk

import (
	"consensus/internal/andxor"
	"consensus/internal/assignment"
	"consensus/internal/genfunc"
)

// ExpectedIntersection returns E[d_I(tau, tau_pw)] in closed form from a
// rank distribution (Section 5.3): the intersection metric is the average
// over prefixes i of the normalized symmetric difference between the
// i-prefixes, and each prefix term rewrites exactly as in Theorem 3 with
// k replaced by i:
//
//	E[d_I] = (1/k) sum_{i=1..k} (1/2i) ( i + sum_t Pr(r(t)<=i)
//	                                        - 2 sum_{t in tau^i} Pr(r(t)<=i) ).
func ExpectedIntersection(rd *genfunc.RankDist, tau List, k int) float64 {
	n := len(rd.Keys())
	tauLE := tauRows(rd, tau, k)
	e := 0.0
	for i := 1; i <= k; i++ {
		term := float64(i)
		c := min(i, rd.K) // PrLE clamps beyond the cutoff
		for r := range n {
			term += rd.LERow(r)[c]
		}
		for j := 0; j < i && j < len(tau); j++ {
			term -= 2 * tauLE[j][i]
		}
		// Foreign keys in the prefix contribute Pr(r<=i)=0 and each adds
		// one certain mismatch, already counted by the +i term via the
		// membership accounting; nothing extra needed: a foreign tuple is
		// never in tau^i_pw, and the +i term is |tau^i| when the prefix is
		// full.  For short prefixes (|tau| < i) the +i overcounts.
		if len(tau) < i {
			term -= float64(i - len(tau))
		}
		e += term / (2 * float64(i))
	}
	return e / float64(k)
}

// IntersectionProfit returns the assignment profit matrix of Section 5.3:
// profit[j][t] = sum_{i=j+1..k} Pr(r(t) <= i)/i is the gain of placing
// tuple keys[t] at (1-based) position j+1.  Maximizing the total profit
// over injective position->tuple assignments minimizes E[d_I].
//
// The matrix is filled key by key, from one cumulative-row fetch each.
func IntersectionProfit(rd *genfunc.RankDist, keys []string, k int) [][]float64 {
	profit := newMatrix(k, len(keys))
	for ti, key := range keys {
		le := leRow(rd, rowOf(rd, key), k)
		for j := 1; j <= k; j++ {
			s := 0.0
			for i := j; i <= k; i++ {
				s += le[i] / float64(i)
			}
			profit[j-1][ti] = s
		}
	}
	return profit
}

// MeanIntersection returns the mean top-k answer under the intersection
// metric, computed exactly by solving the assignment problem of
// Section 5.3 with the Hungarian algorithm.  k is clamped to the number of
// tuples.
func MeanIntersection(t *andxor.Tree, k int) (List, *genfunc.RankDist, error) {
	if k > len(t.Keys()) {
		k = len(t.Keys())
	}
	rd, err := genfunc.Ranks(t, k)
	if err != nil {
		return nil, nil, err
	}
	tau, err := MeanIntersectionRanks(rd, k)
	return tau, rd, err
}

// MeanIntersectionRanks is MeanIntersection on a precomputed rank
// distribution with cutoff rd.K >= k.
func MeanIntersectionRanks(rd *genfunc.RankDist, k int) (List, error) {
	keys := rd.Keys()
	if k > len(keys) {
		k = len(keys)
	}
	profit := IntersectionProfit(rd, keys, k)
	rowTo, _, err := assignment.Max(profit)
	if err != nil {
		return nil, err
	}
	out := make(List, k)
	for j, ti := range rowTo {
		out[j] = keys[ti]
	}
	return out, nil
}

// UpsilonH returns the ranking-function values Upsilon_H(t) =
// sum_{i=1..k} Pr(r(t) <= i)/i for every key (Section 5.3), a special case
// of the parameterized ranking functions of the authors' earlier work.
func UpsilonH(rd *genfunc.RankDist, k int) map[string]float64 {
	vals := upsilonH(rd, k)
	out := make(map[string]float64, len(vals))
	for r, key := range rd.Keys() {
		out[key] = vals[r]
	}
	return out
}

// upsilonH is UpsilonH aligned with the rows of rd.
func upsilonH(rd *genfunc.RankDist, k int) []float64 {
	out := make([]float64, len(rd.Keys()))
	for r := range out {
		le := leRow(rd, r, k)
		s := 0.0
		for i := 1; i <= k; i++ {
			s += le[i] / float64(i)
		}
		out[r] = s
	}
	return out
}

// MeanIntersectionUpsilon returns the Upsilon_H approximation to the mean
// intersection-metric answer: the k tuples with the largest Upsilon_H
// values in decreasing order.  Section 5.3 proves its objective value
// A(tau_H) is at least A(tau*) / H_k.
func MeanIntersectionUpsilon(t *andxor.Tree, k int) (List, *genfunc.RankDist, error) {
	if k > len(t.Keys()) {
		k = len(t.Keys())
	}
	rd, err := genfunc.Ranks(t, k)
	if err != nil {
		return nil, nil, err
	}
	return MeanIntersectionUpsilonRanks(rd, k), rd, nil
}

// MeanIntersectionUpsilonRanks is MeanIntersectionUpsilon on a precomputed
// rank distribution with cutoff rd.K >= k.
func MeanIntersectionUpsilonRanks(rd *genfunc.RankDist, k int) List {
	return topByValue(rd.Keys(), upsilonH(rd, k), k)
}

// IntersectionObjective returns A(tau) = sum_{i=1..k} (1/i) sum_{t in
// tau^i} Pr(r(t) <= i), the term Section 5.3 maximizes; E[d_I] is a
// constant minus A(tau)/k (up to the prefix-length correction).
func IntersectionObjective(rd *genfunc.RankDist, tau List, k int) float64 {
	tauLE := tauRows(rd, tau, k)
	a := 0.0
	for i := 1; i <= k; i++ {
		for j := 0; j < i && j < len(tau); j++ {
			a += tauLE[j][i] / float64(i)
		}
	}
	return a
}

// tauRows returns the cumulative rank rows (up to rank k) of tau's keys,
// zero rows for foreign keys.
func tauRows(rd *genfunc.RankDist, tau List, k int) [][]float64 {
	rows := make([][]float64, len(tau))
	for j, key := range tau {
		rows[j] = leRow(rd, rowOf(rd, key), k)
	}
	return rows
}
