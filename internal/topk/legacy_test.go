package topk

import (
	"sort"

	"consensus/internal/assignment"
	"consensus/internal/genfunc"
)

// Legacy reference implementations of the Section 5 consensus steps,
// exactly as the package computed them before the consumers read rank
// rows by index: every probability is fetched by key string through
// RankDist.PrEq/PrLE and the Upsilon statistics live in key-indexed maps.
// The oracle tests pin the row-based code to these bit for bit, and
// BenchmarkMeanFootruleRanks measures the row-based footrule against
// meanFootruleRanksLegacy.

type upsilonsLegacy struct {
	K  int
	U1 map[string]float64
	U2 map[string]float64
}

func newUpsilonsLegacy(rd *genfunc.RankDist, k int) *upsilonsLegacy {
	u := &upsilonsLegacy{K: k, U1: map[string]float64{}, U2: map[string]float64{}}
	for _, key := range rd.Keys() {
		s1, s2 := 0.0, 0.0
		for i := 1; i <= k; i++ {
			p := rd.PrEq(key, i)
			s1 += p
			s2 += float64(i) * p
		}
		u.U1[key] = s1
		u.U2[key] = s2
	}
	return u
}

func (u *upsilonsLegacy) U3(rd *genfunc.RankDist, key string, i int) float64 {
	s := 0.0
	for j := 1; j <= u.K; j++ {
		s += rd.PrEq(key, j) * float64(abs(i-j))
	}
	s -= float64(i) * (1 - u.U1[key])
	return s
}

func footruleConstantLegacy(rd *genfunc.RankDist, u *upsilonsLegacy, k int) float64 {
	c := float64((k + 1) * k)
	for _, key := range rd.Keys() {
		c += float64(k+1)*u.U1[key] - u.U2[key]
	}
	return c
}

func footruleCostLegacy(rd *genfunc.RankDist, u *upsilonsLegacy, key string, i int) float64 {
	return u.U3(rd, key, i) + u.U2[key] - 2*float64(u.K+1)*u.U1[key]
}

func expectedFootruleLegacy(rd *genfunc.RankDist, u *upsilonsLegacy, tau List, k int) float64 {
	e := footruleConstantLegacy(rd, u, k)
	for i, key := range tau {
		e += footruleCostLegacy(rd, u, key, i+1)
	}
	return e
}

func meanFootruleRanksLegacy(rd *genfunc.RankDist, u *upsilonsLegacy, k int) (List, float64, error) {
	keys := rd.Keys()
	if k > len(keys) {
		k = len(keys)
	}
	cost := make([][]float64, k)
	for i := 1; i <= k; i++ {
		row := make([]float64, len(keys))
		for ti, key := range keys {
			row[ti] = footruleCostLegacy(rd, u, key, i)
		}
		cost[i-1] = row
	}
	rowTo, total, err := assignment.Min(cost)
	if err != nil {
		return nil, 0, err
	}
	out := make(List, k)
	for i, ti := range rowTo {
		out[i] = keys[ti]
	}
	return out, footruleConstantLegacy(rd, u, k) + total, nil
}

func expectedIntersectionLegacy(rd *genfunc.RankDist, tau List, k int) float64 {
	e := 0.0
	for i := 1; i <= k; i++ {
		term := float64(i)
		for _, key := range rd.Keys() {
			term += rd.PrLE(key, i)
		}
		for j := 0; j < i && j < len(tau); j++ {
			term -= 2 * rd.PrLE(tau[j], i)
		}
		if len(tau) < i {
			term -= float64(i - len(tau))
		}
		e += term / (2 * float64(i))
	}
	return e / float64(k)
}

func intersectionProfitLegacy(rd *genfunc.RankDist, keys []string, k int) [][]float64 {
	profit := make([][]float64, k)
	for j := 1; j <= k; j++ {
		row := make([]float64, len(keys))
		for ti, key := range keys {
			s := 0.0
			for i := j; i <= k; i++ {
				s += rd.PrLE(key, i) / float64(i)
			}
			row[ti] = s
		}
		profit[j-1] = row
	}
	return profit
}

func meanIntersectionRanksLegacy(rd *genfunc.RankDist, k int) (List, error) {
	keys := rd.Keys()
	if k > len(keys) {
		k = len(keys)
	}
	rowTo, _, err := assignment.Max(intersectionProfitLegacy(rd, keys, k))
	if err != nil {
		return nil, err
	}
	out := make(List, k)
	for j, ti := range rowTo {
		out[j] = keys[ti]
	}
	return out, nil
}

func upsilonHLegacy(rd *genfunc.RankDist, k int) map[string]float64 {
	out := make(map[string]float64, len(rd.Keys()))
	for _, key := range rd.Keys() {
		s := 0.0
		for i := 1; i <= k; i++ {
			s += rd.PrLE(key, i) / float64(i)
		}
		out[key] = s
	}
	return out
}

func meanIntersectionUpsilonRanksLegacy(rd *genfunc.RankDist, k int) List {
	ups := upsilonHLegacy(rd, k)
	keys := append([]string(nil), rd.Keys()...)
	sort.SliceStable(keys, func(i, j int) bool {
		if ups[keys[i]] != ups[keys[j]] {
			return ups[keys[i]] > ups[keys[j]]
		}
		return keys[i] < keys[j]
	})
	if len(keys) > k {
		keys = keys[:k]
	}
	return List(keys)
}

func intersectionObjectiveLegacy(rd *genfunc.RankDist, tau List, k int) float64 {
	a := 0.0
	for i := 1; i <= k; i++ {
		for j := 0; j < i && j < len(tau); j++ {
			a += rd.PrLE(tau[j], i) / float64(i)
		}
	}
	return a
}

func prfFromRanksLegacy(rd *genfunc.RankDist, w WeightFunc) map[string]float64 {
	out := make(map[string]float64, len(rd.Keys()))
	for _, key := range rd.Keys() {
		s := 0.0
		for i := 1; i <= rd.K; i++ {
			if wi := w(i); wi != 0 {
				s += wi * rd.PrEq(key, i)
			}
		}
		out[key] = s
	}
	return out
}

func meanSymDiffRanksLegacy(rd RankSource, k int) List {
	keys := append([]string(nil), rd.Keys()...)
	sort.SliceStable(keys, func(i, j int) bool {
		pi, pj := rd.PrLE(keys[i], k), rd.PrLE(keys[j], k)
		if pi != pj {
			return pi > pj
		}
		return keys[i] < keys[j]
	})
	if len(keys) > k {
		keys = keys[:k]
	}
	return List(keys)
}
