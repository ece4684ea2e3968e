package topk

import (
	"fmt"

	"consensus/internal/andxor"
	"consensus/internal/assignment"
	"consensus/internal/genfunc"
)

// Upsilons holds the three statistics of Section 5.4, computable in
// polynomial time from the rank distribution:
//
//	Upsilon1(t) = sum_{i=1..k} Pr(r(t)=i)            = Pr(r(t) <= k)
//	Upsilon2(t) = sum_{i=1..k} i * Pr(r(t)=i)
//	Upsilon3(t,i) = sum_{j=1..k} Pr(r(t)=j)|i-j| - i * Pr(r(t) > k)
//
// Note the minus sign in Upsilon3: the paper's bullet list prints
// "+ i Pr(r(t) > k)", but the Figure 2 derivation it feeds (and the
// footrule distance itself, where a tuple of tau missing from tau_pw
// contributes (k+1) - tau(t), the (k+1) part being absorbed into the
// (k+1)|tau delta tau_pw| term) require the negative sign.  Our
// brute-force enumeration cross-check (TestExpectedFootruleMatches-
// Enumeration, experiment F2) confirms the minus sign is the correct
// reading; with "+" the closed form overestimates whenever Pr(r(t)>k) > 0.
//
// U1 and U2 are aligned with the rows of the rank distribution they were
// built from: U1[r] belongs to rd.Keys()[r].
type Upsilons struct {
	K  int
	U1 []float64
	U2 []float64
}

// NewUpsilons computes Upsilon1 and Upsilon2 for every key.
func NewUpsilons(rd *genfunc.RankDist, k int) *Upsilons {
	n := len(rd.Keys())
	u := &Upsilons{K: k, U1: make([]float64, n), U2: make([]float64, n)}
	for r := range n {
		eq := eqRow(rd, r, k)
		s1, s2 := 0.0, 0.0
		for i := 1; i <= k; i++ {
			p := eq[i]
			s1 += p
			s2 += float64(i) * p
		}
		u.U1[r] = s1
		u.U2[r] = s2
	}
	return u
}

// row returns key's rank row (up to rank u.K) with its Upsilon1 and
// Upsilon2; a foreign key gets a zero row and zero statistics.
func (u *Upsilons) row(rd *genfunc.RankDist, key string) (eq []float64, u1, u2 float64) {
	r := rowOf(rd, key)
	if r >= 0 {
		u1, u2 = u.U1[r], u.U2[r]
	}
	return eqRow(rd, r, u.K), u1, u2
}

// U3 returns Upsilon3(t, i); foreign keys get Pr(r(t) > k) = 1, i.e.
// U3 = -i.
func (u *Upsilons) U3(rd *genfunc.RankDist, key string, i int) float64 {
	eq, u1, _ := u.row(rd, key)
	return upsilon3(eq, u1, i, u.K)
}

// upsilon3 is Upsilon3(t, i) on t's rank row eq (entries 1..k) with
// Upsilon1(t) = u1.
func upsilon3(eq []float64, u1 float64, i, k int) float64 {
	s := 0.0
	for j := 1; j <= k; j++ {
		s += eq[j] * float64(abs(i-j))
	}
	s -= float64(i) * (1 - u1)
	return s
}

// footruleCell is f(t, i) (see FootruleCost) on t's rank row eq with
// statistics u1, u2.  Every cost cell runs exactly these float operations
// in this order, whichever caller builds it, so the assignment matrix, the
// key-string helpers and served expectations agree bit for bit.
func footruleCell(eq []float64, u1, u2 float64, i, k int) float64 {
	return upsilon3(eq, u1, i, k) + u2 - 2*float64(k+1)*u1
}

// FootruleConstant returns the tau-independent constant C of the Figure 2
// derivation: C = (k+1)k + sum_t ((k+1) Upsilon1(t) - Upsilon2(t)).
func FootruleConstant(rd *genfunc.RankDist, u *Upsilons, k int) float64 {
	c := float64((k + 1) * k)
	for r := range rd.Keys() {
		c += float64(k+1)*u.U1[r] - u.U2[r]
	}
	return c
}

// FootruleCost returns f(t, i) = Upsilon3(t,i) + Upsilon2(t) -
// 2(k+1) Upsilon1(t), the per-placement cost of the Figure 2 rewriting;
// E[F*(tau, tau_pw)] = C + sum_i f(tau(i), i).
func FootruleCost(rd *genfunc.RankDist, u *Upsilons, key string, i int) float64 {
	eq, u1, u2 := u.row(rd, key)
	return footruleCell(eq, u1, u2, i, u.K)
}

// ExpectedFootrule returns E[F*(tau, tau_pw)] in closed form via the
// Figure 2 rewriting.  It is validated against brute-force enumeration in
// the tests (experiment F2).
func ExpectedFootrule(rd *genfunc.RankDist, u *Upsilons, tau List, k int) float64 {
	e := FootruleConstant(rd, u, k)
	for i, key := range tau {
		e += FootruleCost(rd, u, key, i+1)
	}
	return e
}

// MeanFootrule returns the mean top-k answer under Spearman's footrule
// with location parameter k+1, computed exactly by the assignment problem
// of Section 5.4: position i paired with tuple t costs f(t, i), and the
// minimum-cost injective assignment minimizes the expected distance.  It
// also returns the achieved E[F*].
func MeanFootrule(t *andxor.Tree, k int) (List, float64, *genfunc.RankDist, error) {
	if k > len(t.Keys()) {
		k = len(t.Keys())
	}
	rd, err := genfunc.Ranks(t, k)
	if err != nil {
		return nil, 0, nil, err
	}
	tau, e, err := MeanFootruleRanks(rd, NewUpsilons(rd, k), k)
	return tau, e, rd, err
}

// MeanFootruleRanks is MeanFootrule on precomputed rank-distribution and
// Upsilon statistics (u must have been built with the same k after
// clamping), so callers holding cached intermediates pay only for the
// assignment problem.
func MeanFootruleRanks(rd *genfunc.RankDist, u *Upsilons, k int) (List, float64, error) {
	keys := rd.Keys()
	if k > len(keys) {
		k = len(keys)
	}
	if len(u.U1) != len(keys) {
		return nil, 0, fmt.Errorf("topk: Upsilon statistics cover %d keys, rank distribution %d", len(u.U1), len(keys))
	}
	// Filled key by key, from one row fetch each.
	cost := newMatrix(k, len(keys))
	for r := range keys {
		eq, u1, u2 := eqRow(rd, r, u.K), u.U1[r], u.U2[r]
		for i := 1; i <= k; i++ {
			cost[i-1][r] = footruleCell(eq, u1, u2, i, u.K)
		}
	}
	rowTo, total, err := assignment.Min(cost)
	if err != nil {
		return nil, 0, err
	}
	out := make(List, k)
	for i, ti := range rowTo {
		out[i] = keys[ti]
	}
	return out, FootruleConstant(rd, u, k) + total, nil
}
