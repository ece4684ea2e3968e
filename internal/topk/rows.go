package topk

import "consensus/internal/genfunc"

// The Section 5 consensus steps scan rank-distribution rows by position in
// rd.Keys() (genfunc.RankDist.EqRow/LERow) instead of fetching each
// probability by key string: one row fetch per key replaces one map lookup
// per matrix cell.  These helpers hand out a row of exactly k+1 entries so
// the scans index it directly, keeping the conventions of PrEq and PrLE
// for the rare rows that do not cover rank k.

// newMatrix returns a k x n matrix whose rows are views of one flat
// buffer: one allocation for the cells of an assignment problem.
func newMatrix(k, n int) [][]float64 {
	flat := make([]float64, k*n)
	m := make([][]float64, k)
	for i := range m {
		m[i] = flat[i*n : (i+1)*n : (i+1)*n]
	}
	return m
}

// rowOf returns key's row in rd, or -1 for a key rd does not cover.
func rowOf(rd *genfunc.RankDist, key string) int {
	if r, ok := rd.Row(key); ok {
		return r
	}
	return -1
}

// eqRow returns Pr(r(t) = i) for i = 0..k (element 0 is zero) of the key
// at row r of rd.  The row is read in place when rd.K >= k; otherwise, or
// for a foreign key (r < 0), it is copied out with PrEq's zeros beyond
// rd.K, resp. everywhere.
func eqRow(rd *genfunc.RankDist, r, k int) []float64 {
	if r >= 0 && rd.K >= k {
		return rd.EqRow(r)[:k+1]
	}
	out := make([]float64, k+1)
	if r >= 0 {
		copy(out, rd.EqRow(r))
	}
	return out
}

// leRow is eqRow for Pr(r(t) <= i), with PrLE's conventions: beyond rd.K
// the row holds Pr(r(t) <= rd.K), and a foreign key's row is zero.
func leRow(rd *genfunc.RankDist, r, k int) []float64 {
	if r >= 0 && rd.K >= k {
		return rd.LERow(r)[:k+1]
	}
	out := make([]float64, k+1)
	if r >= 0 {
		row := rd.LERow(r)
		for i := 1; i <= k; i++ {
			out[i] = row[min(i, rd.K)]
		}
	}
	return out
}
