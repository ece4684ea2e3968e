// Package assignment solves the rectangular linear assignment problem with
// the O(rows^2 * cols) Hungarian algorithm (Jonker–Volgenant style with
// potentials).
//
// Sections 5.3 and 5.4 of the paper reduce the computation of mean top-k
// answers under the intersection metric and under Spearman's footrule to
// exactly this problem: positions 1..k are agents, tuples are tasks, and
// the profit/cost of putting tuple t at position i is a function of the
// rank distribution Pr(r(t) = j) computed by the generating-function
// framework.  The paper cites the O(n*k*sqrt(n)) matching algorithm of
// Micali and Vazirani; we use the simpler cubic Hungarian algorithm, which
// computes the same exact optimum in polynomial time (see DESIGN.md,
// substitutions).
package assignment

import (
	"fmt"
	"math"
)

// Min solves min-cost assignment for the cost matrix (rows x cols,
// rows <= cols): it returns rowTo with rowTo[i] the column assigned to row
// i (all distinct) minimizing the total cost, together with that cost.
// Costs may be negative; every row is assigned.
func Min(cost [][]float64) (rowTo []int, total float64, err error) {
	n := len(cost)
	if n == 0 {
		return nil, 0, nil
	}
	m := len(cost[0])
	if n > m {
		return nil, 0, fmt.Errorf("assignment: %d rows exceed %d columns", n, m)
	}
	for i, row := range cost {
		if len(row) != m {
			return nil, 0, fmt.Errorf("assignment: ragged cost matrix at row %d", i)
		}
		for j, c := range row {
			if math.IsNaN(c) || math.IsInf(c, 0) {
				return nil, 0, fmt.Errorf("assignment: invalid cost at (%d,%d)", i, j)
			}
		}
	}

	// 1-indexed potentials over rows (u) and columns (v); p[j] is the row
	// matched to column j (0 = none); way[j] is the previous column on the
	// alternating path found by the Dijkstra-like scan.  minv and used are
	// the scan's per-row scratch, allocated once and reset for every row.
	u := make([]float64, n+1)
	v := make([]float64, m+1)
	p := make([]int, m+1)
	way := make([]int, m+1)
	minv := make([]float64, m+1)
	used := make([]bool, m+1)
	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		for j := range minv {
			minv[j] = math.Inf(1)
		}
		clear(used)
		for {
			used[j0] = true
			i0 := p[j0]
			row := cost[i0-1]
			delta := math.Inf(1)
			j1 := -1
			for j := 1; j <= m; j++ {
				if used[j] {
					continue
				}
				cur := row[j-1] - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= m; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
	}

	rowTo = make([]int, n)
	for j := 1; j <= m; j++ {
		if p[j] > 0 {
			rowTo[p[j]-1] = j - 1
		}
	}
	for i := 0; i < n; i++ {
		total += cost[i][rowTo[i]]
	}
	return rowTo, total, nil
}

// Max solves max-profit assignment by negating the matrix into one flat
// buffer; same contract as Min.
func Max(profit [][]float64) (rowTo []int, total float64, err error) {
	size := 0
	for _, row := range profit {
		size += len(row)
	}
	flat := make([]float64, size)
	neg := make([][]float64, len(profit))
	off := 0
	for i, row := range profit {
		neg[i] = flat[off : off+len(row) : off+len(row)]
		for j, c := range row {
			neg[i][j] = -c
		}
		off += len(row)
	}
	rowTo, negTotal, err := Min(neg)
	return rowTo, -negTotal, err
}
