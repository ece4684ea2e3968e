package assignment

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// minLegacy is the Hungarian solve as it stood before the per-row scratch
// was hoisted out of the row loop: minv and used are allocated afresh for
// every row.  TestMinMatchesLegacy pins Min to it.
func minLegacy(cost [][]float64) ([]int, float64) {
	n, m := len(cost), len(cost[0])
	u := make([]float64, n+1)
	v := make([]float64, m+1)
	p := make([]int, m+1)
	way := make([]int, m+1)
	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		minv := make([]float64, m+1)
		used := make([]bool, m+1)
		for j := range minv {
			minv[j] = math.Inf(1)
		}
		for {
			used[j0] = true
			i0 := p[j0]
			delta := math.Inf(1)
			j1 := -1
			for j := 1; j <= m; j++ {
				if used[j] {
					continue
				}
				cur := cost[i0-1][j-1] - u[i0] - v[j]
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
	rowTo := make([]int, n)
	for j := 1; j <= m; j++ {
		if p[j] > 0 {
			rowTo[p[j]-1] = j - 1
		}
	}
	total := 0.0
	for i := 0; i < n; i++ {
		total += cost[i][rowTo[i]]
	}
	return rowTo, total
}

// TestMinMatchesLegacy checks that Min returns exactly the legacy
// assignment and total, bit for bit, on continuous costs and on small
// integer costs whose many ties make the answer depend on scan order.
func TestMinMatchesLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(12)
		m := n + rng.Intn(20)
		ties := trial%2 == 1
		cost := make([][]float64, n)
		for i := range cost {
			cost[i] = make([]float64, m)
			for j := range cost[i] {
				if ties {
					cost[i][j] = float64(rng.Intn(4))
				} else {
					cost[i][j] = rng.NormFloat64()
				}
			}
		}
		rowTo, total, err := Min(cost)
		if err != nil {
			t.Fatal(err)
		}
		wantTo, wantTotal := minLegacy(cost)
		if !slices.Equal(rowTo, wantTo) || math.Float64bits(total) != math.Float64bits(wantTotal) {
			t.Fatalf("trial %d: Min = %v (%v), legacy %v (%v)", trial, rowTo, total, wantTo, wantTotal)
		}
		neg := make([][]float64, n)
		for i, row := range cost {
			neg[i] = make([]float64, m)
			for j, c := range row {
				neg[i][j] = -c
			}
		}
		maxTo, maxTotal, err := Max(neg)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(maxTo, wantTo) || math.Float64bits(maxTotal) != math.Float64bits(-wantTotal) {
			t.Fatalf("trial %d: Max = %v (%v), legacy %v (%v)", trial, maxTo, maxTotal, wantTo, -wantTotal)
		}
	}
}
