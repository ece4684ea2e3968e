package genfunc

import (
	"math/rand"
	"testing"

	"consensus/internal/andxor"
	"consensus/internal/exact"
	"consensus/internal/numeric"
	"consensus/internal/types"
	"consensus/internal/workload"
)

// TestWorldSizeDistFigure1i reproduces the generating function printed in
// Figure 1(i) of the paper: 0.08 x^2 + 0.44 x^3 + 0.48 x^4.
func TestWorldSizeDistFigure1i(t *testing.T) {
	p := WorldSizeDist(andxor.Figure1i())
	want := Poly{0, 0, 0.08, 0.44, 0.48}
	if len(p) != len(want) {
		t.Fatalf("size dist = %v", p)
	}
	for i := range want {
		if !numeric.AlmostEqual(p.Coeff(i), want.Coeff(i), 1e-12) {
			t.Errorf("coeff x^%d = %g, want %g", i, p.Coeff(i), want.Coeff(i))
		}
	}
}

// TestWorldSizeDistFigure1iii reproduces the other generating function in
// Figure 1: 0.3y + 0.3x^2 + 0.4x when y marks the leaf (t3,6) and x marks
// higher-scored leaves... the figure's caption instead states the world
// SIZE function for the tree (iii) is implied by its three 3-tuple worlds:
// x^3 with total probability 1.
func TestWorldSizeDistFigure1iii(t *testing.T) {
	p := WorldSizeDist(andxor.Figure1iii())
	if !numeric.AlmostEqual(p.Coeff(3), 1, 1e-12) || !numeric.AlmostEqual(p.Sum(), 1, 1e-12) {
		t.Fatalf("size dist = %v, want all mass at 3", p)
	}
}

// TestRankGeneratingFunctionFigure1iii checks the exact computation the
// caption of Figure 1(iii) describes: assign y to the leaf (t3,6), x to all
// leaves with key != t3 and score > 6, and 1 elsewhere; the coefficient of
// y (i.e. x^0 y^1) is Pr(the (t3,6) alternative is ranked first) = 0.3.
func TestRankGeneratingFunctionFigure1iii(t *testing.T) {
	tr := andxor.Figure1iii()
	target := types.Leaf{Key: "t3", Score: 6}
	f := Eval2(tr, func(i int, l types.Leaf) (int, int) {
		if l == target {
			return 0, 1
		}
		if l.Key != target.Key && l.Score > target.Score {
			return 1, 0
		}
		return 0, 0
	}, 2, 1)
	if !numeric.AlmostEqual(f.Coeff(0, 1), 0.3, 1e-12) {
		t.Fatalf("coefficient of y = %g, want 0.3", f.Coeff(0, 1))
	}
}

// Cross-check Eval1 against enumeration on random nested trees: the
// world-size distribution from the generating function must match the
// enumerated distribution exactly.
func TestWorldSizeDistMatchesEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		tr := workload.Nested(rng, 2+rng.Intn(6), 2)
		p := WorldSizeDist(tr)
		ws := exact.MustEnumerate(tr)
		dist := exact.WorldSizeDist(ws)
		for i := 0; i < len(p) || i < len(dist); i++ {
			var d float64
			if i < len(dist) {
				d = dist[i]
			}
			if !numeric.AlmostEqual(p.Coeff(i), d, 1e-9) {
				t.Fatalf("trial %d size %d: genfunc %g enum %g (tree %s)", trial, i, p.Coeff(i), d, tr)
			}
		}
		if !numeric.AlmostEqual(p.Sum(), 1, 1e-9) {
			t.Fatalf("distribution sums to %g", p.Sum())
		}
	}
}

func TestAllAbsentMatchesEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 20; trial++ {
		tr := workload.Nested(rng, 2+rng.Intn(5), 2)
		keys := tr.Keys()
		sel := map[string]bool{keys[rng.Intn(len(keys))]: true, keys[rng.Intn(len(keys))]: true}
		got := AllAbsent(tr, sel)
		ws := exact.MustEnumerate(tr)
		want := exact.ExpectedOver(ws, func(w *types.World) float64 {
			for k := range sel {
				if w.HasKey(k) {
					return 0
				}
			}
			return 1
		})
		if !numeric.AlmostEqual(got, want, 1e-9) {
			t.Fatalf("trial %d: all-absent genfunc %g enum %g", trial, got, want)
		}
	}
}
