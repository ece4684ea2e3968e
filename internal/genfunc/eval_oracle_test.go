package genfunc

import (
	"math"
	"math/rand"
	"testing"

	"consensus/internal/andxor"
	"consensus/internal/types"
)

// diffPoly2 fails unless got and want agree within kernelTol on every
// coefficient up to the caps.
func diffPoly2(t *testing.T, got, want *Poly2, label string) {
	t.Helper()
	if got.xcap != want.xcap || got.ycap != want.ycap {
		t.Fatalf("%s: caps (%d,%d) vs oracle (%d,%d)", label, got.xcap, got.ycap, want.xcap, want.ycap)
	}
	for i := 0; i <= got.xcap; i++ {
		for j := 0; j <= got.ycap; j++ {
			if d := math.Abs(got.Coeff(i, j) - want.Coeff(i, j)); d > kernelTol {
				t.Fatalf("%s: coeff x^%d y^%d = %g, oracle %g", label, i, j, got.Coeff(i, j), want.Coeff(i, j))
			}
		}
	}
}

// TestProgramEvalMatchesEval2 pins Program.Eval to the recursive Eval2 on
// random monomial assignments, including degrees beyond the caps (which
// truncate the leaf away) and every arena shape: the dual (0,1) slots,
// the ycap-1 product kernel and the generic one.
func TestProgramEvalMatchesEval2(t *testing.T) {
	caps := [][2]int{{0, 0}, {0, 1}, {1, 1}, {2, 0}, {2, 1}, {3, 2}, {1, 4}}
	for shape := 0; shape < 3; shape++ {
		for _, n := range []int{1, 4, 17} {
			tr := testTree(shape, 7*shape+n, n, 3)
			prog := Compile(tr)
			rng := rand.New(rand.NewSource(int64(31*shape + n)))
			for _, c := range caps {
				xd := make([]int, tr.NumLeaves())
				yd := make([]int, tr.NumLeaves())
				for i := range xd {
					xd[i], yd[i] = rng.Intn(3), rng.Intn(2)
				}
				assign := func(i int, _ types.Leaf) (int, int) { return xd[i], yd[i] }
				got := prog.Eval(assign, c[0], c[1])
				diffPoly2(t, got, Eval2(tr, assign, c[0], c[1]), "Program.Eval")
				// A second evaluation on the recycled arena must not see
				// the first one's marks.
				diffPoly2(t, prog.Eval(assign, c[0], c[1]), got, "Program.Eval (pooled arena)")
			}
		}
	}
}

// TestProgramEvalDualX pins the (1+x) leaf form: at x-cap 1 the root's x^0
// and x^1 coefficients per y-degree are the zeroth and first moments of
// the DualX-marked count, which the recursive oracle gives by marking the
// same leaves with x at full degree.
func TestProgramEvalDualX(t *testing.T) {
	for shape := 0; shape < 3; shape++ {
		for _, n := range []int{1, 5, 12} {
			tr := testTree(shape, 13*shape+n, n, 3)
			rng := rand.New(rand.NewSource(int64(shape + 5*n)))
			dual := make([]bool, tr.NumLeaves())
			m := 0
			for i := range dual {
				if dual[i] = rng.Intn(2) == 0; dual[i] {
					m++
				}
			}
			ycap := tr.NumLeaves()
			got := Eval(tr, func(i int, _ types.Leaf) (int, int) {
				if dual[i] {
					return DualX, 0
				}
				return 0, 1
			}, 1, ycap)
			full := Eval2(tr, func(i int, _ types.Leaf) (int, int) {
				if dual[i] {
					return 1, 0
				}
				return 0, 1
			}, m, ycap)
			want := NewPoly2(1, ycap)
			for j := 0; j <= ycap; j++ {
				for i := 0; i <= m; i++ {
					want.SetCoeff(0, j, want.Coeff(0, j)+full.Coeff(i, j))
					want.SetCoeff(1, j, want.Coeff(1, j)+float64(i)*full.Coeff(i, j))
				}
			}
			diffPoly2(t, got, want, "DualX")
		}
	}
}

// TestSubsetStatisticsMatchEval1 pins AllAbsent, now on the compiled
// kernel, to the recursive Eval1 formula it was computed with before.
func TestSubsetStatisticsMatchEval1(t *testing.T) {
	for shape := 0; shape < 3; shape++ {
		for _, n := range []int{1, 6, 23} {
			tr := testTree(shape, 17*shape+n, n, 3)
			leaves := tr.LeafAlternatives()
			rng := rand.New(rand.NewSource(int64(3*shape + n)))
			a, b := rng.Intn(len(leaves)), rng.Intn(len(leaves))
			keys := map[string]bool{leaves[a].Key: true, leaves[b].Key: true}
			gotAbs := AllAbsent(tr, keys)
			wantAbs := Eval1(tr, func(_ int, l types.Leaf) int {
				if keys[l.Key] {
					return 1
				}
				return 0
			}, 0).Coeff(0)
			if d := math.Abs(gotAbs - wantAbs); d > kernelTol {
				t.Fatalf("shape=%d n=%d: AllAbsent %g, oracle %g", shape, n, gotAbs, wantAbs)
			}
		}
	}
}

// TestCompiledMemoTracksTreeMutations is the regression test for the
// package-level program memo serving answers from before an in-place
// Tree.Apply: after every kind of mutation (weight-only set-prob, a batch,
// evidence, a structural insert) the package-level evaluators must equal,
// bit for bit, the same evaluators on a fresh clone of the mutated tree.
func TestCompiledMemoTracksTreeMutations(t *testing.T) {
	tr := testTree(1, 5, 10, 2) // BID: every leaf sits under an or-block
	leaves := tr.LeafAlternatives()
	a, b := leaves[0], leaves[len(leaves)-1]
	steps := [][]andxor.Update{
		{{Kind: andxor.UpdateSetProb, Key: a.Key, Score: a.Score, Prob: 0.05, Renormalize: true}},
		{
			{Kind: andxor.UpdateSetProb, Key: b.Key, Score: b.Score, Prob: 0.9, Renormalize: true},
			{Kind: andxor.UpdateSetProb, Key: a.Key, Score: a.Score, Prob: 0.6, Renormalize: true},
		},
		{{Kind: andxor.EvidenceAbsent, Key: b.Key}},
		{{Kind: andxor.UpdateInsert, Key: a.Key, Score: 1e6 + 0.5, Prob: 0}},
	}
	check := func(step int) {
		t.Helper()
		fresh := tr.Clone()
		got, err := Ranks(tr, 3)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Ranks(fresh, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, key := range want.Keys() {
			for i := 1; i <= 3; i++ {
				if math.Float64bits(got.PrEq(key, i)) != math.Float64bits(want.PrEq(key, i)) {
					t.Fatalf("step %d: Ranks PrEq(%s,%d) = %g, fresh tree %g", step, key, i, got.PrEq(key, i), want.PrEq(key, i))
				}
			}
		}
		gs, ws := WorldSizeDist(tr), WorldSizeDist(fresh)
		if len(gs) != len(ws) {
			t.Fatalf("step %d: WorldSizeDist %v, fresh tree %v", step, gs, ws)
		}
		for i := range ws {
			if math.Float64bits(gs[i]) != math.Float64bits(ws[i]) {
				t.Fatalf("step %d: WorldSizeDist %v, fresh tree %v", step, gs, ws)
			}
		}
		sel := map[string]bool{a.Key: true}
		if g, w := AllAbsent(tr, sel), AllAbsent(fresh, sel); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("step %d: AllAbsent %g, fresh tree %g", step, g, w)
		}
	}
	check(0)
	for i, us := range steps {
		if _, err := tr.ApplyAll(us); err != nil {
			t.Fatalf("step %d: %v", i+1, err)
		}
		check(i + 1)
	}
}
