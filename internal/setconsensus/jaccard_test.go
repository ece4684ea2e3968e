package setconsensus

import (
	"math"
	"math/rand"
	"testing"

	"consensus/internal/andxor"
	"consensus/internal/exact"
	"consensus/internal/genfunc"
	"consensus/internal/numeric"
	"consensus/internal/types"
	"consensus/internal/workload"
)

// Lemma 1 (experiment E4): the bivariate generating function computes
// E[d_J(W, pw)] exactly, for arbitrary trees and candidate worlds.
func TestExpectedJaccardMatchesEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 20; trial++ {
		tr := workload.Nested(rng, 2+rng.Intn(4), 2)
		ws := exact.MustEnumerate(tr)
		for _, cand := range allSubsets(tr.LeafAlternatives()) {
			got := ExpectedJaccard(tr, cand)
			want := exact.ExpectedOver(ws, func(w *types.World) float64 {
				return types.Jaccard(cand, w)
			})
			if !numeric.AlmostEqual(got, want, 1e-9) {
				t.Fatalf("trial %d cand %v: genfunc %g enum %g (tree %s)", trial, cand, got, want, tr)
			}
		}
	}
}

func TestExpectedJaccardIndependentFormula(t *testing.T) {
	// The O(n) specialization must agree with the general Lemma 1
	// computation on tuple-independent databases.
	rng := rand.New(rand.NewSource(72))
	for trial := 0; trial < 20; trial++ {
		tr := workload.Independent(rng, 7)
		tuples, err := independentTuples(tr)
		if err != nil {
			t.Fatal(err)
		}
		for mask := 0; mask < 1<<len(tuples); mask++ {
			w := &types.World{}
			mu := 0.0
			pbRest := genfunc.One()
			for i, tp := range tuples {
				if mask&(1<<i) != 0 {
					w.Add(tp.Leaf)
					mu += tp.Prob
				} else {
					pbRest = pbRest.MulTrunc(genfunc.Poly{1 - tp.Prob, tp.Prob}, -1)
				}
			}
			got := ExpectedJaccardIndependent(w.Len(), mu, pbRest)
			want := ExpectedJaccard(tr, w)
			if !numeric.AlmostEqual(got, want, 1e-9) {
				t.Fatalf("trial %d mask %b: fast %g general %g", trial, mask, got, want)
			}
		}
	}
}

// Lemma 2 (experiment E5): the prefix algorithm finds the global optimum
// over all 2^n candidate subsets.
func TestMeanWorldJaccardIsOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 25; trial++ {
		tr := workload.Independent(rng, 2+rng.Intn(8))
		got, gotE, err := MeanWorldJaccard(tr)
		if err != nil {
			t.Fatal(err)
		}
		if !numeric.AlmostEqual(gotE, ExpectedJaccard(tr, got), 1e-9) {
			t.Fatalf("trial %d: reported E %g but world has %g", trial, gotE, ExpectedJaccard(tr, got))
		}
		for _, cand := range allSubsets(tr.LeafAlternatives()) {
			if e := ExpectedJaccard(tr, cand); e < gotE-1e-9 {
				t.Fatalf("trial %d: candidate %v with E=%g beats prefix answer %v with E=%g",
					trial, cand, e, got, gotE)
			}
		}
	}
}

// The sorted-prefix structure itself (the content of Lemma 2): if the mean
// world contains a tuple, it contains every tuple of strictly larger
// probability.
func TestMeanWorldJaccardPrefixStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	for trial := 0; trial < 30; trial++ {
		tr := workload.Independent(rng, 3+rng.Intn(8))
		w, _, err := MeanWorldJaccard(tr)
		if err != nil {
			t.Fatal(err)
		}
		tuples, _ := independentTuples(tr)
		minIn, maxOut := math.Inf(1), math.Inf(-1)
		for _, tp := range tuples {
			if w.Contains(tp.Leaf) {
				minIn = math.Min(minIn, tp.Prob)
			} else {
				maxOut = math.Max(maxOut, tp.Prob)
			}
		}
		if minIn < maxOut-1e-12 {
			t.Fatalf("trial %d: prefix violated: min included %g < max excluded %g", trial, minIn, maxOut)
		}
	}
}

func TestMeanWorldJaccardRejectsCorrelated(t *testing.T) {
	if _, _, err := MeanWorldJaccard(andxor.Figure1iii()); err == nil {
		t.Fatal("correlated tree must be rejected")
	}
	if _, _, err := MeanWorldJaccard(andxor.Figure1i()); err == nil {
		t.Fatal("multi-alternative BID tree must be rejected by the tuple-independent algorithm")
	}
}

// Section 4.2's BID median: optimal among possible worlds, checked by
// exhaustive search over the enumerated distribution.
func TestMedianWorldJaccardIsOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	optimal, tested := 0, 0
	for trial := 0; trial < 40; trial++ {
		tr := workload.BID(rng, 2+rng.Intn(4), 2)
		got, gotE, err := MedianWorldJaccard(tr)
		if err != nil {
			continue // no possible prefix candidate (forced blocks); rare
		}
		tested++
		if !andxor.IsPossible(tr, got) {
			t.Fatalf("trial %d: median %v impossible", trial, got)
		}
		// Exhaustive search over all possible worlds.
		bestE := math.Inf(1)
		ws := exact.MustEnumerate(tr)
		for _, ww := range ws {
			if e := ExpectedJaccard(tr, ww.World); e < bestE {
				bestE = e
			}
		}
		if numeric.AlmostEqual(gotE, bestE, 1e-9) {
			optimal++
		} else if gotE < bestE {
			t.Fatalf("trial %d: median E %g below exhaustive optimum %g", trial, gotE, bestE)
		}
	}
	if tested == 0 {
		t.Fatal("no BID instance was tested")
	}
	// The paper asserts the prefix-of-best-alternatives algorithm is
	// exact for the BID model; verify it on every tested instance.
	if optimal != tested {
		t.Fatalf("median algorithm optimal on %d/%d instances", optimal, tested)
	}
}

func TestMedianWorldJaccardBIDShapeCheck(t *testing.T) {
	if _, _, err := MedianWorldJaccard(andxor.Figure1iii()); err == nil {
		t.Fatal("non-BID tree must be rejected")
	}
}

// jaccardGridOracle is ExpectedJaccard as computed before the dual-number
// evaluation: the full bivariate generating function on the dense
// (|W|+1)×(n+1) grid (leaves in W marked x, the rest y) by one recursive
// walk, then the Lemma 1 sum over every cell.
func jaccardGridOracle(t *andxor.Tree, w *types.World) float64 {
	n, sizeW := t.NumLeaves(), w.Len()
	newGrid := func() [][]float64 {
		g := make([][]float64, sizeW+1)
		for i := range g {
			g[i] = make([]float64, n+1)
		}
		return g
	}
	var walk func(nd *andxor.Node) [][]float64
	walk = func(nd *andxor.Node) [][]float64 {
		out := newGrid()
		switch nd.Kind() {
		case andxor.KindLeaf:
			if w.Contains(nd.Leaf()) {
				out[1][0] = 1
			} else {
				out[0][1] = 1
			}
		case andxor.KindOr:
			out[0][0] = nd.StopProb()
			for ci, c := range nd.Children() {
				g := walk(c)
				if p := nd.Probs()[ci]; p != 0 {
					for i := range out {
						for j := range out[i] {
							out[i][j] += p * g[i][j]
						}
					}
				}
			}
		default: // KindAnd
			out[0][0] = 1
			for _, c := range nd.Children() {
				g := walk(c)
				prod := newGrid()
				for i, row := range out {
					for j, a := range row {
						if a == 0 {
							continue
						}
						for k := 0; i+k <= sizeW; k++ {
							for l := 0; j+l <= n; l++ {
								prod[i+k][j+l] += a * g[k][l]
							}
						}
					}
				}
				out = prod
			}
		}
		return out
	}
	f := walk(t.Root())
	e := 0.0
	for i := 0; i <= sizeW; i++ {
		for j := 0; j <= n; j++ {
			den := float64(sizeW + j)
			if f[i][j] == 0 || den == 0 {
				continue // d_J(empty, empty) = 0
			}
			e += f[i][j] * float64(sizeW-i+j) / den
		}
	}
	return e
}

// TestExpectedJaccardDualMatchesGridOracle pins the dual-number
// ExpectedJaccard to the dense-grid computation it replaced, on BID,
// tuple-independent and nested trees, for candidate worlds of every size
// from the empty world (the den == 0 cell) to one alternative of every key.
func TestExpectedJaccardDualMatchesGridOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 12; trial++ {
		var tr *andxor.Tree
		switch trial % 3 {
		case 0:
			tr = workload.BID(rng, 2+rng.Intn(6), 3)
		case 1:
			tr = workload.Independent(rng, 2+rng.Intn(8))
		default:
			tr = workload.Nested(rng, 2+rng.Intn(5), 2)
		}
		// One random alternative per key, added in a random key order.
		byKey := map[string][]types.Leaf{}
		for _, l := range tr.LeafAlternatives() {
			byKey[l.Key] = append(byKey[l.Key], l)
		}
		keys := append([]string(nil), tr.Keys()...)
		rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		w := &types.World{}
		for m := 0; m <= len(keys); m++ {
			if m > 0 {
				alts := byKey[keys[m-1]]
				w.Add(alts[rng.Intn(len(alts))])
			}
			got, want := ExpectedJaccard(tr, w), jaccardGridOracle(tr, w)
			if math.Abs(got-want) > 1e-12 {
				t.Fatalf("trial %d |W|=%d: dual %.17g, grid oracle %.17g (tree %s)", trial, m, got, want, tr)
			}
		}
	}
}
