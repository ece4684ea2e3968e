package setconsensus

import (
	"fmt"
	"math"
	"sort"

	"consensus/internal/andxor"
	"consensus/internal/genfunc"
	"consensus/internal/types"
)

// ExpectedJaccard returns E[d_J(W, pw)] for an arbitrary and/xor tree and
// an arbitrary candidate world W, using the bivariate generating function
// of Lemma 1.  Writing c_{i,j} for the probability that |pw ∩ W| = i and
// |pw \ W| = j, the Jaccard distance of such a world is
// (|W| - i + j) / (|W| + j), so only two moments per j are needed:
// c_j = sum_i c_{i,j} and m_j = sum_i i·c_{i,j}.  Assigning (1+x) to the
// leaves in W and y to the rest, at x-cap 1, yields exactly those as the
// coefficients of y^j and x·y^j (dual numbers: the x part differentiates
// at x=1), and
//
//	E[d_J] = sum_{j: |W|+j > 0} (c_j - m_j / (|W| + j)).
//
// The evaluation holds two coefficients per y-degree per instruction,
// O(|tree|·n) memory, instead of the (|W|+1)·(n+1) grid of the plain
// bivariate function.
func ExpectedJaccard(t *andxor.Tree, w *types.World) float64 {
	n := t.NumLeaves()
	sizeW := w.Len()
	f := genfunc.Eval(t, func(_ int, l types.Leaf) (int, int) {
		if w.Contains(l) {
			return genfunc.DualX, 0
		}
		return 0, 1
	}, 1, n)
	e := 0.0
	for j := 0; j <= n; j++ {
		den := float64(sizeW + j)
		if den == 0 {
			continue // d_J(empty, empty) = 0
		}
		e += f.Coeff(0, j) - f.Coeff(1, j)/den
	}
	return e
}

// independentTuples extracts the (leaf, probability) pairs of a
// tuple-independent tree, or reports that the tree is not of that shape.
// Tuple-independent means: one alternative per key, every block a
// single-leaf or-node directly under an and-root (or the tree being a
// single such block).
func independentTuples(t *andxor.Tree) ([]andxor.TupleProb, error) {
	var blocks []*andxor.Node
	switch t.Root().Kind() {
	case andxor.KindAnd:
		blocks = t.Root().Children()
	case andxor.KindOr:
		blocks = []*andxor.Node{t.Root()}
	default:
		return nil, fmt.Errorf("setconsensus: tree is not tuple-independent")
	}
	out := make([]andxor.TupleProb, 0, len(blocks))
	for _, b := range blocks {
		if b.Kind() != andxor.KindOr || len(b.Children()) != 1 || b.Children()[0].Kind() != andxor.KindLeaf {
			return nil, fmt.Errorf("setconsensus: tree is not tuple-independent (block is not a single-leaf or-node)")
		}
		out = append(out, andxor.TupleProb{Leaf: b.Children()[0].Leaf(), Prob: b.Probs()[0]})
	}
	return out, nil
}

// ExpectedJaccardIndependent evaluates E[d_J(W, pw)] for a set of
// independent tuples in O(n) given the Poisson-binomial distribution
// pbRest of |pw \ W|.  Writing I = |pw ∩ W| and J = |pw \ W|, the two are
// independent (they are counts over disjoint independent tuple groups) and
// the numerator of d_J is linear in I, so
//
//	E[d_J] = sum_j Pr(J=j) * (|W| + j - mu_W) / (|W| + j),
//
// where mu_W = E[I] is the sum of the probabilities of W's tuples.  This
// O(n)-per-candidate specialization of Lemma 1 is what makes the prefix
// search of Lemma 2 cost O(n^2) overall.
func ExpectedJaccardIndependent(sizeW int, muW float64, pbRest genfunc.Poly) float64 {
	e := 0.0
	for j := 0; j < len(pbRest); j++ {
		den := float64(sizeW + j)
		if den == 0 {
			continue
		}
		e += pbRest.Coeff(j) * (den - muW) / den
	}
	return e
}

// MeanWorldJaccard returns the mean world under the Jaccard distance for a
// tuple-independent database, together with its expected distance.  By
// Lemma 2 the optimum is a prefix of the tuples sorted by decreasing
// probability, so the algorithm sorts, evaluates every prefix (including
// the empty one), and keeps the best; suffix Poisson-binomial polynomials
// are grown incrementally from the back so the whole search is O(n^2).
func MeanWorldJaccard(t *andxor.Tree) (*types.World, float64, error) {
	tuples, err := independentTuples(t)
	if err != nil {
		return nil, 0, err
	}
	sort.SliceStable(tuples, func(i, j int) bool { return tuples[i].Prob > tuples[j].Prob })
	n := len(tuples)

	// suffixPB[k] = Poisson-binomial polynomial of tuples[k:].
	suffixPB := make([]genfunc.Poly, n+1)
	suffixPB[n] = genfunc.One()
	for k := n - 1; k >= 0; k-- {
		p := tuples[k].Prob
		suffixPB[k] = suffixPB[k+1].MulTrunc(genfunc.Poly{1 - p, p}, -1)
	}

	bestK, bestE := 0, math.Inf(1)
	mu := 0.0
	for k := 0; k <= n; k++ {
		if e := ExpectedJaccardIndependent(k, mu, suffixPB[k]); e < bestE {
			bestK, bestE = k, e
		}
		if k < n {
			mu += tuples[k].Prob
		}
	}
	w := &types.World{}
	for _, tp := range tuples[:bestK] {
		w.Add(tp.Leaf)
	}
	return w, bestE, nil
}

// bidBlocks extracts the blocks of a BID-shaped tree (an and-root over
// or-nodes whose children are all leaves of one key, or a single such
// or-node).
func bidBlocks(t *andxor.Tree) ([]andxor.Block, error) {
	var nodes []*andxor.Node
	switch t.Root().Kind() {
	case andxor.KindAnd:
		nodes = t.Root().Children()
	case andxor.KindOr:
		nodes = []*andxor.Node{t.Root()}
	default:
		return nil, fmt.Errorf("setconsensus: tree is not in BID form")
	}
	out := make([]andxor.Block, 0, len(nodes))
	for _, b := range nodes {
		if b.Kind() != andxor.KindOr {
			return nil, fmt.Errorf("setconsensus: tree is not in BID form (child of root is not an or-node)")
		}
		var blk andxor.Block
		for i, c := range b.Children() {
			if c.Kind() != andxor.KindLeaf {
				return nil, fmt.Errorf("setconsensus: tree is not in BID form (non-leaf under block)")
			}
			blk.Alternatives = append(blk.Alternatives, c.Leaf())
			blk.Probs = append(blk.Probs, b.Probs()[i])
		}
		out = append(out, blk)
	}
	return out, nil
}

// MedianWorldJaccard returns a median world under the Jaccard distance for
// a BID database: following Section 4.2, only each tuple's
// highest-probability alternative is considered, tuples are sorted by that
// probability, and each prefix that is a possible world is evaluated with
// the Lemma 1 generating function; the best one is returned with its
// expected distance.
//
// Candidate prefixes that are not possible worlds (which happens only when
// some block's probabilities sum to exactly 1, forcing the tuple into
// every world) are skipped; if no candidate is possible the function
// reports an error rather than returning a non-answer.
func MedianWorldJaccard(t *andxor.Tree) (*types.World, float64, error) {
	blocks, err := bidBlocks(t)
	if err != nil {
		return nil, 0, err
	}
	best := make([]andxor.TupleProb, 0, len(blocks))
	for _, b := range blocks {
		bi, bp := -1, 0.0
		for i, p := range b.Probs {
			if p > bp {
				bi, bp = i, p
			}
		}
		if bi >= 0 {
			best = append(best, andxor.TupleProb{Leaf: b.Alternatives[bi], Prob: bp})
		}
	}
	sort.SliceStable(best, func(i, j int) bool { return best[i].Prob > best[j].Prob })

	bestE := math.Inf(1)
	var bestW *types.World
	w := &types.World{}
	for k := 0; k <= len(best); k++ {
		if k > 0 {
			w.Add(best[k-1].Leaf)
		}
		if !andxor.IsPossible(t, w) {
			continue
		}
		if e := ExpectedJaccard(t, w); e < bestE {
			bestE = e
			bestW = w.Clone()
		}
	}
	if bestW == nil {
		return nil, 0, fmt.Errorf("setconsensus: no candidate prefix is a possible world")
	}
	return bestW, bestE, nil
}
