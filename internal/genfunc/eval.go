package genfunc

import (
	"consensus/internal/andxor"
	"consensus/internal/types"
)

// Assignment2 maps a leaf (identified by its depth-first index and its
// tuple alternative) to the degrees (a, b) of the monomial x^a y^b it
// contributes; (0, 0) is the constant 1.  An x-degree of DualX assigns
// (1+x)·y^b instead of a monomial.
type Assignment2 func(i int, l types.Leaf) (xdeg, ydeg int)

// Eval computes the bivariate generating function of the tree under the
// given assignment, truncated at (xcap, ycap): the coefficient of x^i y^j
// is the total probability of worlds with marked x-degree i and y-degree j
// (Theorem 1 with two variables).  It runs on a pooled arena — one leaf
// pass, one flush of the marked root paths — so repeated evaluations
// allocate only the returned polynomial.  Both caps must be non-negative;
// the arena holds (xcap+1)·(ycap+1) coefficients per instruction.
func (p *Program) Eval(assign Assignment2, xcap, ycap int) *Poly2 {
	ar := p.acquireArena(xcap, ycap)
	for i, l := range p.leaves {
		xd, yd := assign(i, l)
		ar.setLeaf(int32(i), int32(xd), int32(yd))
	}
	ar.flush()
	out := NewPoly2(xcap, ycap)
	root := len(p.insts) - 1
	for y := 0; y <= ycap; y++ {
		row := ar.vals[root*ar.sz+y*ar.w:]
		for x := int32(0); x < ar.lens[root*(ycap+1)+y]; x++ {
			out.c[int(x)*(ycap+1)+y] = row[x]
		}
	}
	ar.reset()
	p.releaseArena(ar)
	return out
}

// Eval is Program.Eval on the memoized compiled program of t.
func Eval(t *andxor.Tree, assign Assignment2, xcap, ycap int) *Poly2 {
	return compiled(t).Eval(assign, xcap, ycap)
}

// WorldSizeDist returns the distribution of possible-world sizes as a
// polynomial: Coeff(i) = Pr(|pw| = i).  This is Example 1 of the paper
// (assign the same variable x to every leaf), evaluated by the compiled
// kernel in one allocation-light bottom-up pass over a pooled buffer.
func WorldSizeDist(t *andxor.Tree) Poly {
	return compiled(t).WorldSizeDist()
}

// AllAbsent returns the probability that none of the keys in the given set
// have any alternative present: the constant coefficient after marking
// every alternative of those keys with x.
func AllAbsent(t *andxor.Tree, keys map[string]bool) float64 {
	return Eval(t, func(_ int, l types.Leaf) (int, int) {
		if keys[l.Key] {
			return 1, 0
		}
		return 0, 0
	}, 0, 0).Coeff(0, 0)
}
