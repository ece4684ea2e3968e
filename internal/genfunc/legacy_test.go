package genfunc

import (
	"fmt"

	"consensus/internal/andxor"
	"consensus/internal/types"
)

// Legacy reference implementations: the recursive evaluators Eval1/Eval2
// (with the polynomial arithmetic only they use) and the batched
// statistics built directly on them, exactly as the package computed them
// before the compiled incremental kernel.  The differential tests pin the
// kernel to these within kernelTol.

// Assignment1 maps a leaf (identified by its depth-first index and its
// tuple alternative) to the degree of the single variable x it contributes:
// 0 for the constant 1, 1 for x, or any small power.
type Assignment1 func(i int, l types.Leaf) int

// Eval1 computes the univariate generating function of the tree under the
// given variable assignment, truncating all products at degree cap
// (cap < 0 disables truncation).  Per Theorem 1 of the paper the
// coefficient of x^i in the result is the total probability of the possible
// worlds containing exactly i leaves of degree-1 assignment (more
// generally, total marked degree i).
func Eval1(t *andxor.Tree, assign Assignment1, cap int) Poly {
	idx := 0
	var walk func(n *andxor.Node) Poly
	walk = func(n *andxor.Node) Poly {
		switch n.Kind() {
		case andxor.KindLeaf:
			d := assign(idx, n.Leaf())
			idx++
			if cap >= 0 && d > cap {
				return NewPoly(cap) // monomial truncated away entirely
			}
			m := NewPoly(d)
			m[d] = 1
			return m
		case andxor.KindOr:
			out := Poly{n.StopProb()}
			for i, c := range n.Children() {
				p := n.Probs()[i]
				child := walk(c)
				if p != 0 {
					out = out.AddScaled(child, p)
				}
			}
			return out
		default: // KindAnd
			out := One()
			for _, c := range n.Children() {
				out = out.MulTrunc(walk(c), cap)
			}
			return out
		}
	}
	return walk(t.Root())
}

// Eval2 computes the bivariate generating function of the tree under the
// given assignment, truncated at (xcap, ycap), by one recursive walk.
func Eval2(t *andxor.Tree, assign Assignment2, xcap, ycap int) *Poly2 {
	idx := 0
	var walk func(n *andxor.Node) *Poly2
	walk = func(n *andxor.Node) *Poly2 {
		switch n.Kind() {
		case andxor.KindLeaf:
			a, b := assign(idx, n.Leaf())
			idx++
			return Monomial2(a, b, xcap, ycap)
		case andxor.KindOr:
			out := NewPoly2(xcap, ycap)
			out.AddConst(n.StopProb())
			for i, c := range n.Children() {
				p := n.Probs()[i]
				child := walk(c)
				if p != 0 {
					out.AddScaled(child, p)
				}
			}
			return out
		default: // KindAnd
			out := One2(xcap, ycap)
			for _, c := range n.Children() {
				out = out.MulTrunc(walk(c))
			}
			return out
		}
	}
	return walk(t.Root())
}

// AddScaled adds s*q into p in place, growing p as needed, and returns the
// (possibly reallocated) result.
func (p Poly) AddScaled(q Poly, s float64) Poly {
	if len(q) > len(p) {
		grown := NewPoly(len(q) - 1)
		copy(grown, p)
		p = grown
	}
	for i, c := range q {
		p[i] += s * c
	}
	return p
}

// Sum returns the sum of coefficients, i.e. the polynomial evaluated at 1.
// For a complete (untruncated) probability generating function this is 1.
func (p Poly) Sum() float64 {
	s := 0.0
	for _, c := range p {
		s += c
	}
	return s
}

// One2 returns the constant polynomial 1 with the given caps.
func One2(xcap, ycap int) *Poly2 {
	p := NewPoly2(xcap, ycap)
	p.c[0] = 1
	return p
}

// Monomial2 returns x^a y^b with the given caps; degrees beyond the caps
// yield the zero polynomial.
func Monomial2(a, b, xcap, ycap int) *Poly2 {
	p := NewPoly2(xcap, ycap)
	if a <= xcap && b <= ycap {
		p.c[a*(ycap+1)+b] = 1
	}
	return p
}

// SetCoeff sets the coefficient of x^i y^j; out-of-cap indices panic.
func (p *Poly2) SetCoeff(i, j int, v float64) {
	p.c[i*(p.ycap+1)+j] = v
}

// AddScaled adds s*q into p in place.  Caps must match.
func (p *Poly2) AddScaled(q *Poly2, s float64) {
	if p.xcap != q.xcap || p.ycap != q.ycap {
		panic("genfunc: Poly2 cap mismatch")
	}
	for i, c := range q.c {
		p.c[i] += s * c
	}
}

// AddConst adds the scalar s to the constant term.
func (p *Poly2) AddConst(s float64) { p.c[0] += s }

// MulTrunc returns p*q truncated at p's caps.  Caps must match.
func (p *Poly2) MulTrunc(q *Poly2) *Poly2 {
	if p.xcap != q.xcap || p.ycap != q.ycap {
		panic("genfunc: Poly2 cap mismatch")
	}
	out := NewPoly2(p.xcap, p.ycap)
	w := p.ycap + 1
	for i := 0; i <= p.xcap; i++ {
		for j := 0; j <= p.ycap; j++ {
			a := p.c[i*w+j]
			if a == 0 {
				continue
			}
			for k := 0; i+k <= p.xcap; k++ {
				row := q.c[k*w:]
				orow := out.c[(i+k)*w:]
				for l := 0; j+l <= p.ycap; l++ {
					b := row[l]
					if b != 0 {
						orow[j+l] += a * b
					}
				}
			}
		}
	}
	return out
}

// Sum returns the polynomial evaluated at x=y=1.
func (p *Poly2) Sum() float64 {
	s := 0.0
	for _, c := range p.c {
		s += c
	}
	return s
}

// ranksLegacy is the pre-kernel Ranks: one full recursive bivariate
// evaluation per leaf alternative.
func ranksLegacy(t *andxor.Tree, k int) (*RankDist, error) {
	if k < 1 {
		return nil, errRankCutoff(k)
	}
	if err := ValidateScores(t); err != nil {
		return nil, err
	}
	leaves := t.LeafAlternatives()
	keys := t.Keys()
	idx := make(map[string]int32, len(keys))
	for i, key := range keys {
		idx[key] = int32(i)
	}
	rd := newRankDist(keys, idx, k)
	for a, alt := range leaves {
		f := Eval2(t, func(i int, l types.Leaf) (int, int) {
			if i == a {
				return 0, 1
			}
			if l.Key != alt.Key && l.Score > alt.Score {
				return 1, 0
			}
			return 0, 0
		}, k-1, 1)
		dist := rd.eq[int(idx[alt.Key])*(k+1):]
		for j := 1; j <= k; j++ {
			dist[j] += f.Coeff(j-1, 1)
		}
	}
	rd.fillCumulative()
	return rd, nil
}

// expectedRankLegacy is the pre-kernel ExpectedRank: a full rank
// distribution at cutoff n plus one untruncated recursive bivariate
// evaluation per key for the absent-size term.
func expectedRankLegacy(t *andxor.Tree) (map[string]float64, error) {
	n := len(t.Keys())
	if n == 0 {
		return nil, fmt.Errorf("genfunc: empty tree")
	}
	rd, err := ranksLegacy(t, n)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, n)
	for _, key := range t.Keys() {
		s := 0.0
		for j := 1; j <= n; j++ {
			s += float64(j) * rd.PrEq(key, j)
		}
		key := key
		f := Eval2(t, func(i int, l types.Leaf) (int, int) {
			if l.Key == key {
				return 1, 1
			}
			return 1, 0
		}, t.NumLeaves(), 1)
		for sz := 0; sz <= t.NumLeaves(); sz++ {
			s += float64(sz) * f.Coeff(sz, 0)
		}
		out[key] = s
	}
	return out, nil
}

// validateScoresLegacy is the pre-kernel ValidateScores: one full
// recursive co-occurrence evaluation per tied cross-key pair (iterated
// over a float64-keyed map, so the reported pair was nondeterministic;
// only the error verdict is comparable).
func validateScoresLegacy(t *andxor.Tree) error {
	leaves := t.LeafAlternatives()
	byScore := map[float64][]int{}
	for i, l := range leaves {
		byScore[l.Score] = append(byScore[l.Score], i)
	}
	for score, idxs := range byScore {
		if len(idxs) < 2 {
			continue
		}
		for a := 0; a < len(idxs); a++ {
			for b := a + 1; b < len(idxs); b++ {
				i, j := idxs[a], idxs[b]
				if leaves[i].Key == leaves[j].Key {
					continue
				}
				both := Eval1(t, func(idx int, _ types.Leaf) int {
					if idx == i || idx == j {
						return 1
					}
					return 0
				}, 2).Coeff(2)
				if both > 0 {
					return fmt.Errorf("genfunc: alternatives %v and %v share score %v and can co-occur; ranking is ill-defined",
						leaves[i], leaves[j], score)
				}
			}
		}
	}
	return nil
}

// precedenceLegacy is the pre-kernel Precedence: one full recursive
// evaluation per alternative of keyI.
func precedenceLegacy(t *andxor.Tree, keyI, keyJ string) float64 {
	if keyI == keyJ {
		return 0
	}
	total := 0.0
	for a, alt := range t.LeafAlternatives() {
		if alt.Key != keyI {
			continue
		}
		score := alt.Score
		f := Eval2(t, func(i int, l types.Leaf) (int, int) {
			if i == a {
				return 0, 1
			}
			if l.Key == keyJ && l.Score > score {
				return 1, 0
			}
			return 0, 0
		}, 0, 1)
		total += f.Coeff(0, 1)
	}
	return total
}

// precedenceMatrixLegacy is the pre-kernel PrecedenceMatrix: one
// precedenceLegacy call per ordered key pair.
func precedenceMatrixLegacy(t *andxor.Tree, keys []string) [][]float64 {
	m := make([][]float64, len(keys))
	for i := range keys {
		m[i] = make([]float64, len(keys))
		for j := range keys {
			if i != j {
				m[i][j] = precedenceLegacy(t, keys[i], keys[j])
			}
		}
	}
	return m
}

// worldSizeDistLegacy is the pre-kernel WorldSizeDist: one untruncated
// recursive univariate evaluation.
func worldSizeDistLegacy(t *andxor.Tree) Poly {
	return Eval1(t, func(int, types.Leaf) int { return 1 }, -1).Trim(0)
}
