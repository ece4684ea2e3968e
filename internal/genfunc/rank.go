package genfunc

import (
	"fmt"

	"consensus/internal/andxor"
)

// RankDist holds, for every tuple key of a tree, the distribution of the
// tuple's rank r(t) restricted to ranks 1..K, where r(t) is the position of
// t's present alternative when the world is sorted by decreasing score and
// r(t) = infinity when t is absent (Section 5 conventions).
//
// Storage is flat and row-major — key row r spans eq[r*(K+1) .. r*(K+1)+K]
// — with the key-to-row index shared with the compiled Program, so
// assembling a distribution allocates O(1) objects instead of one map
// entry and one slice per key.
type RankDist struct {
	K    int
	keys []string
	idx  map[string]int32 // key -> row; shared, never mutated
	eq   []float64        // eq[r*(K+1)+i] = Pr(r(t) = i), 1 <= i <= K
	le   []float64        // le[r*(K+1)+i] = Pr(r(t) <= i)
}

// newRankDist returns a zeroed distribution over the given keys, whose row
// index is idx (shared with the caller, which must never mutate it).
func newRankDist(keys []string, idx map[string]int32, k int) *RankDist {
	return &RankDist{
		K:    k,
		keys: keys,
		idx:  idx,
		eq:   make([]float64, len(keys)*(k+1)),
		le:   make([]float64, len(keys)*(k+1)),
	}
}

// fillCumulative recomputes the le rows from the eq rows.
func (rd *RankDist) fillCumulative() {
	w := rd.K + 1
	for r := 0; r < len(rd.keys); r++ {
		eq := rd.eq[r*w : r*w+w]
		le := rd.le[r*w : r*w+w]
		acc := 0.0
		for i := 1; i <= rd.K; i++ {
			acc += eq[i]
			le[i] = acc
		}
	}
}

// Ranks computes the rank distribution up to rank k for every key, based
// on one truncated bivariate generating function per leaf (the
// generalization of Example 3 in the paper): for an alternative (t, s),
// mark every leaf of a different key with larger score with x and the
// alternative itself with y; the coefficient of x^(j-1) y is Pr(the
// alternative is present and ranked j-th).  The n per-alternative
// functions are evaluated by the compiled incremental kernel (one shared
// tree pass in descending-score order, see compile.go), not by n
// independent recursive traversals.
//
// It returns an error if two alternatives of different keys share a score
// and can co-occur in a world, because ranks would be ill-defined (the
// paper assumes distinct scores).  Ties between mutually exclusive
// alternatives — common when a correlated tree encodes alternative whole
// worlds, as in Figure 1(iii) — are harmless and accepted.
func Ranks(t *andxor.Tree, k int) (*RankDist, error) {
	return compiled(t).Ranks(k)
}

// Keys returns the tuple keys covered, sorted.
func (rd *RankDist) Keys() []string { return rd.keys }

// Row returns the position of key in Keys(), the row index EqRow and LERow
// take; ok is false for a key the distribution does not cover.
func (rd *RankDist) Row(key string) (r int, ok bool) {
	i, ok := rd.idx[key]
	return int(i), ok
}

// EqRow returns the rank distribution of the key at position r of Keys():
// element i holds Pr(r(t) = i) for 1 <= i <= K, element 0 is zero.  The
// slice aliases the shared, possibly cached, distribution, so callers must
// only read it; Section 5 consumers use it to scan a key's probabilities
// without a per-cell key lookup.
func (rd *RankDist) EqRow(r int) []float64 {
	w := rd.K + 1
	return rd.eq[r*w : r*w+w : r*w+w]
}

// LERow is EqRow for the cumulative probabilities: element i holds
// Pr(r(t) <= i) for 1 <= i <= K, element 0 is zero.
func (rd *RankDist) LERow(r int) []float64 {
	w := rd.K + 1
	return rd.le[r*w : r*w+w : r*w+w]
}

// PrEq returns Pr(r(t) = i) for 1 <= i <= K (0 outside that range or for
// unknown keys).
func (rd *RankDist) PrEq(key string, i int) float64 {
	r, ok := rd.idx[key]
	if !ok || i < 1 || i > rd.K {
		return 0
	}
	return rd.eq[int(r)*(rd.K+1)+i]
}

// PrLE returns Pr(r(t) <= i) for 1 <= i <= K.
func (rd *RankDist) PrLE(key string, i int) float64 {
	r, ok := rd.idx[key]
	if !ok || i < 1 {
		return 0
	}
	if i > rd.K {
		i = rd.K
	}
	return rd.le[int(r)*(rd.K+1)+i]
}

// PrTopK returns Pr(r(t) <= K), the top-k membership probability used by
// Theorem 3 and the PT-k ranking function.
func (rd *RankDist) PrTopK(key string) float64 { return rd.PrLE(key, rd.K) }

// Dist returns a copy of the rank distribution of key: element i-1 holds
// Pr(r(t) = i) for 1 <= i <= K.  Unknown keys yield nil.  The copy lets
// callers (e.g. serving layers marshalling responses) hand the slice out
// without aliasing the shared, possibly cached, distribution.
func (rd *RankDist) Dist(key string) []float64 {
	r, ok := rd.idx[key]
	if !ok {
		return nil
	}
	row := rd.eq[int(r)*(rd.K+1):]
	return append([]float64(nil), row[1:rd.K+1]...)
}

func errRankCutoff(k int) error {
	return fmt.Errorf("genfunc: rank cutoff k = %d must be positive", k)
}

// ValidateScores reports an error when two alternatives of different keys
// share a score AND can co-occur in a possible world (their co-occurrence
// probability is positive), which would make ranks ill-defined.  Ties
// between mutually exclusive leaves are fine: they never meet in a world.
func ValidateScores(t *andxor.Tree) error {
	return compiled(t).ValidateScores()
}

// ValidateScores is the compiled-kernel form of the package-level
// ValidateScores.  The verdict is a property of the tree alone, so it is
// computed once per Program and cached; every batched kernel (Ranks,
// ExpectedRank) consults it for free after the first call.  The cache is
// invalidated by weight mutations (Apply): a tied pair's co-occurrence
// probability depends on the edge weights, so the verdict can flip.
func (p *Program) ValidateScores() error {
	p.valMu.Lock()
	defer p.valMu.Unlock()
	if !p.valDone {
		p.valErr = p.validateScores()
		p.valDone = true
	}
	return p.valErr
}

// validateScores checks all tied cross-key pairs.  Tie groups are the
// contiguous equal-score runs of byScore (descending score, ties by
// ascending leaf index), so iteration order — and therefore the reported
// offending pair — is deterministic, unlike the float64-keyed map the
// legacy implementation ranged over.  All pairs of a group share one
// pooled arena with caps (2, 0): each co-occurrence check is two leaf
// path updates and a read of the x² root coefficient, instead of the full
// recursive Eval1 pass per pair the legacy path performed.
func (p *Program) validateScores() error {
	n := len(p.byScore)
	var ar *arena // lazily acquired: tie-free trees never touch an arena
	defer func() {
		if ar != nil {
			p.releaseArena(ar)
		}
	}()
	for lo := 0; lo < n; {
		s := p.leaves[p.byScore[lo]].Score
		hi := lo + 1
		for hi < n && p.leaves[p.byScore[hi]].Score == s {
			hi++
		}
		group := p.byScore[lo:hi]
		lo = hi
		if len(group) < 2 {
			continue
		}
		if ar == nil {
			ar = p.acquireArena(2, 0)
		}
		for ai := 0; ai < len(group); ai++ {
			i := group[ai]
			ar.setLeaf(i, 1, 0)
			for bi := ai + 1; bi < len(group); bi++ {
				j := group[bi]
				if p.keyID[i] == p.keyID[j] {
					continue // same tuple: mutually exclusive by the key constraint
				}
				ar.setLeaf(j, 1, 0)
				ar.flush()
				co := ar.rootCoeff(2, 0)
				ar.setLeaf(j, 0, 0)
				if co > 0 {
					return fmt.Errorf("genfunc: alternatives %v and %v share score %v and can co-occur; ranking is ill-defined",
						p.leaves[i], p.leaves[j], s)
				}
			}
			ar.setLeaf(i, 0, 0)
		}
	}
	return nil
}

// Precedence returns Pr(r(ti) < r(tj)): the probability that tuple keyI
// ranks strictly higher than tuple keyJ.  By the infinite-rank convention
// this includes worlds where keyI is present and keyJ absent.  Section 5.5
// notes this is the only statistic the pivot-style Kendall approximation
// needs, and that it is computable with the generating-function method: for
// each alternative a of keyI, mark a with y and every alternative of keyJ
// with a larger score with x; the coefficient of x^0 y^1 is the probability
// that a is present while keyJ is either absent or ranked below it.  The
// evaluation runs on the compiled incremental kernel.
func Precedence(t *andxor.Tree, keyI, keyJ string) float64 {
	return compiled(t).Precedence(keyI, keyJ)
}

// PrecedenceMatrix returns the matrix M[i][j] = Pr(r(keys[i]) < r(keys[j]))
// for the given keys.  The compiled kernel fills one matrix column per
// incremental descending-score sweep, so the whole matrix costs
// O(|keys| · n) path updates instead of O(|keys|² · n) full-tree passes.
func PrecedenceMatrix(t *andxor.Tree, keys []string) [][]float64 {
	return compiled(t).PrecedenceMatrix(keys)
}

// ExpectedRank returns, for every key, the expected-rank statistic of
// Cormode, Li and Yi (referenced in Sections 1-2 as one of the prior
// ranking semantics): E[rank_pw(t)] where rank_pw(t) is t's 1-based rank in
// pw when present and |pw| when absent.  Used as a baseline ranking
// function in the experiments.
//
// Both terms run on the compiled incremental kernel with dual-number
// x-rows (caps (1, 1), leaves assigned 1+x so the root's x¹ coefficient is
// the derivative at x=1, i.e. an expected count): the present part
// E[r(t); t present] = Σ_a Pr(a) + E[#higher-ranked co-present; a] is one
// descending-score sweep identical in structure to the rank kernel, and
// the absent part E[|pw|; t absent] is one more sweep that flips each
// key's alternatives to the y-mark in turn.  This replaces the legacy
// path's full rank distribution at cutoff n plus one untruncated recursive
// Eval2 per key.
func ExpectedRank(t *andxor.Tree) (map[string]float64, error) {
	if len(t.Keys()) == 0 {
		return nil, fmt.Errorf("genfunc: empty tree")
	}
	return compiled(t).ExpectedRank()
}

// ExpectedRank is the compiled form of the package-level ExpectedRank; see
// there for the statistic and the kernel structure.
func (p *Program) ExpectedRank() (map[string]float64, error) {
	if len(p.keys) == 0 {
		return nil, fmt.Errorf("genfunc: empty tree")
	}
	if err := p.ValidateScores(); err != nil {
		return nil, err
	}
	fb := p.acquireFloats(len(p.keys))
	ar := p.acquireArena(1, 1)
	p.expectedRankPresent(ar, fb.s)
	p.expectedRankAbsent(ar, fb.s)
	p.releaseArena(ar)
	out := make(map[string]float64, len(p.keys))
	for i, key := range p.keys {
		out[key] = fb.s[i]
	}
	p.releaseFloats(fb)
	return out, nil
}

// setDual applies the expected-rank mark to a leaf: the dual assignment
// 1+x when the leaf outscores the current alternative and belongs to a
// different key (so the x¹ coefficient counts it in expectation), nothing
// otherwise.
func (ar *arena) setDual(leaf int32, score float64, kid int32) {
	if ar.p.leaves[leaf].Score > score && ar.p.keyID[leaf] != kid {
		ar.setLeaf(leaf, dualX, 0)
	} else {
		ar.setLeaf(leaf, 0, 0)
	}
}

// expectedRankPresent accumulates E[r(t); t present] into acc per key id:
// one incremental descending-score sweep (the exact structure of
// ranksRange, with the x-monomial marks replaced by dual 1+x marks).  For
// the y-marked alternative a, the root's x⁰y¹ coefficient is Pr(a
// present) and its x¹y¹ coefficient is E[#higher-scored co-present
// other-key leaves; a present]; their sum over a's alternatives is the
// key's present-part expected rank.
func (p *Program) expectedRankPresent(ar *arena, acc []float64) {
	cross := 0
	var prev int32 = -1
	var prevScore float64
	for t := 0; t < len(p.byScore); t++ {
		a := p.byScore[t]
		s := p.leaves[a].Score
		kid := p.keyID[a]
		if prev >= 0 {
			ar.setDual(prev, s, kid)
		}
		for cross < len(p.byScore) {
			b := p.byScore[cross]
			if p.leaves[b].Score <= s {
				break
			}
			ar.setDual(b, s, kid)
			cross++
		}
		if prev >= 0 && p.keyID[prev] != kid {
			for _, b := range p.altsOfKey[p.keyID[prev]] {
				if p.leaves[b].Score <= prevScore {
					break
				}
				ar.setDual(b, s, kid)
			}
		}
		for _, b := range p.altsOfKey[kid] {
			if p.leaves[b].Score <= s {
				break
			}
			ar.setLeaf(b, 0, 0)
		}
		ar.setLeaf(a, 0, 1)
		ar.flush()
		acc[kid] += ar.rootCoeff(0, 1) + ar.rootCoeff(1, 1)
		prev, prevScore = a, s
	}
}

// expectedRankAbsent accumulates E[|pw|; t absent] into acc per key id.
// Every leaf carries the dual mark 1+x (so the x¹ coefficient of any
// y-row is the expected number of present leaves over those worlds); each
// key's alternatives flip to the pure y-mark in turn, restricting the
// y⁰ rows to the worlds where the key is absent.  One incremental sweep:
// each flip re-evaluates only the key's leaf paths.
func (p *Program) expectedRankAbsent(ar *arena, acc []float64) {
	for i := range p.leaves {
		ar.setLeaf(int32(i), dualX, 0)
	}
	ar.flush()
	for kid := range p.keys {
		for _, b := range p.altsOfKey[kid] {
			ar.setLeaf(b, 0, 1)
		}
		ar.flush()
		acc[kid] += ar.rootCoeff(1, 0)
		for _, b := range p.altsOfKey[kid] {
			ar.setLeaf(b, dualX, 0)
		}
	}
}
