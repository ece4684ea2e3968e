package genfunc

import (
	"runtime"
	"sync"
)

// This file holds the batched statistic kernels that run on compiled
// programs (see compile.go for the instruction model and arena.go for the
// evaluation arena).
//
// The batched rank kernel exploits that consecutive alternatives in
// descending-score order induce nearly identical leaf assignments: the
// y-mark moves, the handful of leaves whose score lies between the two
// thresholds cross into the x-marked region (each leaf crosses exactly
// once over the whole batch), and the same-key exclusions of the old and
// new alternative swap.  Every step therefore re-evaluates only a few
// root paths instead of the whole tree, turning n full-tree passes into
// O(n·depth·log(fan-in)) incremental path updates.
//
// All kernels draw their arenas and scratch rows from the Program's
// pools, so a warm Program (repeated engine queries, parallel shards)
// evaluates without heap allocations beyond the returned result.

// Ranks computes the same rank distribution as the package-level Ranks on
// the compiled program.  See Ranks for the statistic's definition and the
// validation contract.
func (p *Program) Ranks(k int) (*RankDist, error) { return p.RanksParallel(k, 1) }

// RanksParallel computes Ranks with the score-ordered alternative batch
// split into contiguous shards, one worker and one pooled arena per
// shard; workers <= 0 selects GOMAXPROCS.  Because every instruction's
// value is a pure function of the current assignment, each shard
// reproduces exactly the coefficients the sequential kernel would, and the
// leaf-order merge makes the result bit-identical to Ranks regardless of
// worker count.
func (p *Program) RanksParallel(k, workers int) (*RankDist, error) {
	if k < 1 {
		return nil, errRankCutoff(k)
	}
	if err := p.ValidateScores(); err != nil {
		return nil, err
	}
	fb := p.acquireFloats(len(p.leaves) * k)
	p.rankSweep(k, workers, fb.s)
	rd := p.assembleRankDist(k, fb.s)
	p.releaseFloats(fb)
	return rd, nil
}

// rankSweep fills contrib with every alternative's cutoff-k contribution
// row (row stride k; see ranksRange), split into at most workers
// contiguous score-order shards run concurrently, each on its own pooled
// arena (workers <= 0 selects GOMAXPROCS; one shard runs on the calling
// goroutine).  The split depends only on the leaf count and workers, and
// every row is a pure function of its alternative, so the rows do not
// depend on the split at all.
func (p *Program) rankSweep(k, workers int, contrib []float64) {
	n := len(p.leaves)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		ar := p.acquireArena(k-1, 1)
		p.ranksRange(ar, k, 0, n, contrib)
		p.releaseArena(ar)
		return
	}
	var wg sync.WaitGroup
	base, rem := n/workers, n%workers
	lo := 0
	for w := 0; w < workers; w++ {
		hi := lo + base
		if w < rem {
			hi++
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			ar := p.acquireArena(k-1, 1)
			p.ranksRange(ar, k, lo, hi, contrib)
			p.releaseArena(ar)
		}(lo, hi)
		lo = hi
	}
	wg.Wait()
}

// ranksRange computes the per-alternative rank contributions for the
// score-order positions [lo, hi): contrib[a*k+j] = Pr(alternative a is
// present and ranked j+1), writing only rows owned by this range (shards
// write disjoint rows, so the slice may be shared without locking).  The
// arena must have caps (k-1, 1); beyond the arena and the output rows, a
// run allocates nothing, so reusing both across calls gives zero
// steady-state allocations.
func (p *Program) ranksRange(ar *arena, k, lo, hi int, contrib []float64) {
	ar.reset()
	cross := 0 // byScore positions < cross carry marks for the current threshold
	var prev int32 = -1
	var prevScore float64
	for t := lo; t < hi; t++ {
		a := p.byScore[t]
		s := p.leaves[a].Score
		kid := p.keyID[a]
		// The previous y-marked alternative falls back to its generic mark
		// (the crossing sweep below also covers it except on score ties).
		if prev >= 0 {
			ar.setGeneric(prev, s, kid)
		}
		// Leaves crossing the score threshold become x-marked unless they
		// share the current alternative's key.
		for cross < len(p.byScore) {
			b := p.byScore[cross]
			if p.leaves[b].Score <= s {
				break
			}
			ar.setGeneric(b, s, kid)
			cross++
		}
		// The previous alternative's same-key exclusions return to their
		// generic marks; the current key's higher-scored alternatives are
		// excluded from the x-marking (same-tuple alternatives are mutually
		// exclusive and never outrank each other).
		if prev >= 0 && p.keyID[prev] != kid {
			for _, b := range p.altsOfKey[p.keyID[prev]] {
				if p.leaves[b].Score <= prevScore {
					break
				}
				ar.setGeneric(b, s, kid)
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
		// Copy the root's y¹ row directly: coefficients beyond its
		// effective length are zero.
		row := contrib[int(a)*k : int(a)*k+k]
		root := len(p.insts) - 1
		n := int(ar.lens[root*2+1])
		rootRow := ar.vals[root*ar.sz+ar.w : root*ar.sz+ar.w+n]
		copy(row, rootRow)
		clear(row[len(rootRow):])
		prev, prevScore = a, s
	}
}

// assembleRankDist folds the cutoff-k contribution rows (row stride k)
// into a RankDist, accumulating per key in DFS leaf order — the same
// accumulation order as the legacy evaluator, which keeps sequential and
// parallel results bit-identical.
func (p *Program) assembleRankDist(k int, contrib []float64) *RankDist {
	rd := newRankDist(p.keys, p.keyIdx, k)
	for a := 0; a < len(p.leaves); a++ {
		dist := rd.eq[int(p.keyID[a])*(k+1):]
		row := contrib[a*k : a*k+k]
		for j := 1; j <= k; j++ {
			dist[j] += row[j-1]
		}
	}
	rd.fillCumulative()
	return rd
}

// Precedence returns Pr(r(keyI) < r(keyJ)) on the compiled program; see
// the package-level Precedence for the statistic's definition.
func (p *Program) Precedence(keyI, keyJ string) float64 {
	if keyI == keyJ {
		return 0
	}
	i, okI := p.findKey(keyI)
	if !okI {
		return 0 // no alternatives: keyI is never present
	}
	j := int32(-1) // unknown keyJ x-marks nothing, like the legacy evaluator
	if jj, ok := p.findKey(keyJ); ok {
		j = jj
	}
	ar := p.acquireArena(0, 1)
	total := 0.0
	p.precedenceSweep(ar, j, func(kid int32, coeff float64) {
		if kid == i {
			total += coeff
		}
	}, func(kid int32) bool { return kid == i })
	p.releaseArena(ar)
	return total
}

// PrecedenceMatrix returns M[i][j] = Pr(r(keys[i]) < r(keys[j])) on the
// compiled program.  One descending-score sweep per target key J fills an
// entire matrix column: within a sweep only the y-mark moves and J's
// alternatives cross the threshold once each, so the whole matrix costs
// O(|keys|·n) incremental path updates instead of O(|keys|²·n) full-tree
// evaluations.
func (p *Program) PrecedenceMatrix(keys []string) [][]float64 {
	m := make([][]float64, len(keys))
	for i := range keys {
		m[i] = make([]float64, len(keys))
	}
	// Rows of each program key id among the requested keys (a duplicated
	// key owns several rows and must fill all of them, like the legacy
	// per-cell loop did; unknown keys simply never match).
	rowsOf := make(map[int32][]int, len(keys))
	for row, key := range keys {
		if kid, ok := p.findKey(key); ok {
			rowsOf[kid] = append(rowsOf[kid], row)
		}
	}
	ar := p.acquireArena(0, 1)
	for col, key := range keys {
		j, ok := p.findKey(key)
		if !ok {
			// No alternatives of keyJ exist, so no x-marks: the sweep
			// degenerates to per-key presence probabilities, matching the
			// legacy evaluator's behavior for unknown keys.
			j = -1
		}
		p.precedenceSweep(ar, j, func(kid int32, coeff float64) {
			for _, row := range rowsOf[kid] {
				if row != col {
					m[row][col] += coeff
				}
			}
		}, func(kid int32) bool {
			_, ok := rowsOf[kid]
			return ok
		})
	}
	p.releaseArena(ar)
	return m
}

// precedenceSweep walks every alternative a (of any key except keyJ, whose
// program key id is j) in descending-score order with the arena capped at
// (0, 1): a carries the y-mark and every alternative of keyJ with a larger
// score carries an x-mark (which, at x-cap 0, truncates away exactly the
// worlds where keyJ outranks a).  The root's x^0 y^1 coefficient is then
// Pr(a present ∧ keyJ not ranked above a); emit receives it per
// alternative.  want filters the keys worth evaluating.  The arena is
// returned to its all-clear state so sweeps can share it.
func (p *Program) precedenceSweep(ar *arena, j int32, emit func(kid int32, coeff float64), want func(kid int32) bool) {
	var alts []int32
	if j >= 0 {
		alts = p.altsOfKey[j]
	}
	cross := 0
	var prev int32 = -1
	for _, a := range p.byScore {
		kid := p.keyID[a]
		if kid == j || !want(kid) {
			continue
		}
		s := p.leaves[a].Score
		if prev >= 0 {
			ar.setLeaf(prev, 0, 0)
		}
		for cross < len(alts) {
			b := alts[cross]
			if p.leaves[b].Score <= s {
				break
			}
			ar.setLeaf(b, 1, 0)
			cross++
		}
		ar.setLeaf(a, 0, 1)
		ar.flush()
		emit(kid, ar.rootCoeff(0, 1))
		prev = a
	}
	// Clear the marks so the next sweep starts from the all-zero state.
	if prev >= 0 {
		ar.setLeaf(prev, 0, 0)
	}
	for _, b := range alts[:cross] {
		ar.setLeaf(b, 0, 0)
	}
	ar.flush()
}

// findKey returns the program key id of key.
func (p *Program) findKey(key string) (int32, bool) {
	kid, ok := p.keyIdx[key]
	return kid, ok
}

// sizeExtents returns the per-instruction polynomial lengths and offsets
// of the untruncated world-size evaluation.  They depend only on the tree
// shape (every leaf contributes exactly the monomial x), so they are
// computed once per Program and shared by all evaluations.
func (p *Program) sizeExtents() (lens, offs []int32) {
	p.sizeOnce.Do(func() {
		n := len(p.insts)
		lens := make([]int32, n)
		offs := make([]int32, n+1)
		for i, in := range p.insts {
			var l int32
			switch in.op {
			case opLeaf:
				l = 2 // the monomial x
			case opSum:
				l = lens[in.a]
				if in.b >= 0 && lens[in.b] > l {
					l = lens[in.b]
				}
				if l < 1 {
					l = 1
				}
			default: // opMul
				l = lens[in.a] + lens[in.b] - 1
			}
			lens[i] = l
			offs[i+1] = offs[i] + l
		}
		p.sizeLens, p.sizeOffs = lens, offs
	})
	return p.sizeLens, p.sizeOffs
}

// WorldSizeDist computes the possible-world size distribution on the
// compiled program: every leaf is assigned x and the untruncated root
// polynomial is evaluated in one bottom-up pass over a pooled buffer.
// Unlike the arena kernels this uses exact per-instruction polynomial
// sizes (degree bounds are known statically once every leaf is x), so
// large trees cost the same O(Σ product sizes) as the legacy evaluator —
// minus its per-node allocations and recursion.
func (p *Program) WorldSizeDist() Poly {
	lens, offs := p.sizeExtents()
	n := len(p.insts)
	fb := p.acquireFloats(int(offs[n]))
	for i := range p.insts {
		p.sizeRecompute(fb.s, lens, offs, int32(i))
	}
	root := fb.s[offs[n-1]:offs[n]]
	out := Poly(append([]float64(nil), root...)).Trim(0)
	p.releaseFloats(fb)
	return out
}

// sizeRecompute writes instruction id's world-size row into buf (laid out
// by sizeExtents) from its children's rows, which ascending instruction
// order has already written.  buf starts zeroed, so only the nonzero
// cells are written.
func (p *Program) sizeRecompute(buf []float64, lens, offs []int32, id int32) {
	in := &p.insts[id]
	dst := buf[offs[id] : offs[id]+lens[id]]
	switch in.op {
	case opLeaf:
		dst[1] = 1
	case opSum:
		a := buf[offs[in.a] : offs[in.a]+lens[in.a]]
		for k, v := range a {
			dst[k] = in.wa * v
		}
		if in.b >= 0 {
			b := buf[offs[in.b] : offs[in.b]+lens[in.b]]
			for k, v := range b {
				dst[k] += in.wb * v
			}
		}
		dst[0] += in.c
	default:
		// World-size rows are exact-width (dst is precisely
		// len(a)+len(b)-1), so the untruncated kernel applies.
		a := buf[offs[in.a] : offs[in.a]+lens[in.a]]
		b := buf[offs[in.b] : offs[in.b]+lens[in.b]]
		convFull(dst, a, b)
	}
}
