// Package genfunc implements the generating-function framework of
// Section 3.3 of the paper.
//
// Every probability the consensus algorithms need — world-size
// distributions, rank distributions Pr(r(t)=i), pairwise precedence
// probabilities Pr(r(ti)<r(tj)), co-occurrence and co-label probabilities —
// is the coefficient of some monomial in a polynomial computed bottom-up
// over the and/xor tree (Theorem 1): leaves contribute their assigned
// variable, or-nodes take probability-weighted sums plus the stop
// probability, and and-nodes take products.
//
// What makes the Section 5 algorithms polynomial is truncation: rank
// computations only ever need x-degrees up to k, so products are truncated
// at a degree cap and each node costs O(cap) per coefficient instead of
// materializing degrees up to n.
//
// # Compiled incremental kernel
//
// One evaluator implements Theorem 1: the compiled kernel.  Every
// statistic — Eval (any bivariate assignment), AllAbsent, Ranks,
// Precedence, PrecedenceMatrix, ExpectedRank, WorldSizeDist — runs on it.  The
// recursive reference evaluators it replaced (one closure-driven tree
// walk per generating function, allocating a fresh polynomial at every
// node) live on only in legacy_test.go, as the oracles of the
// differential tests.
//
//   - Compile flattens the tree into a postorder instruction array with
//     binarized fan-ins (compile.go), so a leaf-to-root path has length
//     O(depth·log fan-in) and evaluation is an index-addressed loop
//     instead of pointer-chasing recursion.  Compilation itself is
//     memoized per tree in a weak-keyed cache, so the package-level
//     evaluators compile a live tree once per mutation version
//     (andxor.Tree.Version).
//
//   - An evaluation arena (arena.go) preallocates one truncated-polynomial
//     slot per instruction and rewrites slots in place; steady-state
//     evaluation allocates nothing.  Rows are dense within per-row
//     effective lengths: products cost O(len_a·len_b) like the legacy
//     size-matched polynomials, while the stored coefficients inside a
//     row are multiplied unconditionally — no per-element zero branch —
//     so the truncated convolution (conv.go) runs as fixed-stride 4-wide
//     accumulator blocks with the operand window held in registers, plus
//     straight-line kernels for one/two/three-coefficient operands.
//     Every kernel accumulates each output in ascending operand order,
//     which makes a truncated evaluation bit-identical to the prefix of a
//     wider one (the property the engine's cutoff-reuse depends on).
//     Arenas with x-cap 0 and y-cap 1 — every precedence sweep — store
//     two scalars per instruction and evaluate with straight-line
//     dual-number arithmetic, no length bookkeeping at all.
//
//   - Arenas and scratch rows are pooled per Program (one sync.Pool per
//     (xcap, ycap) shape): warm evaluations — repeated engine queries,
//     RanksParallel worker shards, consecutive precedence sweeps — reuse
//     them with zero heap allocations; a rank batch allocates only its
//     returned RankDist (one struct plus two flat rows).  Resetting a
//     recycled arena is incremental for lightly marked ones and a
//     snapshot copy for heavily marked ones, landing on bit-identical
//     state either way.
//
//   - The batched kernels (kernel.go) walk alternatives in descending
//     score order: consecutive assignments differ only in the moving
//     y-mark, the few leaves crossing the score threshold, and the two
//     same-key exclusion sets, so each step re-evaluates only the dirty
//     root paths.  Rank distributions drop from O(n·|tree|·k) per batch to
//     O(n·depth·log(fan-in)·k²) coefficient work, and a full precedence
//     matrix costs one sweep per column instead of one tree pass per cell.
//
//   - ExpectedRank (rank.go) runs on dual-number x-rows (leaves assigned
//     1+x at x-cap 1, so the root's x¹ coefficient is an expected count):
//     one descending-score sweep accumulates the present-part term and
//     one more incremental sweep — flipping each key's alternatives to
//     the y-mark in turn — the absent-size term, for O(n·depth·log
//     fan-in) total, independent of any rank cutoff.  ValidateScores
//     batches all tied-pair co-occurrence checks onto a single arena at
//     caps (2, 0) — two leaf-path updates per pair instead of a full
//     recursive pass — iterating tie groups in descending-score order so
//     the reported offending pair is deterministic; the verdict is cached
//     on the Program.
package genfunc

// Poly is a dense univariate polynomial; Poly[i] is the coefficient of x^i.
type Poly []float64

// NewPoly returns the zero polynomial with capacity for degrees 0..deg.
func NewPoly(deg int) Poly { return make(Poly, deg+1) }

// One returns the constant polynomial 1.
func One() Poly {
	return Poly{1}
}

// Coeff returns the coefficient of x^i (0 beyond the stored degree).
func (p Poly) Coeff(i int) float64 {
	if i < 0 || i >= len(p) {
		return 0
	}
	return p[i]
}

// MulTrunc returns p*q with all terms of degree greater than cap dropped.
// cap < 0 means no truncation.
func (p Poly) MulTrunc(q Poly, cap int) Poly {
	if len(p) == 0 || len(q) == 0 {
		return Poly{}
	}
	deg := len(p) + len(q) - 2
	if cap >= 0 && deg > cap {
		deg = cap
	}
	out := NewPoly(deg)
	for i, a := range p {
		if a == 0 || i > deg {
			continue
		}
		hi := deg - i
		for j, b := range q {
			if j > hi {
				break
			}
			out[i+j] += a * b
		}
	}
	return out
}

// Trim drops trailing zero coefficients (within eps) and returns the result.
func (p Poly) Trim(eps float64) Poly {
	n := len(p)
	for n > 1 && p[n-1] >= -eps && p[n-1] <= eps {
		n--
	}
	return p[:n]
}

// Poly2 is a dense bivariate polynomial truncated at x-degree xcap and
// y-degree ycap.  Coefficients are stored row-major: c[i*(ycap+1)+j] is the
// coefficient of x^i y^j.
type Poly2 struct {
	xcap, ycap int
	c          []float64
}

// NewPoly2 returns the zero polynomial with the given truncation caps.
func NewPoly2(xcap, ycap int) *Poly2 {
	return &Poly2{xcap: xcap, ycap: ycap, c: make([]float64, (xcap+1)*(ycap+1))}
}

// Coeff returns the coefficient of x^i y^j.
func (p *Poly2) Coeff(i, j int) float64 {
	if i < 0 || j < 0 || i > p.xcap || j > p.ycap {
		return 0
	}
	return p.c[i*(p.ycap+1)+j]
}
