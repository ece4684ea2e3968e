package genfunc

import "math/bits"

// arena holds one truncated bivariate polynomial slot per instruction of a
// Program, plus the current leaf assignment and the dirty bookkeeping for
// incremental re-evaluation.  All buffers are allocated at construction;
// steady-state evaluation (setLeaf / flush / rootCoeff cycles) performs
// zero heap allocations, and arenas are recycled across evaluations (and
// across engine requests) through the Program's arena pool.
//
// Slot layout: instruction i's coefficient of x^xd y^yd lives at
// vals[i*sz + yd*w + xd] with w = xcap+1 and sz = w*(ycap+1).  Each y-row
// additionally records an effective length in lens (coefficients at or
// beyond the length are identically zero and never read), so products cost
// O(len_a·len_b) like the legacy size-matched polynomials instead of
// O(cap²); this is what keeps untruncated world-size evaluations linear in
// actual degrees.  Rows are dense within their effective length: zero
// coefficients inside a row are stored and multiplied (no per-element zero
// branch), keeping the convolution inner loops fixed-stride (conv.go).
//
// Leaf assignments are monomials x^xd y^yd, plus one non-monomial form the
// expected-rank kernel needs: xd == dualX assigns (1+x)·y^yd, whose
// truncated arithmetic at xcap 1 is exactly dual-number arithmetic (the
// x^1 coefficient of the root is then the derivative d/dx at x=1, i.e. the
// expected number of x-marked co-present leaves).
//
// Two slot shapes get specialized arithmetic:
//
//   - ycap == 1 (every rank/precedence kernel): recomputeMulY1 unrolls the
//     y-row pairing ((0,0) for row 0; (0,1)+(1,0) for row 1) with direct
//     effective-length formulas instead of the generic double loop.
//
//   - w == 1 && ycap == 1 (the precedence kernels' (0,1) caps): slots are
//     two scalars and every instruction is straight-line dual arithmetic
//     with no length bookkeeping at all (recomputeDual).
type arena struct {
	p          *Program
	insts      []inst // == p.insts, hoisted to skip the double indirection
	xcap, ycap int
	w, sz      int
	dual       bool // w == 1 && ycap == 1: scalar two-float slots

	vals []float64
	lens []int32 // instruction i, row y -> lens[i*(ycap+1)+y]

	xdeg, ydeg []int32 // current assignment per leaf
	marked     int     // leaves with a nonzero assignment

	// snapVals/snapLens snapshot the fully evaluated all-zero-assignment
	// state: resetting a heavily marked arena (the end state of a rank
	// batch) is a pair of copies instead of a near-full re-evaluation.
	snapVals []float64
	snapLens []int32

	// dirty is a bitset over instruction ids.  Instructions are postorder,
	// so scanning words low-to-high and bits low-to-high visits children
	// before parents — the flush needs no sorting at all.
	dirty    []uint64
	anyDirty bool

	// gen is the Program weight generation (see Program.wgen) that vals
	// and the snapshot reflect; acquireArena catches up a stale arena.
	gen uint64
}

// dualX as a leaf x-degree assigns the polynomial 1+x instead of a
// monomial; see the arena comment.
const dualX = -1

// newArena builds an arena for p with the given caps, fully evaluated at
// the all-zero leaf assignment (so reset is incremental from day one).
func newArena(p *Program, xcap, ycap int) *arena {
	w := xcap + 1
	sz := w * (ycap + 1)
	ar := &arena{
		p:     p,
		insts: p.insts,
		xcap:  xcap,
		ycap:  ycap,
		w:     w,
		sz:    sz,
		dual:  w == 1 && ycap == 1,
		vals:  make([]float64, len(p.insts)*sz),
		lens:  make([]int32, len(p.insts)*(ycap+1)),
		xdeg:  make([]int32, len(p.leaves)),
		ydeg:  make([]int32, len(p.leaves)),
		dirty: make([]uint64, (len(p.insts)+63)/64),
	}
	if ar.dual {
		// Dense scalar mode: every row is permanently length 1 and the
		// effective-length machinery is bypassed entirely.
		for i := range ar.lens {
			ar.lens[i] = 1
		}
	}
	p.poolMu.Lock()
	ar.gen = p.wgen
	p.poolMu.Unlock()
	ar.evalFull()
	ar.snapVals = append([]float64(nil), ar.vals...)
	ar.snapLens = append([]int32(nil), ar.lens...)
	return ar
}

// reset returns every leaf to the zero assignment.  A lightly marked
// arena (the pooled steady state of the precedence sweeps) re-evaluates
// just the marked root paths; a heavily marked one (the end state of a
// rank batch) restores the all-zero snapshot with two copies.  Both paths
// land on bit-identical state: every instruction value is a pure function
// of the assignment.
func (ar *arena) reset() {
	if ar.marked == 0 {
		ar.flush() // possible leftovers from an aborted evaluation
		return
	}
	if ar.marked*8 > len(ar.xdeg) {
		clear(ar.xdeg)
		clear(ar.ydeg)
		copy(ar.vals, ar.snapVals)
		copy(ar.lens, ar.snapLens)
		clear(ar.dirty)
		ar.anyDirty = false
		ar.marked = 0
		return
	}
	for i := range ar.xdeg {
		if ar.xdeg[i] != 0 || ar.ydeg[i] != 0 {
			ar.setLeaf(int32(i), 0, 0)
		}
	}
	ar.flush()
}

// evalFull recomputes every instruction bottom-up and clears dirty state.
func (ar *arena) evalFull() {
	for i := range ar.insts {
		ar.recompute(int32(i))
	}
	clear(ar.dirty)
	ar.anyDirty = false
}

// setLeaf updates one leaf's assignment and marks its root path dirty.
// No-op when the assignment is unchanged.
func (ar *arena) setLeaf(leaf int32, xd, yd int32) {
	if ar.xdeg[leaf] == xd && ar.ydeg[leaf] == yd {
		return
	}
	if ar.xdeg[leaf] == 0 && ar.ydeg[leaf] == 0 {
		ar.marked++
	} else if xd == 0 && yd == 0 {
		ar.marked--
	}
	ar.xdeg[leaf] = xd
	ar.ydeg[leaf] = yd
	// Mark the leaf's instruction and every ancestor.  Stop at the first
	// already-dirty node: its own marking already flagged the rest of the
	// path.
	ar.anyDirty = true
	for n := ar.p.leafNode[leaf]; n >= 0; n = ar.insts[n].parent {
		w, bit := n>>6, uint64(1)<<(n&63)
		if ar.dirty[w]&bit != 0 {
			break
		}
		ar.dirty[w] |= bit
	}
}

// setGeneric applies the standard rank-kernel mark to a leaf: x when the
// leaf outscores the current alternative and belongs to a different key,
// nothing otherwise.
func (ar *arena) setGeneric(leaf int32, score float64, kid int32) {
	if ar.p.leaves[leaf].Score > score && ar.p.keyID[leaf] != kid {
		ar.setLeaf(leaf, 1, 0)
	} else {
		ar.setLeaf(leaf, 0, 0)
	}
}

// markInst marks one instruction and its root path dirty, stopping at the
// first already-dirty ancestor (whose own marking flagged the rest).  It
// is the instruction-level analogue of setLeaf's path marking, used by the
// weight-patch path where the change originates at an internal sum
// instruction rather than a leaf assignment.
func (ar *arena) markInst(id int32) {
	ar.anyDirty = true
	for n := id; n >= 0; n = ar.insts[n].parent {
		w, bit := n>>6, uint64(1)<<(n&63)
		if ar.dirty[w]&bit != 0 {
			break
		}
		ar.dirty[w] |= bit
	}
}

// patchWeights re-evaluates the arena after instruction weights changed
// (ar.insts aliases the Program's instruction array, so the new weights
// are already visible).  The arena first returns to the all-zero
// assignment, then recomputes the changed instructions and their
// ancestors, and finally re-snapshots: the stored all-zero state must
// reflect the new weights or a later heavy reset would resurrect stale
// values.
func (ar *arena) patchWeights(changed []int32) {
	ar.reset()
	for _, id := range changed {
		ar.markInst(id)
	}
	ar.flush()
	copy(ar.snapVals, ar.vals)
	copy(ar.snapLens, ar.lens)
}

// flush re-evaluates the dirty instructions in postorder.  Ascending
// instruction id is a topological order (children always precede parents),
// so one low-to-high scan of the dirty bitset suffices — no sort.
func (ar *arena) flush() {
	if !ar.anyDirty {
		return
	}
	for w, word := range ar.dirty {
		if word == 0 {
			continue
		}
		ar.dirty[w] = 0
		base := int32(w) << 6
		for word != 0 {
			ar.recompute(base + int32(bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	ar.anyDirty = false
}

// rootCoeff returns the root polynomial's coefficient of x^i y^j.
func (ar *arena) rootCoeff(i, j int) float64 {
	root := len(ar.insts) - 1
	if i < 0 || j < 0 || j > ar.ycap || int32(i) >= ar.lens[root*(ar.ycap+1)+j] {
		return 0
	}
	return ar.vals[root*ar.sz+j*ar.w+i]
}

// recompute rewrites instruction id's slot as a pure function of its
// children's current slots (no in-place accumulation across evaluations,
// so results are independent of update history).
func (ar *arena) recompute(id int32) {
	in := &ar.insts[id]
	if ar.dual {
		ar.recomputeDual(id, in)
		return
	}
	switch in.op {
	case opLeaf:
		ar.recomputeLeaf(id, in)
	case opSum:
		ar.recomputeSum(id, in)
	default:
		if ar.ycap == 1 {
			ar.recomputeMulY1(id, in)
		} else {
			ar.recomputeMul(id, in)
		}
	}
}

// recomputeDual is the straight-line kernel for w == 1, ycap == 1 slots:
// value v0 + v1·y per instruction, no effective lengths, no loops.  This
// is the shape of every precedence evaluation (x-cap 0 truncates away the
// worlds where the competitor outranks the marked alternative).
func (ar *arena) recomputeDual(id int32, in *inst) {
	v := ar.vals
	i2 := int(id) << 1
	switch in.op {
	case opLeaf:
		var v0, v1 float64
		if xd := ar.xdeg[in.leaf]; xd <= 0 {
			// x^0 (or 1+x truncated at x-cap 0, which is the constant 1).
			switch ar.ydeg[in.leaf] {
			case 0:
				v0 = 1
			case 1:
				v1 = 1
			}
		}
		v[i2], v[i2+1] = v0, v1
	case opSum:
		// Same accumulation order as recomputeSum — a term, b term, then
		// the stop constant last — so a dual (x-cap 0) evaluation stays a
		// bit-identical prefix of any wider-cap evaluation.
		a2 := int(in.a) << 1
		v0 := in.wa * v[a2]
		v1 := in.wa * v[a2+1]
		if in.b >= 0 {
			b2 := int(in.b) << 1
			v0 += in.wb * v[b2]
			v1 += in.wb * v[b2+1]
		}
		v0 += in.c
		v[i2], v[i2+1] = v0, v1
	default: // opMul, truncated at y^1
		a2, b2 := int(in.a)<<1, int(in.b)<<1
		a0, a1 := v[a2], v[a2+1]
		b0, b1 := v[b2], v[b2+1]
		v[i2] = a0 * b0
		v[i2+1] = a0*b1 + a1*b0
	}
}

func (ar *arena) recomputeLeaf(id int32, in *inst) {
	base := int(id) * ar.sz
	lbase := int(id) * (ar.ycap + 1)
	for y := 0; y <= ar.ycap; y++ {
		ar.lens[lbase+y] = 0
	}
	xd, yd := ar.xdeg[in.leaf], ar.ydeg[in.leaf]
	if int(yd) > ar.ycap {
		return // monomial truncated away: the zero polynomial
	}
	row := ar.vals[base+int(yd)*ar.w:]
	if xd == dualX {
		// The dual assignment (1+x)·y^yd: coefficients 1, 1 (the x part
		// truncates away at x-cap 0, leaving the constant).
		row[0] = 1
		n := int32(1)
		if ar.xcap >= 1 {
			row[1] = 1
			n = 2
		}
		ar.lens[lbase+int(yd)] = n
		return
	}
	if int(xd) > ar.xcap {
		return
	}
	for i := int32(0); i < xd; i++ {
		row[i] = 0
	}
	row[xd] = 1
	ar.lens[lbase+int(yd)] = xd + 1
}

func (ar *arena) recomputeSum(id int32, in *inst) {
	base := int(id) * ar.sz
	lbase := int(id) * (ar.ycap + 1)
	abase := int(in.a) * ar.sz
	albase := int(in.a) * (ar.ycap + 1)
	bbase, blbase := 0, 0
	if in.b >= 0 {
		bbase = int(in.b) * ar.sz
		blbase = int(in.b) * (ar.ycap + 1)
	}
	for y := 0; y <= ar.ycap; y++ {
		la := int(ar.lens[albase+y])
		lb := 0
		if in.b >= 0 {
			lb = int(ar.lens[blbase+y])
		}
		ext := la
		if lb > ext {
			ext = lb
		}
		if y == 0 && in.c != 0 && ext < 1 {
			ext = 1
		}
		// Write-first: the wa*a prefix overwrites, the [la, ext) gap is
		// zero-filled, then the b term and constant accumulate — no
		// clear-then-reread pass over the row.
		dst := ar.vals[base+y*ar.w : base+y*ar.w+ext]
		a := ar.vals[abase+y*ar.w : abase+y*ar.w+la]
		for i, v := range a {
			dst[i] = in.wa * v
		}
		clear(dst[la:])
		if lb > 0 {
			b := ar.vals[bbase+y*ar.w : bbase+y*ar.w+lb]
			for i, v := range b {
				dst[i] += in.wb * v
			}
		}
		if y == 0 && ext > 0 {
			dst[0] += in.c
		}
		ar.lens[lbase+y] = int32(ext)
	}
}

// recomputeMulY1 is the product kernel for ycap == 1 slots (every rank and
// expected-rank evaluation): the generic (ya, y-ya) pairing unrolls to
// row0 = a0*b0 and row1 = a0*b1 + a1*b0, with effective lengths computed
// directly instead of by the generic scan.
func (ar *arena) recomputeMulY1(id int32, in *inst) {
	w := ar.w
	base := int(id) * ar.sz
	abase := int(in.a) * ar.sz
	bbase := int(in.b) * ar.sz
	la0 := int(ar.lens[int(in.a)<<1])
	la1 := int(ar.lens[int(in.a)<<1|1])
	lb0 := int(ar.lens[int(in.b)<<1])
	lb1 := int(ar.lens[int(in.b)<<1|1])

	ext0 := 0
	if la0 > 0 && lb0 > 0 {
		ext0 = la0 + lb0 - 1
		if ext0 > w {
			ext0 = w
		}
	}
	ext1 := 0
	if la0 > 0 && lb1 > 0 {
		if e := min(la0+lb1-1, w); e > ext1 {
			ext1 = e
		}
	}
	if la1 > 0 && lb0 > 0 {
		if e := min(la1+lb0-1, w); e > ext1 {
			ext1 = e
		}
	}
	// One fused clear for both destination rows: they are adjacent in the
	// slot (row 1 starts at base+w), so zeroing [0, ext0) and [w, w+ext1)
	// as a single span costs one memclr call; the (ext0, w) gap is beyond
	// row 0's effective length and never read.
	if ext1 > 0 {
		clear(ar.vals[base : base+w+ext1])
	} else {
		clear(ar.vals[base : base+ext0])
	}
	if ext0 > 0 {
		convInto(ar.vals[base:base+ext0], ar.vals[abase:abase+la0], ar.vals[bbase:bbase+lb0])
	}
	ar.lens[int(id)<<1] = int32(ext0)
	if ext1 > 0 {
		dst1 := ar.vals[base+w : base+w+ext1]
		if la0 > 0 && lb1 > 0 {
			convInto(dst1, ar.vals[abase:abase+la0], ar.vals[bbase+w:bbase+w+lb1])
		}
		if la1 > 0 && lb0 > 0 {
			convInto(dst1, ar.vals[abase+w:abase+w+la1], ar.vals[bbase:bbase+lb0])
		}
	}
	ar.lens[int(id)<<1|1] = int32(ext1)
}

func (ar *arena) recomputeMul(id int32, in *inst) {
	base := int(id) * ar.sz
	lbase := int(id) * (ar.ycap + 1)
	abase := int(in.a) * ar.sz
	albase := int(in.a) * (ar.ycap + 1)
	bbase := int(in.b) * ar.sz
	blbase := int(in.b) * (ar.ycap + 1)
	for y := 0; y <= ar.ycap; y++ {
		// Effective extent of the output row: the largest product extent
		// over the contributing (ya, yb) row pairs, clamped to the cap.
		ext := 0
		for ya := 0; ya <= y; ya++ {
			la := int(ar.lens[albase+ya])
			lb := int(ar.lens[blbase+y-ya])
			if la == 0 || lb == 0 {
				continue
			}
			e := la + lb - 1
			if e > ar.w {
				e = ar.w
			}
			if e > ext {
				ext = e
			}
		}
		dst := ar.vals[base+y*ar.w : base+y*ar.w+ext]
		clear(dst)
		for ya := 0; ya <= y; ya++ {
			la := int(ar.lens[albase+ya])
			lb := int(ar.lens[blbase+y-ya])
			if la == 0 || lb == 0 {
				continue
			}
			a := ar.vals[abase+ya*ar.w : abase+ya*ar.w+la]
			b := ar.vals[bbase+(y-ya)*ar.w : bbase+(y-ya)*ar.w+lb]
			convInto(dst, a, b)
		}
		ar.lens[lbase+y] = int32(ext)
	}
}
