package genfunc

import (
	"runtime"
	"sort"
	"sync"
	"weak"

	"consensus/internal/andxor"
	"consensus/internal/types"
)

// This file implements the compiled evaluation kernel: a Tree is flattened
// once into a postorder instruction array (Program) and every rank /
// precedence / size statistic is then computed by (re-)evaluating
// instructions over a preallocated arena instead of recursing over the
// pointer tree with per-node heap allocations.
//
// Two compilation choices make incremental evaluation cheap:
//
//   - Fan-ins are binarized: an and-node with c children becomes a balanced
//     tree of 2-ary product instructions, and an or-node a balanced tree of
//     2-ary weighted-sum instructions (the stop probability rides on the
//     final sum).  A leaf-to-root path therefore has length O(depth·log
//     fan-in), so re-evaluating the path after a single leaf change costs
//     O(depth·log(fan-in)·k²) instead of a full-tree pass.
//
//   - Every instruction's value is a pure function of its children's
//     current values: re-evaluation rewrites the node's arena slot from
//     scratch, never updating in place.  The root polynomial therefore
//     depends only on the current leaf assignment, not on the update
//     history, which keeps the incremental kernel bit-deterministic (and
//     makes the sharded parallel kernel merge bit-identical to the
//     sequential one).

// opKind discriminates the three compiled instruction types.
type opKind uint8

const (
	// opLeaf loads the monomial x^a y^b of the leaf's current assignment.
	opLeaf opKind = iota
	// opMul computes val(a) * val(b), truncated at the arena caps.
	opMul
	// opSum computes wa*val(a) + wb*val(b) + c (b may be absent).
	opSum
)

// inst is one compiled instruction.  Children always precede parents in
// the instruction array (postorder), and the root is the last instruction.
type inst struct {
	a, b   int32   // child instruction indices; b == -1 for unary opSum
	parent int32   // parent instruction index; -1 at the root
	wa, wb float64 // opSum weights (or-edge probabilities)
	c      float64 // opSum constant term (or-node stop probability)
	leaf   int32   // opLeaf: leaf index in DFS order
	op     opKind
}

// Program is a tree compiled for the incremental kernel, together with the
// leaf metadata (keys, scores, score order) the batched rank and precedence
// kernels need.  A Program's compiled state is immutable and safe for
// concurrent use; per-evaluation state lives in arenas, which the Program
// recycles through per-shape pools so warm evaluations allocate nothing.
// A Program deliberately holds no reference back to its source tree, so
// the package-level weak-keyed program cache cannot keep dead trees alive.
type Program struct {
	insts []inst

	// version is the source tree's Version at compile time, so the
	// package-level memo recompiles a tree mutated since.
	version uint64

	leaves   []types.Leaf // DFS order, parallel to Tree.Leaves
	leafNode []int32      // leaf index -> instruction index
	keys     []string     // distinct keys, sorted (as Tree.Keys)
	keyID    []int32      // leaf index -> index into keys
	keyIdx   map[string]int32

	// Weight placement of leaf-adjacent or-edges, recorded at compile time
	// for the delta path (Apply in delta.go): leafEdge[l] is the opSum
	// instruction carrying leaf l's edge probability (-1 when the leaf's
	// parent is not an or-node), leafEdgeB whether it sits in wb rather
	// than wa, and leafGroup[l] the group's final sum instruction — the one
	// whose constant term c holds the or-node's stop probability.  The
	// binarization keeps a carried odd term's weight attached until the
	// term is consumed, so each edge weight appears in exactly one
	// instruction.
	leafEdge  []int32
	leafEdgeB []bool
	leafGroup []int32

	// byScore lists leaf indices by strictly decreasing score (ties broken
	// by ascending leaf index); altsOfKey[kid] lists the leaves of one key
	// in the same order.  Both drive the moving-threshold kernels.
	byScore   []int32
	altsOfKey [][]int32

	// maxPathLen is the longest leaf-to-root instruction path (inclusive
	// of both ends): the worst-case number of re-evaluations one leaf
	// change triggers.  Cost models use it to price incremental updates.
	maxPathLen int

	// Arena and scratch recycling.  pools holds one sync.Pool of arenas
	// per (xcap, ycap) shape; scratch recycles float64 buffers (rank
	// contribution rows, world-size rows).  Both make warm evaluations —
	// repeated engine queries, RanksParallel worker shards, precedence
	// sweeps — steady-state allocation-free.  The pools live on the Program, so an engine
	// re-registering a tree name drops the whole pool family with the old
	// generation's Program (no cross-generation arena reuse is possible by
	// construction).
	poolMu  sync.Mutex
	pools   map[[2]int]*sync.Pool
	scratch sync.Pool

	// wgen counts the weight patches applied to insts (Apply), and
	// instGen[id] is the generation that last changed instruction id (nil
	// until the first patch).  Each arena records the generation its
	// values reflect, and acquireArena re-evaluates a stale one along the
	// instructions stamped after it (catchUp in delta.go).  Guarded by
	// poolMu.
	wgen    uint64
	instGen []uint64

	// valMu/valDone cache ValidateScores' verdict: score validity is a
	// property of the tree's leaves and weights alone, so repeated batched
	// evaluations (every Ranks call) check it once.  Unlike a sync.Once
	// the guard is resettable: a weight mutation (Apply) can change which
	// tied alternatives co-occur, so the delta path invalidates the
	// verdict.
	valMu   sync.Mutex
	valDone bool
	valErr  error

	// sizeOnce caches the static per-instruction polynomial extents of the
	// untruncated world-size evaluation (they depend only on the tree
	// shape, not on any assignment).
	sizeOnce sync.Once
	sizeLens []int32
	sizeOffs []int32
}

// progCache memoizes Compile per source tree, weakly keyed so the cache
// never extends a tree's lifetime: the cleanup drops the entry when the
// tree is collected (the cached Program holds no tree reference, so no
// cycle keeps either alive).  The package-level evaluators (Eval, Ranks,
// Precedence, ExpectedRank, ValidateScores, WorldSizeDist) compile each
// distinct tree version once instead of once per call; the engine
// additionally pins programs per registered generation.
var progCache sync.Map // weak.Pointer[andxor.Tree] -> *Program

// compiled returns the memoized Program of t, compiling on first use and
// recompiling when t was mutated (Tree.Apply) since the memo was filled.
func compiled(t *andxor.Tree) *Program {
	wp := weak.Make(t)
	v, ok := progCache.Load(wp)
	if ok && v.(*Program).version == t.Version() {
		return v.(*Program)
	}
	p := Compile(t)
	if ok {
		progCache.CompareAndSwap(wp, v, p)
		return p
	}
	if v, raced := progCache.LoadOrStore(wp, p); raced {
		return v.(*Program)
	}
	runtime.AddCleanup(t, func(key weak.Pointer[andxor.Tree]) {
		progCache.Delete(key)
	}, wp)
	return p
}

// acquireArena returns a pooled arena with the given caps, caught up with
// the current weights and reset to the all-zero leaf assignment,
// allocating only when the pool is empty.
func (p *Program) acquireArena(xcap, ycap int) *arena {
	key := [2]int{xcap, ycap}
	p.poolMu.Lock()
	pool := p.pools[key]
	if pool == nil {
		if p.pools == nil {
			p.pools = make(map[[2]int]*sync.Pool)
		}
		pool = &sync.Pool{}
		p.pools[key] = pool
	}
	p.poolMu.Unlock()
	if v := pool.Get(); v != nil {
		ar := v.(*arena)
		p.catchUp(ar)
		ar.reset()
		return ar
	}
	return newArena(p, xcap, ycap)
}

// releaseArena returns ar to its shape's pool for reuse by a later
// evaluation (possibly on another goroutine).
func (p *Program) releaseArena(ar *arena) {
	p.poolMu.Lock()
	pool := p.pools[[2]int{ar.xcap, ar.ycap}]
	p.poolMu.Unlock()
	if pool != nil {
		pool.Put(ar)
	}
}

// floatBuf is a pooled scratch buffer; pooling the struct pointer (not the
// raw slice) keeps Put/Get free of interface-boxing allocations.
type floatBuf struct{ s []float64 }

// acquireFloats returns a pooled scratch buffer whose slice is resized to
// length n and zeroed.
func (p *Program) acquireFloats(n int) *floatBuf {
	if v := p.scratch.Get(); v != nil {
		fb := v.(*floatBuf)
		if cap(fb.s) >= n {
			fb.s = fb.s[:n]
			clear(fb.s)
			return fb
		}
	}
	return &floatBuf{s: make([]float64, n)}
}

// releaseFloats returns a scratch buffer to the pool.
func (p *Program) releaseFloats(fb *floatBuf) {
	p.scratch.Put(fb)
}

// Compile flattens t into a Program.  Compilation is O(tree size) and is
// meant to be done once per tree (the engine caches it per registered
// tree); all per-query work then runs on arenas.
func Compile(t *andxor.Tree) *Program {
	leaves := t.LeafAlternatives()
	keys := t.Keys()
	p := &Program{
		version:  t.Version(),
		leaves:   leaves,
		leafNode: make([]int32, 0, len(leaves)),
		keys:     keys,
		keyID:    make([]int32, 0, len(leaves)),
		keyIdx:   make(map[string]int32, len(keys)),
	}
	keyIdx := p.keyIdx
	for i, k := range keys {
		keyIdx[k] = int32(i)
	}
	var compile func(n *andxor.Node) int32
	compile = func(n *andxor.Node) int32 {
		switch n.Kind() {
		case andxor.KindLeaf:
			l := n.Leaf()
			id := p.emit(inst{op: opLeaf, a: -1, b: -1, leaf: int32(len(p.leafNode))})
			p.leafNode = append(p.leafNode, id)
			p.keyID = append(p.keyID, keyIdx[l.Key])
			p.leafEdge = append(p.leafEdge, -1)
			p.leafEdgeB = append(p.leafEdgeB, false)
			p.leafGroup = append(p.leafGroup, -1)
			return id
		case andxor.KindOr:
			children := n.Children()
			probs := n.Probs()
			terms := make([]sumTerm, len(children))
			for i, c := range children {
				terms[i] = sumTerm{node: compile(c), w: probs[i], src: -1}
				if c.Kind() == andxor.KindLeaf {
					terms[i].src = int32(len(p.leafNode) - 1)
				}
			}
			srcs := make([]int32, 0, len(terms))
			for _, tm := range terms {
				if tm.src >= 0 {
					srcs = append(srcs, tm.src)
				}
			}
			root := p.reduceSum(terms, n.StopProb())
			for _, s := range srcs {
				p.leafGroup[s] = root
			}
			return root
		default: // KindAnd
			ids := make([]int32, len(n.Children()))
			for i, c := range n.Children() {
				ids[i] = compile(c)
			}
			return p.reduceMul(ids)
		}
	}
	compile(t.Root())

	// Parent links, for dirty-path propagation.
	for i := range p.insts {
		p.insts[i].parent = -1
	}
	for i, in := range p.insts {
		if in.op == opLeaf {
			continue
		}
		p.insts[in.a].parent = int32(i)
		if in.b >= 0 {
			p.insts[in.b].parent = int32(i)
		}
	}

	// Longest leaf-to-root path: instructions are postorder, so a single
	// reverse sweep propagates path lengths root-down.
	pathLen := make([]int32, len(p.insts))
	pathLen[len(p.insts)-1] = 1
	for i := len(p.insts) - 1; i >= 0; i-- {
		in := p.insts[i]
		if in.op == opLeaf {
			if int(pathLen[i]) > p.maxPathLen {
				p.maxPathLen = int(pathLen[i])
			}
			continue
		}
		pathLen[in.a] = pathLen[i] + 1
		if in.b >= 0 {
			pathLen[in.b] = pathLen[i] + 1
		}
	}

	// Score orders for the moving-threshold kernels.
	p.byScore = make([]int32, len(leaves))
	for i := range p.byScore {
		p.byScore[i] = int32(i)
	}
	sort.Slice(p.byScore, func(a, b int) bool {
		i, j := p.byScore[a], p.byScore[b]
		if leaves[i].Score != leaves[j].Score {
			return leaves[i].Score > leaves[j].Score
		}
		return i < j
	})
	p.altsOfKey = make([][]int32, len(keys))
	for _, li := range p.byScore {
		kid := p.keyID[li]
		p.altsOfKey[kid] = append(p.altsOfKey[kid], li)
	}
	return p
}

// NumLeaves returns the number of tuple alternatives in the compiled tree.
func (p *Program) NumLeaves() int { return len(p.leaves) }

// MaxPathLen returns the longest leaf-to-root instruction path — the
// worst-case number of instruction re-evaluations a single leaf change
// triggers.  Balanced trees sit near log2(NumLeaves); degenerate chains
// approach NumLeaves.  Backend choosers use it to price the incremental
// kernel honestly on deep trees.
func (p *Program) MaxPathLen() int { return p.maxPathLen }

func (p *Program) emit(in inst) int32 {
	p.insts = append(p.insts, in)
	return int32(len(p.insts) - 1)
}

// sumTerm is one weighted operand of an or-node reduction; src is the leaf
// index whose edge probability the weight is (or -1 for internal operands),
// threaded through the levels so the weight's final instruction placement
// can be recorded for the delta path.
type sumTerm struct {
	node int32
	w    float64
	src  int32
}

// recordEdge notes that leaf src's edge probability lives in instruction
// id's wa (or wb when bSide) slot.
func (p *Program) recordEdge(src, id int32, bSide bool) {
	if src >= 0 {
		p.leafEdge[src] = id
		p.leafEdgeB[src] = bSide
	}
}

// reduceSum emits a balanced binary tree of weighted sums computing
// stop + Σ w_i·val(node_i); the stop constant is folded into the final sum
// so no extra instruction is spent on it.  A carried odd term keeps its
// weight (and src) until a later level consumes it.
func (p *Program) reduceSum(terms []sumTerm, stop float64) int32 {
	if len(terms) == 1 {
		id := p.emit(inst{op: opSum, a: terms[0].node, b: -1, wa: terms[0].w, c: stop})
		p.recordEdge(terms[0].src, id, false)
		return id
	}
	for len(terms) > 2 {
		level := make([]sumTerm, 0, (len(terms)+1)/2)
		for i := 0; i+1 < len(terms); i += 2 {
			id := p.emit(inst{op: opSum, a: terms[i].node, b: terms[i+1].node, wa: terms[i].w, wb: terms[i+1].w})
			p.recordEdge(terms[i].src, id, false)
			p.recordEdge(terms[i+1].src, id, true)
			level = append(level, sumTerm{node: id, w: 1, src: -1})
		}
		if len(terms)%2 == 1 {
			level = append(level, terms[len(terms)-1])
		}
		terms = level
	}
	id := p.emit(inst{op: opSum, a: terms[0].node, b: terms[1].node, wa: terms[0].w, wb: terms[1].w, c: stop})
	p.recordEdge(terms[0].src, id, false)
	p.recordEdge(terms[1].src, id, true)
	return id
}

// reduceMul emits a balanced binary tree of products over the operands.
// A single operand needs no instruction: the and-node is its child.
func (p *Program) reduceMul(ids []int32) int32 {
	for len(ids) > 1 {
		level := make([]int32, 0, (len(ids)+1)/2)
		for i := 0; i+1 < len(ids); i += 2 {
			level = append(level, p.emit(inst{op: opMul, a: ids[i], b: ids[i+1]}))
		}
		if len(ids)%2 == 1 {
			level = append(level, ids[len(ids)-1])
		}
		ids = level
	}
	return ids[0]
}
