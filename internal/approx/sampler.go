package approx

import (
	"context"
	"math/rand"
	"sort"

	"consensus/internal/andxor"
)

// sampler is a tree compiled for high-throughput world sampling: the node
// structure is flattened into index-addressed records and present leaves
// are reported as indices into a reusable buffer, so drawing a world costs
// no allocation (unlike Tree.Sample, which builds a map-backed World).
type sampler struct {
	keys    []string       // distinct tuple keys, sorted (as in Tree.Keys)
	keyIdx  map[string]int // key -> index into keys
	leafKey []int32        // leaf index -> key index
	scores  []float64      // leaf index -> score
	byScore []int32        // leaf indices by decreasing score (ties: key asc)
	nodes   []cnode
	root    int32
}

// cnode is one flattened tree node.
type cnode struct {
	kind  andxor.Kind
	leaf  int32     // leaf index, KindLeaf only
	kids  []int32   // indices into sampler.nodes
	probs []float64 // or-edge probabilities, parallel to kids, KindOr only
}

// newSampler compiles the tree.  Leaf indices follow depth-first order,
// matching Tree.Leaves, and the or-node selection procedure consumes one
// uniform variate per visited or-node exactly like Tree.Sample, so the
// sampled distribution is identical.
func newSampler(t *andxor.Tree) *sampler {
	keys := t.Keys()
	s := &sampler{
		keys:   keys,
		keyIdx: make(map[string]int, len(keys)),
	}
	for i, k := range keys {
		s.keyIdx[k] = i
	}
	var compile func(n *andxor.Node) int32
	compile = func(n *andxor.Node) int32 {
		c := cnode{kind: n.Kind()}
		if n.Kind() == andxor.KindLeaf {
			l := n.Leaf()
			c.leaf = int32(len(s.scores))
			s.leafKey = append(s.leafKey, int32(s.keyIdx[l.Key]))
			s.scores = append(s.scores, l.Score)
		} else {
			c.kids = make([]int32, len(n.Children()))
			c.probs = n.Probs()
			// Reserve this node's slot before the children so the leaf
			// numbering stays depth-first.
			idx := int32(len(s.nodes))
			s.nodes = append(s.nodes, c)
			for i, ch := range n.Children() {
				c.kids[i] = compile(ch)
			}
			s.nodes[idx].kids = c.kids
			return idx
		}
		s.nodes = append(s.nodes, c)
		return int32(len(s.nodes) - 1)
	}
	s.root = compile(t.Root())
	s.byScore = make([]int32, len(s.scores))
	for i := range s.byScore {
		s.byScore[i] = int32(i)
	}
	sort.Slice(s.byScore, func(a, b int) bool {
		i, j := s.byScore[a], s.byScore[b]
		if s.scores[i] != s.scores[j] {
			return s.scores[i] > s.scores[j]
		}
		return s.keys[s.leafKey[i]] < s.keys[s.leafKey[j]]
	})
	return s
}

func (s *sampler) numLeaves() int { return len(s.scores) }

// sampleInto draws one world and appends the present leaf indices to buf,
// returning the extended buffer.
func (s *sampler) sampleInto(rng *rand.Rand, buf []int32) []int32 {
	var walk func(ni int32)
	walk = func(ni int32) {
		n := &s.nodes[ni]
		switch n.kind {
		case andxor.KindLeaf:
			buf = append(buf, n.leaf)
		case andxor.KindAnd:
			for _, c := range n.kids {
				walk(c)
			}
		default: // KindOr: pick at most one child, like Tree.Sample
			u := rng.Float64()
			acc := 0.0
			for i, c := range n.kids {
				acc += n.probs[i]
				if u < acc {
					walk(c)
					return
				}
			}
		}
	}
	walk(s.root)
	return buf
}

// topKInto returns the world's top-k answer (keys by decreasing score) for
// the world given as present leaf indices, reusing the present/out scratch
// buffers.  present must be all-false on entry and is restored before
// returning.
func (s *sampler) topKInto(world []int32, k int, present []bool, out []string) []string {
	for _, li := range world {
		present[li] = true
	}
	out = out[:0]
	for _, li := range s.byScore {
		if present[li] {
			out = append(out, s.keys[s.leafKey[li]])
			if len(out) == k {
				break
			}
		}
	}
	for _, li := range world {
		present[li] = false
	}
	return out
}

// shardRNG derives shard i's deterministic RNG stream from the base seed.
func shardRNG(seed int64, shard int) *rand.Rand {
	const stride = int64(-0x61C8864680B583EB) // golden-ratio stride, spreads shard streams
	return rand.New(rand.NewSource(seed + int64(shard)*stride))
}

// shardSizes splits total draws across workers as evenly as possible.
func shardSizes(total, workers int) []int {
	if workers > total {
		workers = total
	}
	if workers < 1 {
		workers = 1
	}
	out := make([]int, workers)
	base, rem := total/workers, total%workers
	for i := range out {
		out[i] = base
		if i < rem {
			out[i]++
		}
	}
	return out
}

// ctxBatch is how many draws a shard performs between cancellation checks.
const ctxBatch = 256

// checkCtx returns the context's error every ctxBatch-th iteration.
func checkCtx(ctx context.Context, i int) error {
	if i%ctxBatch != 0 {
		return nil
	}
	return ctx.Err()
}
