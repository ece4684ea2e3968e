package andxor

import (
	"fmt"

	"consensus/internal/types"
)

// TupleProb is one independent probabilistic tuple: a single alternative
// present with probability Prob.
type TupleProb struct {
	Leaf types.Leaf
	Prob float64
}

// Independent builds the and/xor tree of a tuple-independent database: an
// and-root whose children are one or-node per tuple, each with a single
// leaf child.
func Independent(tuples []TupleProb) (*Tree, error) {
	if len(tuples) == 0 {
		return nil, fmt.Errorf("andxor: empty tuple set")
	}
	children := make([]*Node, len(tuples))
	for i, tp := range tuples {
		children[i] = NewOr([]*Node{NewLeaf(tp.Leaf)}, []float64{tp.Prob})
	}
	return New(NewAnd(children...))
}

// Block is one block of a block-independent disjoint (BID) relation: the
// mutually exclusive alternatives of one tuple together with their
// probabilities.  All alternatives must share the same key.
type Block struct {
	Alternatives []types.Leaf
	Probs        []float64
}

// BID builds the and/xor tree of a block-independent disjoint database (or
// equivalently a set of x-tuples / a p-or-set): an and-root with one
// or-node per block whose children are that block's alternatives.  This is
// exactly the shape of Figure 1(i) in the paper.
func BID(blocks []Block) (*Tree, error) {
	if len(blocks) == 0 {
		return nil, fmt.Errorf("andxor: empty block set")
	}
	children := make([]*Node, len(blocks))
	for i, b := range blocks {
		if len(b.Alternatives) == 0 {
			return nil, fmt.Errorf("andxor: block %d has no alternatives", i)
		}
		if len(b.Alternatives) != len(b.Probs) {
			return nil, fmt.Errorf("andxor: block %d has %d alternatives but %d probabilities", i, len(b.Alternatives), len(b.Probs))
		}
		key := b.Alternatives[0].Key
		leaves := make([]*Node, len(b.Alternatives))
		for j, alt := range b.Alternatives {
			if alt.Key != key {
				return nil, fmt.Errorf("andxor: block %d mixes keys %q and %q", i, key, alt.Key)
			}
			leaves[j] = NewLeaf(alt)
		}
		children[i] = NewOr(leaves, append([]float64(nil), b.Probs...))
	}
	return New(NewAnd(children...))
}

// WeightedWorld pairs a deterministic world with its probability; used both
// by FromWorlds below and by the enumeration oracle.
type WeightedWorld struct {
	World *types.World
	Prob  float64
}

// FromWorlds builds an and/xor tree encoding an arbitrary explicit
// distribution over possible worlds: an or-root with one and-child per
// world whose leaves are the world's alternatives.  This is the
// construction behind Figure 1(iii) in the paper and shows the model can
// capture arbitrary correlations.  World probabilities must sum to at most
// one; any deficit is the probability of the empty world.
func FromWorlds(worlds []WeightedWorld) (*Tree, error) {
	if len(worlds) == 0 {
		return nil, fmt.Errorf("andxor: empty world set")
	}
	children := make([]*Node, 0, len(worlds))
	probs := make([]float64, 0, len(worlds))
	for _, ww := range worlds {
		leaves := ww.World.Leaves()
		if len(leaves) == 0 {
			// The empty world is represented implicitly by the or-node
			// deficit; fold its probability by simply skipping the child.
			continue
		}
		ls := make([]*Node, len(leaves))
		for i, l := range leaves {
			ls[i] = NewLeaf(l)
		}
		if len(ls) == 1 {
			children = append(children, ls[0])
		} else {
			children = append(children, NewAnd(ls...))
		}
		probs = append(probs, ww.Prob)
	}
	if len(children) == 0 {
		return nil, fmt.Errorf("andxor: distribution has only the empty world; the tree model needs at least one leaf")
	}
	return New(NewOr(children, probs))
}

// CoexistGroup ties a set of independent blocks together under one shared
// existence event: with probability Prob all blocks independently choose
// alternatives as usual, and with probability 1-Prob none of them produce
// anything.  This is a convenience for building nested trees mixing
// coexistence and mutual exclusion.
func CoexistGroup(prob float64, blocks []Block) (*Node, error) {
	if len(blocks) == 0 {
		return nil, fmt.Errorf("andxor: empty coexist group")
	}
	inner := make([]*Node, len(blocks))
	for i, b := range blocks {
		if len(b.Alternatives) != len(b.Probs) {
			return nil, fmt.Errorf("andxor: block %d has %d alternatives but %d probabilities", i, len(b.Alternatives), len(b.Probs))
		}
		leaves := make([]*Node, len(b.Alternatives))
		for j, alt := range b.Alternatives {
			leaves[j] = NewLeaf(alt)
		}
		inner[i] = NewOr(leaves, append([]float64(nil), b.Probs...))
	}
	return NewOr([]*Node{NewAnd(inner...)}, []float64{prob}), nil
}

// Figure1i returns the exact tree of Figure 1(i) of the paper: four
// independent tuples t1..t4, each with two alternatives.  Its world-size
// generating function is 0.08 x^2 + 0.44 x^3 + 0.48 x^4.
func Figure1i() *Tree {
	blocks := []Block{
		{Alternatives: []types.Leaf{{Key: "t1", Score: 8}, {Key: "t1", Score: 2}}, Probs: []float64{0.1, 0.5}},
		{Alternatives: []types.Leaf{{Key: "t2", Score: 3}, {Key: "t2", Score: 4}}, Probs: []float64{0.4, 0.4}},
		{Alternatives: []types.Leaf{{Key: "t3", Score: 1}, {Key: "t3", Score: 9}}, Probs: []float64{0.2, 0.8}},
		{Alternatives: []types.Leaf{{Key: "t4", Score: 6}, {Key: "t4", Score: 5}}, Probs: []float64{0.5, 0.5}},
	}
	t, err := BID(blocks)
	if err != nil {
		panic(err) // static construction; cannot fail
	}
	return t
}

// Figure1Worlds returns the three correlated possible worlds of
// Figure 1(ii): pw1 = {(t3,6),(t2,5),(t1,1)} with probability 0.3,
// pw2 = {(t3,9),(t1,7),(t4,0)} with probability 0.3, and
// pw3 = {(t2,8),(t4,4),(t5,3)} with probability 0.4.
func Figure1Worlds() []WeightedWorld {
	return []WeightedWorld{
		{World: types.MustWorld(types.Leaf{Key: "t3", Score: 6}, types.Leaf{Key: "t2", Score: 5}, types.Leaf{Key: "t1", Score: 1}), Prob: 0.3},
		{World: types.MustWorld(types.Leaf{Key: "t3", Score: 9}, types.Leaf{Key: "t1", Score: 7}, types.Leaf{Key: "t4", Score: 0}), Prob: 0.3},
		{World: types.MustWorld(types.Leaf{Key: "t2", Score: 8}, types.Leaf{Key: "t4", Score: 4}, types.Leaf{Key: "t5", Score: 3}), Prob: 0.4},
	}
}

// Figure1iii returns the exact tree of Figure 1(iii), which encodes the
// three worlds of Figure 1(ii) under an or-root of and-nodes.
func Figure1iii() *Tree {
	t, err := FromWorlds(Figure1Worlds())
	if err != nil {
		panic(err)
	}
	return t
}
