package andxor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"consensus/internal/types"
)

// bid2 builds the two-block BID tree used across the mutation tests:
// t1 with alternatives (8, 0.5) and (2, 0.3), t2 with (6, 0.6).
func bid2(t *testing.T) *Tree {
	t.Helper()
	tr, err := BID([]Block{
		{Alternatives: []types.Leaf{{Key: "t1", Score: 8}, {Key: "t1", Score: 2}}, Probs: []float64{0.5, 0.3}},
		{Alternatives: []types.Leaf{{Key: "t2", Score: 6}}, Probs: []float64{0.6}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func marginal(t *testing.T, tr *Tree, key string) float64 {
	t.Helper()
	m, ok := tr.KeyMarginal(key)
	if !ok {
		t.Fatalf("KeyMarginal(%q): key missing", key)
	}
	return m
}

func TestSetProb(t *testing.T) {
	tr := bid2(t)
	d, err := tr.Apply(Update{Kind: UpdateSetProb, Key: "t1", Score: 8, Prob: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if d.Structural {
		t.Fatal("set-prob reported structural")
	}
	if got := marginal(t, tr, "t1"); got != 0.4 {
		t.Fatalf("t1 marginal = %v, want 0.4", got)
	}
	if len(d.Keys) != 1 || d.Keys[0] != "t1" {
		t.Fatalf("delta keys = %v", d.Keys)
	}
	if len(d.Leaves) != 1 || d.Probs[0] != 0.1 {
		t.Fatalf("delta edges = %v / %v", d.Leaves, d.Probs)
	}
	if want := 1 - 0.1 - 0.3; math.Abs(d.Stop-want) > 1e-15 {
		t.Fatalf("delta stop = %v, want %v", d.Stop, want)
	}

	// Exceeding the block budget without renormalize is rejected.
	if _, err := tr.Apply(Update{Kind: UpdateSetProb, Key: "t1", Score: 8, Prob: 0.8}); err == nil {
		t.Fatal("over-budget set-prob accepted")
	}
	if got := marginal(t, tr, "t1"); got != 0.4 {
		t.Fatalf("failed update mutated the tree: t1 marginal = %v", got)
	}
}

func TestSetProbRenormalize(t *testing.T) {
	tr := bid2(t)
	d, err := tr.Apply(Update{Kind: UpdateSetProb, Key: "t1", Score: 8, Prob: 0.8, Renormalize: true})
	if err != nil {
		t.Fatal(err)
	}
	// Old block: 0.5/0.3/stop 0.2.  New edge 0.8 leaves mass 0.2 split in
	// the old 0.3:0.2 proportion: sibling 0.12, stop 0.08.
	if len(d.Leaves) != 2 {
		t.Fatalf("renormalize delta lists %d edges, want 2", len(d.Leaves))
	}
	sib := tr.Root().Children()[0].Probs()[1]
	if math.Abs(sib-0.12) > 1e-15 {
		t.Fatalf("sibling prob = %v, want 0.12", sib)
	}
	if math.Abs(d.Stop-0.08) > 1e-15 {
		t.Fatalf("stop = %v, want 0.08", d.Stop)
	}
}

func TestInsertDelete(t *testing.T) {
	tr := bid2(t)
	d, err := tr.Apply(Update{Kind: UpdateInsert, Key: "t1", Score: 5, Prob: 0.15, Label: "g1"})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Structural {
		t.Fatal("insert reported non-structural")
	}
	if got := len(tr.keyLeaves["t1"]); got != 3 {
		t.Fatalf("t1 has %d alternatives after insert, want 3", got)
	}
	if got := marginal(t, tr, "t1"); math.Abs(got-0.95) > 1e-15 {
		t.Fatalf("t1 marginal = %v, want 0.95", got)
	}
	// Leaf bookkeeping must be consistent with a fresh validation.
	if tr.NumLeaves() != 4 || len(tr.LeafAlternatives()) != 4 {
		t.Fatalf("leaf slices not rebuilt: %d / %d", tr.NumLeaves(), len(tr.LeafAlternatives()))
	}

	if _, err := tr.Apply(Update{Kind: UpdateInsert, Key: "t1", Score: 5, Prob: 0.01}); err == nil {
		t.Fatal("duplicate-score insert accepted")
	}
	if _, err := tr.Apply(Update{Kind: UpdateInsert, Key: "t9", Score: 1, Prob: 0.1}); err == nil {
		t.Fatal("insert under unknown key accepted")
	}
	if _, err := tr.Apply(Update{Kind: UpdateInsert, Key: "t2", Score: 9, Prob: 0.9}); err == nil {
		t.Fatal("over-budget insert accepted")
	}

	if _, err := tr.Apply(Update{Kind: UpdateDelete, Key: "t1", Score: 5}); err != nil {
		t.Fatal(err)
	}
	if got := marginal(t, tr, "t1"); math.Abs(got-0.8) > 1e-15 {
		t.Fatalf("t1 marginal after delete = %v, want 0.8", got)
	}
	// Deleting the sole child of a block is rejected.
	if _, err := tr.Apply(Update{Kind: UpdateDelete, Key: "t2", Score: 6}); err == nil {
		t.Fatal("deleting a block's only child accepted")
	}
}

func TestDeleteLastAlternativeOfKey(t *testing.T) {
	// One block holding two keys: deleting t2's only alternative keeps the
	// block but removes the key.
	tr := MustNew(NewOr(
		[]*Node{NewLeaf(types.Leaf{Key: "t1", Score: 3}), NewLeaf(types.Leaf{Key: "t2", Score: 1})},
		[]float64{0.4, 0.5},
	))
	d, err := tr.Apply(Update{Kind: UpdateDelete, Key: "t2", Score: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Removed) != 1 || d.Removed[0] != "t2" {
		t.Fatalf("delta removed = %v, want [t2]", d.Removed)
	}
	if _, ok := tr.KeyMarginal("t2"); ok {
		t.Fatal("t2 still present after deleting its last alternative")
	}
	if len(tr.Keys()) != 1 {
		t.Fatalf("keys = %v", tr.Keys())
	}
}

func TestConditioning(t *testing.T) {
	tr := bid2(t)
	// Present: t1's edges renormalize to sum 1.
	d, err := tr.Apply(Update{Kind: EvidencePresent, Key: "t1"})
	if err != nil {
		t.Fatal(err)
	}
	if got := marginal(t, tr, "t1"); math.Abs(got-1) > 1e-12 {
		t.Fatalf("t1 marginal after present = %v, want 1", got)
	}
	p := tr.Root().Children()[0].Probs()
	if math.Abs(p[0]-0.625) > 1e-15 || math.Abs(p[1]-0.375) > 1e-15 {
		t.Fatalf("conditioned probs = %v, want [0.625 0.375]", p)
	}
	if d.Stop != 0 {
		t.Fatalf("stop after present = %v", d.Stop)
	}

	// Absent on the other block.
	if _, err := tr.Apply(Update{Kind: EvidenceAbsent, Key: "t2"}); err != nil {
		t.Fatal(err)
	}
	if got := marginal(t, tr, "t2"); got != 0 {
		t.Fatalf("t2 marginal after absent = %v, want 0", got)
	}

	// Choose on a fresh tree.
	tr = bid2(t)
	if _, err := tr.Apply(Update{Kind: EvidenceChoose, Key: "t1", Score: 2}); err != nil {
		t.Fatal(err)
	}
	probs := tr.Root().Children()[0].Probs()
	if probs[0] != 0 || probs[1] != 1 {
		t.Fatalf("choose probs = %v, want [0 1]", probs)
	}

	// Zero-probability evidence is rejected.
	if _, err := tr.Apply(Update{Kind: EvidencePresent, Key: "t1"}); err != nil {
		t.Fatal(err) // conditioning twice is fine (idempotent)
	}
	if _, err := tr.Apply(Update{Kind: EvidenceAbsent, Key: "t1"}); err == nil {
		t.Fatal("absent evidence against a sure key accepted")
	}
	if _, err := tr.Apply(Update{Kind: EvidenceChoose, Key: "t1", Score: 8}); err == nil {
		t.Fatal("choosing a zero-probability alternative accepted")
	}
}

func TestConditionRequiresMaterializedBlock(t *testing.T) {
	// A block nested under an or-ancestor cannot be conditioned locally.
	inner := NewOr([]*Node{NewLeaf(types.Leaf{Key: "t1", Score: 5})}, []float64{0.5})
	tr := MustNew(NewOr([]*Node{inner}, []float64{0.7}))
	if _, err := tr.Apply(Update{Kind: EvidencePresent, Key: "t1"}); err == nil {
		t.Fatal("conditioning under an or-ancestor accepted")
	}
	// Under and-ancestors it works.
	inner2 := NewOr([]*Node{NewLeaf(types.Leaf{Key: "t2", Score: 5})}, []float64{0.5})
	tr2 := MustNew(NewAnd(NewAnd(inner2), NewOr([]*Node{NewLeaf(types.Leaf{Key: "t3", Score: 1})}, []float64{0.4})))
	if _, err := tr2.Apply(Update{Kind: EvidencePresent, Key: "t2"}); err != nil {
		t.Fatal(err)
	}
	if got := marginal(t, tr2, "t2"); got != 1 {
		t.Fatalf("t2 marginal = %v, want 1", got)
	}
}

func TestCloneIsolation(t *testing.T) {
	tr := bid2(t)
	cl := tr.Clone()
	if tr.String() != cl.String() {
		t.Fatalf("clone differs: %s vs %s", tr, cl)
	}
	if _, err := cl.Apply(Update{Kind: UpdateSetProb, Key: "t1", Score: 8, Prob: 0}); err != nil {
		t.Fatal(err)
	}
	if got := marginal(t, tr, "t1"); got != 0.8 {
		t.Fatalf("mutating the clone changed the original: %v", got)
	}
	if got := marginal(t, cl, "t1"); got != 0.3 {
		t.Fatalf("clone marginal = %v, want 0.3", got)
	}
}

// TestKeyMarginalMatchesKeyMarginals pins the bit-identity contract the
// engine's membership patching relies on: KeyMarginal(k) must reproduce
// KeyMarginals()[k] exactly (same multiplication and accumulation order),
// on nested trees included.
func TestKeyMarginalMatchesKeyMarginals(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		tr := randomNestedTree(rng, 2+rng.Intn(10))
		full := tr.KeyMarginals()
		for _, k := range tr.Keys() {
			got, ok := tr.KeyMarginal(k)
			if !ok {
				t.Fatalf("trial %d: key %q missing", trial, k)
			}
			if got != full[k] {
				t.Fatalf("trial %d key %q: KeyMarginal = %v, KeyMarginals = %v (not bit-identical)", trial, k, got, full[k])
			}
		}
	}
}

// randomNestedTree builds a small random and/xor tree mixing nesting
// shapes, for the marginal bit-identity test.
func randomNestedTree(rng *rand.Rand, nKeys int) *Tree {
	var blocks []*Node
	score := 1.0
	for i := 0; i < nKeys; i++ {
		na := 1 + rng.Intn(3)
		leaves := make([]*Node, na)
		probs := make([]float64, na)
		rem := 1.0
		for j := range leaves {
			leaves[j] = NewLeaf(types.Leaf{Key: "k" + string(rune('a'+i)), Score: score})
			score++
			probs[j] = rem * rng.Float64() * 0.8
			rem -= probs[j]
		}
		blocks = append(blocks, NewOr(leaves, probs))
	}
	// Randomly nest pairs of blocks under and/or nodes.
	for len(blocks) > 1 {
		a, b := blocks[len(blocks)-2], blocks[len(blocks)-1]
		blocks = blocks[:len(blocks)-2]
		if rng.Intn(2) == 0 {
			blocks = append(blocks, NewAnd(a, b))
		} else {
			p := rng.Float64() * 0.5
			q := rng.Float64() * 0.5
			blocks = append(blocks, NewOr([]*Node{a, b}, []float64{p, q}))
		}
	}
	return MustNew(blocks[0])
}

// TestApplyAllSequentialEquivalence pins the batch entry point to the
// sequential one: a successful ApplyAll leaves the tree in exactly the
// state the same Apply sequence reaches, with matching per-update deltas.
func TestApplyAllSequentialEquivalence(t *testing.T) {
	batch := bid2(t)
	seq := bid2(t)
	us := []Update{
		{Kind: UpdateSetProb, Key: "t1", Score: 8, Prob: 0.1},
		{Kind: UpdateSetProb, Key: "t1", Score: 2, Prob: 0.6, Renormalize: true},
		{Kind: EvidencePresent, Key: "t2"},
		{Kind: UpdateInsert, Key: "t1", Score: 9, Prob: 0.2, Label: "late"},
	}
	ds, err := batch.ApplyAll(us)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != len(us) {
		t.Fatalf("got %d deltas for %d updates", len(ds), len(us))
	}
	for i, u := range us {
		sd, err := seq.Apply(u)
		if err != nil {
			t.Fatalf("sequential step %d: %v", i, err)
		}
		if ds[i].Structural != sd.Structural {
			t.Fatalf("step %d: Structural = %v, sequential %v", i, ds[i].Structural, sd.Structural)
		}
	}
	bm, sm := batch.KeyMarginals(), seq.KeyMarginals()
	for k, v := range sm {
		if bm[k] != v {
			t.Fatalf("key %q: batch marginal %v, sequential %v", k, bm[k], v)
		}
	}
}

// TestApplyAllAtomic pins the all-or-nothing contract: a batch whose
// middle update fails must leave the tree exactly as it was, including
// the effects the earlier (valid) updates would have had.
func TestApplyAllAtomic(t *testing.T) {
	tr := bid2(t)
	before := tr.KeyMarginals()
	ds, err := tr.ApplyAll([]Update{
		{Kind: UpdateSetProb, Key: "t1", Score: 8, Prob: 0.2},
		{Kind: UpdateSetProb, Key: "t9", Score: 1, Prob: 0.5}, // unknown key
		{Kind: EvidenceAbsent, Key: "t2"},
	})
	if err == nil {
		t.Fatal("batch with an invalid update applied")
	}
	if ds != nil {
		t.Fatalf("failed batch returned deltas %v", ds)
	}
	after := tr.KeyMarginals()
	for k, v := range before {
		if after[k] != v {
			t.Fatalf("key %q: marginal moved %v -> %v across a failed batch", k, v, after[k])
		}
	}
	// The error names the failing position so clients can fix the batch.
	if want := "batch update 1"; !containsStr(err.Error(), want) {
		t.Fatalf("error %q does not name the failing update (%q)", err, want)
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestRenormalizeDriftStaysValid pins the simplex clamp in renormalizing
// set-prob: the sibling rescale amplifies float rounding (its scale factor
// can exceed 1), so a long stream of renormalizations would compound drift
// until the block's edge sum crossed the validation slack and Clone —
// which re-validates and panics on a corrupt tree — blew up mid-mutation.
// Every applied update must leave the tree strictly cloneable.
func TestRenormalizeDriftStaysValid(t *testing.T) {
	// Random double-precision edge probabilities and repeated extreme
	// renormalizations: the sibling rescale has its fixed point at block
	// mass exactly 1, so multi-alternative blocks converge onto the
	// simplex boundary where any upward rounding crosses the validation
	// slack.  Every applied update must leave the tree strictly
	// cloneable (Clone re-validates and panics on a corrupt tree).
	rng := rand.New(rand.NewSource(20))
	var blocks []Block
	for i := 0; i < 64; i++ {
		// Half the blocks carry full mass (edges sum to 1, the rescale's
		// fixed point); the rest leave random stop mass.
		a, b, c := rng.Float64(), rng.Float64(), 0.0
		if i%2 == 0 {
			c = rng.Float64()
		}
		sum := a + b + c
		key := fmt.Sprintf("t%d", i+1)
		blocks = append(blocks, Block{
			Alternatives: []types.Leaf{{Key: key, Score: float64(2 * i)}, {Key: key, Score: float64(2*i + 1)}},
			Probs:        []float64{a / sum, b / sum},
		})
	}
	tr, err := BID(blocks)
	if err != nil {
		t.Fatal(err)
	}
	alts := tr.LeafAlternatives()
	for round := 0; round < 200; round++ {
		for i, a := range alts {
			u := Update{
				Kind: UpdateSetProb, Key: a.Key, Score: a.Score,
				Prob: 0.05 + float64(i%9)*0.1, Renormalize: true,
			}
			if _, err := tr.Apply(u); err != nil {
				t.Fatalf("round %d update %d rejected: %v", round, i, err)
			}
		}
		tr.Clone() // panics if accumulated drift corrupted the tree
	}
}

// TestVersionCountsMutations pins the mutation counter caches key on:
// every successful Apply (weight, structural or evidence) and every update
// of an ApplyAll batch advances it, while rejected updates and batches
// leave it alone.
func TestVersionCountsMutations(t *testing.T) {
	tr := bid2(t)
	if tr.Version() != 0 {
		t.Fatalf("fresh tree at version %d", tr.Version())
	}
	steps := []struct {
		us   []Update
		want uint64
	}{
		{[]Update{{Kind: UpdateSetProb, Key: "t1", Score: 8, Prob: 0.4}}, 1},
		{[]Update{{Kind: UpdateSetProb, Key: "t1", Score: 8, Prob: 2}}, 1}, // rejected
		{[]Update{{Kind: UpdateInsert, Key: "t2", Score: 1, Prob: 0.1}}, 2},
		{[]Update{{Kind: UpdateDelete, Key: "t2", Score: 1}}, 3},
		{[]Update{{Kind: EvidencePresent, Key: "t2"}}, 4},
		{[]Update{
			{Kind: UpdateSetProb, Key: "t1", Score: 2, Prob: 0.2, Renormalize: true},
			{Kind: UpdateInsert, Key: "t1", Score: 3, Prob: 0},
		}, 6},
		{[]Update{
			{Kind: UpdateSetProb, Key: "t1", Score: 2, Prob: 0.3},
			{Kind: UpdateDelete, Key: "nope", Score: 1}, // rejects the batch
		}, 6},
	}
	for i, st := range steps {
		tr.ApplyAll(st.us)
		if got := tr.Version(); got != st.want {
			t.Fatalf("step %d: version %d, want %d", i, got, st.want)
		}
	}
	if tr.Clone().Version() != 0 {
		t.Fatal("a clone is a new tree and starts at version 0")
	}
}
