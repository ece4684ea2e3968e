package andxor

import (
	"strings"
	"testing"

	"consensus/internal/types"
)

func TestKindString(t *testing.T) {
	if KindLeaf.String() != "leaf" || KindAnd.String() != "and" || KindOr.String() != "or" {
		t.Fatal("Kind names wrong")
	}
	if !strings.Contains(Kind(9).String(), "Kind(") {
		t.Fatal("unknown kind should render numerically")
	}
}

func TestLeafAccessorPanicsOnInnerNode(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Leaf() on an and-node must panic")
		}
	}()
	NewAnd(leaf("a", 1)).Leaf()
}

func TestStopProbPanicsOnNonOr(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("StopProb() on a leaf must panic")
		}
	}()
	leaf("a", 1).StopProb()
}

func TestStopProbClampsOverweightWithinSlack(t *testing.T) {
	// Probabilities summing to 1 + tiny float slack are accepted by
	// validation and StopProb clamps to zero.
	n := NewOr([]*Node{leaf("a", 1), leaf("b", 2)}, []float64{0.7, 0.3 + 1e-12})
	if _, err := New(n); err != nil {
		t.Fatalf("within-slack sum rejected: %v", err)
	}
	if sp := n.StopProb(); sp < 0 || sp > 1e-9 {
		t.Fatalf("StopProb = %g, want ~0", sp)
	}
}

func TestCoexistGroupErrors(t *testing.T) {
	if _, err := CoexistGroup(0.5, nil); err == nil {
		t.Fatal("empty group must be rejected")
	}
	_, err := CoexistGroup(0.5, []Block{{Alternatives: []types.Leaf{{Key: "a"}}, Probs: []float64{0.1, 0.2}}})
	if err == nil {
		t.Fatal("mismatched block must be rejected")
	}
}

func TestIndependentErrors(t *testing.T) {
	if _, err := Independent(nil); err == nil {
		t.Fatal("empty tuple set must be rejected")
	}
}

func TestKeyMarginalsFigure1iii(t *testing.T) {
	m := Figure1iii().KeyMarginals()
	want := map[string]float64{"t1": 0.6, "t2": 0.7, "t3": 0.6, "t4": 0.7, "t5": 0.4}
	for k, p := range want {
		if d := m[k] - p; d > 1e-12 || d < -1e-12 {
			t.Errorf("Pr(%s) = %g, want %g", k, m[k], p)
		}
	}
}

func TestWorldProbOnBIDWithDeficit(t *testing.T) {
	tr, err := BID([]Block{
		{Alternatives: []types.Leaf{{Key: "a", Score: 1}, {Key: "a", Score: 2}}, Probs: []float64{0.2, 0.3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := WorldProb(tr, &types.World{}); p < 0.5-1e-12 || p > 0.5+1e-12 {
		t.Fatalf("Pr(empty) = %g, want 0.5", p)
	}
	w := types.MustWorld(types.Leaf{Key: "a", Score: 2})
	if p := WorldProb(tr, w); p < 0.3-1e-12 || p > 0.3+1e-12 {
		t.Fatalf("Pr({a2}) = %g, want 0.3", p)
	}
}
