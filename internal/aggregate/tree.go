package aggregate

import (
	"fmt"

	"consensus/internal/andxor"
)

// MatrixFromTree converts a labeled BID tree whose blocks all sum to
// probability 1 (attribute-level uncertainty only, the Section 6.1 model)
// into the (matrix, group names) form the matrix-based functions of this
// package consume: P[i][j] = Pr(tuple i takes group j), rows ordered by
// sorted tuple key, groups in first-appearance order over the leaves.
func MatrixFromTree(t *andxor.Tree) ([][]float64, []string, error) {
	keys := t.Keys()
	groupIdx := map[string]int{}
	var groups []string
	for _, l := range t.LeafAlternatives() {
		if _, ok := groupIdx[l.Label]; !ok {
			groupIdx[l.Label] = len(groups)
			groups = append(groups, l.Label)
		}
	}
	rowIdx := map[string]int{}
	for i, k := range keys {
		rowIdx[k] = i
	}
	p := make([][]float64, len(keys))
	for i := range p {
		p[i] = make([]float64, len(groups))
	}
	probs := t.MarginalProbs()
	for i, l := range t.LeafAlternatives() {
		p[rowIdx[l.Key]][groupIdx[l.Label]] += probs[i]
	}
	if err := Validate(p); err != nil {
		return nil, nil, fmt.Errorf("aggregate: tree is not a total group assignment: %w", err)
	}
	return p, groups, nil
}
