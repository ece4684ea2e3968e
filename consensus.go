package consensus

import (
	"fmt"
	"math/rand"

	"consensus/internal/aggregate"
	"consensus/internal/andxor"
	"consensus/internal/cluster"
	"consensus/internal/exact"
	"consensus/internal/genfunc"
	"consensus/internal/setconsensus"
	"consensus/internal/topk"
	"consensus/internal/types"
)

// Core model types, re-exported from the internal packages so that the
// whole public API lives in one import path.
type (
	// Leaf is one tuple alternative: a (key, score, label) binding.
	Leaf = types.Leaf
	// World is a deterministic possible world (a set of alternatives with
	// distinct keys).
	World = types.World
	// Tree is a validated probabilistic and/xor tree.
	Tree = andxor.Tree
	// Node is an and/xor tree node under construction.
	Node = andxor.Node
	// TupleProb is an independent probabilistic tuple.
	TupleProb = andxor.TupleProb
	// Block is one block of a block-independent disjoint relation.
	Block = andxor.Block
	// WeightedWorld pairs a world with its probability.
	WeightedWorld = andxor.WeightedWorld
	// TopKList is an ordered top-k answer (tuple keys, best first).
	TopKList = topk.List
	// RankDist holds Pr(r(t)=i) and Pr(r(t)<=i) for every tuple.
	RankDist = genfunc.RankDist
	// Clustering assigns cluster ids to tuple indices.
	Clustering = cluster.Clustering
	// ClusterInstance is a consensus-clustering problem over tuple keys.
	ClusterInstance = cluster.Instance
	// Update describes one in-place tree mutation or evidence assertion,
	// applied with Tree.Apply.
	Update = andxor.Update
	// UpdateKind discriminates the mutation and conditioning operations.
	UpdateKind = andxor.UpdateKind
)

// Mutation and evidence kinds accepted by Tree.Apply (and, as strings, by
// the engine's MutationRequest.Kind / EvidenceRequest.Kind fields).
const (
	UpdateSetProb   = andxor.UpdateSetProb
	UpdateInsert    = andxor.UpdateInsert
	UpdateDelete    = andxor.UpdateDelete
	EvidencePresent = andxor.EvidencePresent
	EvidenceAbsent  = andxor.EvidenceAbsent
	EvidenceChoose  = andxor.EvidenceChoose
)

// Tree constructors.
var (
	// NewLeaf, NewAnd and NewOr build tree nodes; NewTree validates the
	// result (probability and key constraints of Definition 1).
	NewLeaf = andxor.NewLeaf
	NewAnd  = andxor.NewAnd
	NewOr   = andxor.NewOr
	NewTree = andxor.New
	// Independent builds a tuple-independent database; BID a
	// block-independent disjoint one (also covering x-tuples and
	// p-or-sets); FromWorlds an explicit world distribution.
	Independent = andxor.Independent
	BID         = andxor.BID
	FromWorlds  = andxor.FromWorlds
	// ParseTree decodes the JSON produced by Tree.MarshalJSON.
	ParseTree = andxor.UnmarshalTree
	// NewWorld builds a deterministic world from alternatives.
	NewWorld = types.NewWorld
)

// WorldProbability returns the exact probability that the tree generates
// precisely the given world (0 if it is not a possible world); linear in
// the tree size.
func WorldProbability(t *Tree, w *World) float64 { return andxor.WorldProb(t, w) }

// WorldSizeDistribution returns Pr(|pw| = i) for every i, computed with
// the generating function of Example 1 / Figure 1(i).
func WorldSizeDistribution(t *Tree) []float64 {
	return append([]float64(nil), genfunc.WorldSizeDist(t)...)
}

// RankDistribution returns the rank distribution up to rank k for every
// tuple key (Section 3.3, Example 3 generalized).  It errors when two
// tuples share a score, which would make ranks ill-defined.
func RankDistribution(t *Tree, k int) (*RankDist, error) { return genfunc.Ranks(t, k) }

// PrecedenceProbability returns Pr(r(keyI) < r(keyJ)), the pairwise
// statistic Section 5.5 uses.
func PrecedenceProbability(t *Tree, keyI, keyJ string) float64 {
	return genfunc.Precedence(t, keyI, keyJ)
}

// EnumerateWorlds returns the full possible-world distribution; it errors
// beyond limit raw worlds (0 = default cap) since enumeration is
// exponential in general.
func EnumerateWorlds(t *Tree, limit int) ([]WeightedWorld, error) {
	return exact.Enumerate(t, limit)
}

// MeanWorld returns the mean world under the symmetric difference
// distance: all alternatives with marginal probability above 1/2
// (Theorem 2).
func MeanWorld(t *Tree) *World { return setconsensus.MeanWorldSymDiff(t) }

// MedianWorld returns a median world under the symmetric difference
// distance: the possible world minimizing the expected distance
// (Corollary 1, with an exact tree DP covering the forced-or-node corner
// case).
func MedianWorld(t *Tree) *World { return setconsensus.MedianWorldSymDiff(t) }

// ExpectedSymmetricDifference returns E[|W delta pw|] in closed form.
func ExpectedSymmetricDifference(t *Tree, w *World) float64 {
	return setconsensus.ExpectedSymDiff(t, w)
}

// ExpectedJaccard returns E[d_J(W, pw)] via the Lemma 1 generating
// function.
func ExpectedJaccard(t *Tree, w *World) float64 { return setconsensus.ExpectedJaccard(t, w) }

// MeanWorldJaccard returns the mean world under the Jaccard distance for
// a tuple-independent database (Lemma 2), with its expected distance.
func MeanWorldJaccard(t *Tree) (*World, float64, error) { return setconsensus.MeanWorldJaccard(t) }

// MedianWorldJaccard returns the median world under the Jaccard distance
// for a BID database (Section 4.2), with its expected distance.
func MedianWorldJaccard(t *Tree) (*World, float64, error) {
	return setconsensus.MedianWorldJaccard(t)
}

// Metric selects the top-k distance for TopKMean.
type Metric int

const (
	// MetricSymmetricDifference is the normalized symmetric difference
	// metric d_Delta of Section 5.1.
	MetricSymmetricDifference Metric = iota
	// MetricIntersection is the intersection metric d_I.
	MetricIntersection
	// MetricFootrule is Spearman's footrule with location parameter k+1.
	MetricFootrule
	// MetricKendall is the top-k Kendall distance (consensus computed
	// approximately; see TopKKendallPivot for the pivot variant).
	MetricKendall
)

// String names the metric.
func (m Metric) String() string {
	switch m {
	case MetricSymmetricDifference:
		return "symmetric-difference"
	case MetricIntersection:
		return "intersection"
	case MetricFootrule:
		return "footrule"
	case MetricKendall:
		return "kendall"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

// TopKMean returns the mean top-k answer under the chosen metric:
// exactly optimal for the symmetric difference (Theorem 3), intersection
// (Section 5.3 assignment) and footrule (Section 5.4 assignment) metrics,
// and the footrule-optimal constant-factor approximation for Kendall
// (Section 5.5).
func TopKMean(t *Tree, k int, m Metric) (TopKList, error) {
	switch m {
	case MetricSymmetricDifference:
		tau, _, err := topk.MeanSymDiff(t, k)
		return tau, err
	case MetricIntersection:
		tau, _, err := topk.MeanIntersection(t, k)
		return tau, err
	case MetricFootrule:
		tau, _, _, err := topk.MeanFootrule(t, k)
		return tau, err
	case MetricKendall:
		return topk.KendallViaFootrule(t, k)
	default:
		return nil, fmt.Errorf("consensus: unknown metric %v", m)
	}
}

// TopKMedian returns the median top-k answer under the symmetric
// difference metric via the Theorem 4 dynamic program.
func TopKMedian(t *Tree, k int) (TopKList, error) {
	tau, _, err := topk.MedianSymDiff(t, k)
	return tau, err
}

// TopKUpsilonH returns the Upsilon_H ranking-function answer, the
// H_k-approximate mean under the intersection metric (Section 5.3).
func TopKUpsilonH(t *Tree, k int) (TopKList, error) {
	tau, _, err := topk.MeanIntersectionUpsilon(t, k)
	return tau, err
}

// TopKKendallPivot returns the pivot-based Kendall consensus driven by
// pairwise precedence probabilities (Section 5.5).
func TopKKendallPivot(t *Tree, k int, rng *rand.Rand) (TopKList, error) {
	return topk.KendallPivot(t, k, rng)
}

// Baseline ranking semantics (Sections 1-2), for comparison with the
// consensus answers.
var (
	// PTk is the probabilistic-threshold top-k answer.
	PTk = topk.PTk
	// UTopK is the most probable top-k answer (exponential: enumerates).
	UTopK = topk.UTopK
	// UTopKSampled estimates UTopK by sampling.
	UTopKSampled = topk.UTopKSampled
	// ExpectedRankTopK ranks by Cormode et al.'s expected rank.
	ExpectedRankTopK = topk.ExpectedRankTopK
	// ExpectedScoreTopK ranks by expected score.
	ExpectedScoreTopK = topk.ExpectedScoreTopK
)

// GroupByCountMean returns the mean answer of a group-by count query: the
// expected count per group (Section 6.1), for an n x m tuple-group
// probability matrix with rows summing to 1.
func GroupByCountMean(p [][]float64) ([]float64, error) {
	if err := aggregate.Validate(p); err != nil {
		return nil, err
	}
	return aggregate.Mean(p), nil
}

// GroupByCountMedian returns the 4-approximate median answer of
// Corollary 2 (the possible count vector closest to the mean, via min-cost
// flow) together with its expected squared distance.
func GroupByCountMedian(p [][]float64) ([]int, float64, error) {
	return aggregate.MedianApprox(p)
}

// GroupByCountExpectedDistance returns E[||r - v||^2] for a candidate
// count vector v.
func GroupByCountExpectedDistance(p [][]float64, v []float64) (float64, error) {
	if err := aggregate.Validate(p); err != nil {
		return 0, err
	}
	return aggregate.ExpectedSqDist(p, v), nil
}

// GroupMatrixFromTree converts a labeled BID tree whose blocks all sum to
// probability 1 (attribute-level uncertainty only, the Section 6.1 model)
// into the (matrix, group names) form the aggregate functions consume.
func GroupMatrixFromTree(t *Tree) ([][]float64, []string, error) {
	p, groups, err := aggregate.MatrixFromTree(t)
	if err != nil {
		// Keep the root package's error prefix convention while
		// preserving the wrapped cause for errors.Is/As.
		return nil, nil, fmt.Errorf("consensus: %w", err)
	}
	return p, groups, nil
}

// ConsensusClustering runs pivot clustering with restarts on the tree's
// co-clustering probabilities and returns the best clustering found with
// its expected pair-disagreement distance.
func ConsensusClustering(t *Tree, rng *rand.Rand, restarts int) (*ClusterInstance, Clustering, float64) {
	ins := cluster.FromTree(t)
	c, e := ins.CCPivotBest(rng, restarts)
	return ins, c, e
}
