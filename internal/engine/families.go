package engine

// The query families beyond top-k/set consensus: Jaccard consensus worlds
// (Section 4.2), consensus clusterings (Section 6.2), group-by aggregate
// answers (Section 6.1), consensus full rankings (Section 2 aggregation
// rules over the possible-world ranking distribution) and SPJ query
// evaluation through safe plans (the Dalvi-Suciu dichotomy the paper's
// Section 2 discusses, with lineage evaluation as the unsafe fallback).
// Every family flows through the same cache/singleflight machinery as the
// top-k ops; the clustering and aggregate families additionally reuse the
// cached rank distributions.

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"

	"consensus/internal/aggregate"
	"consensus/internal/andxor"
	"consensus/internal/approx"
	"consensus/internal/cluster"
	"consensus/internal/exact"
	"consensus/internal/rankagg"
	"consensus/internal/setconsensus"
	"consensus/internal/spj"
	"consensus/internal/types"
)

// DefaultRestarts is the CC-Pivot restart count used when
// Request.Restarts is zero.
const DefaultRestarts = 20

// maxRankingWorlds bounds the worlds the exact ranking-consensus path may
// enumerate; trees beyond it must use the sampling backend.
const maxRankingWorlds = 1 << 14

// jaccardWorld answers OpMeanWorldJaccard / OpMedianWorldJaccard: the
// Lemma 2 prefix search on tuple-independent trees resp. the Section 4.2
// best-alternative prefix search on BID trees.
func (e *Engine) jaccardWorld(resp *Response, te *treeEntry, req Request) error {
	v, err := e.cache.get(e.key(te, req.Tree, "%s", req.Op), func() (any, error) {
		var w *types.World
		var exp float64
		var err error
		if req.Op == OpMeanWorldJaccard {
			w, exp, err = setconsensus.MeanWorldJaccard(te.tree)
		} else {
			w, exp, err = setconsensus.MedianWorldJaccard(te.tree)
		}
		if err != nil {
			return nil, err
		}
		return worldResult{leaves: w.Leaves(), expected: exp}, nil
	})
	if err != nil {
		return err
	}
	res := v.(worldResult)
	resp.World = res.worldCopy()
	resp.Expected = ptr(res.expected)
	return nil
}

// clusteringResult is the cached answer of OpClusteringMean.
type clusteringResult struct {
	clusters [][]string
	expected float64
	method   string
}

// clusteringMean answers OpClusteringMean: the exact partition search when
// the instance is small enough, CC-Pivot with restarts otherwise.  The
// expensive part — the co-clustering probability matrix, one generating-
// function evaluation per tuple pair — is cached per tree under its own
// key, so clustering queries with different restart counts or seeds
// recompute only the cheap pivot passes.
func (e *Engine) clusteringMean(resp *Response, te *treeEntry, req Request) error {
	restarts := req.Restarts
	if restarts == 0 {
		restarts = DefaultRestarts
	}
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	if len(te.tree.Keys()) <= cluster.MaxExact {
		// The exact partition search ignores both knobs; normalize them
		// out of the key so every request shares one entry (and one run
		// of the Bell-number search).
		restarts, seed = 0, 0
	}
	v, err := e.cache.get(e.key(te, req.Tree, "clustering-mean/r%d/s%d", restarts, seed), func() (any, error) {
		ins, err := e.clusterInstance(te, req.Tree)
		if err != nil {
			return nil, err
		}
		if len(ins.Keys) <= cluster.MaxExact {
			c, exp, err := ins.Exact()
			if err != nil {
				return nil, err
			}
			return clusteringResult{clusters: clusterKeys(ins, c), expected: exp, method: "exact"}, nil
		}
		c, exp := ins.CCPivotBest(rand.New(rand.NewSource(seed)), restarts)
		return clusteringResult{clusters: clusterKeys(ins, c), expected: exp, method: "cc-pivot"}, nil
	})
	if err != nil {
		return err
	}
	res := v.(clusteringResult)
	// Deep-copy so callers mutating the response cannot corrupt the
	// cached clustering (the invariant every other op keeps).
	resp.Clusters = make([][]string, len(res.clusters))
	for i, group := range res.clusters {
		resp.Clusters[i] = append([]string(nil), group...)
	}
	resp.Expected = ptr(res.expected)
	resp.Method = res.method
	return nil
}

// clusterInstance returns the (cached) co-clustering instance of the
// tree, the expensive intermediate behind every clustering query (like
// ranksAtLeast for the rank ops, it is shared across final answers).
func (e *Engine) clusterInstance(te *treeEntry, name string) (*cluster.Instance, error) {
	v, err := e.cache.get(e.key(te, name, "cluster-instance"), func() (any, error) {
		return cluster.FromTree(te.tree), nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*cluster.Instance), nil
}

// clusterKeys renders a clustering as key groups, clusters ordered by
// first appearance over the instance's sorted keys.
func clusterKeys(ins *cluster.Instance, c cluster.Clustering) [][]string {
	c = c.Canonical()
	max := -1
	for _, id := range c {
		if id > max {
			max = id
		}
	}
	out := make([][]string, max+1)
	for i, id := range c {
		out[id] = append(out[id], ins.Keys[i])
	}
	return out
}

// aggResult is the cached answer of the aggregate ops.
type aggResult struct {
	groups   []string
	counts   []float64
	median   []int
	expected float64
	method   string
}

// aggregateAnswer answers OpAggregateMean / OpAggregateMedian over the
// matrix selected by Request.GroupBy.  Both derived matrices have rows on
// the probability simplex, so the Section 6.1 machinery applies; for the
// rank source the served expected distances interpret the matrix as an
// attribute-uncertainty instance built from the marginal rank
// distribution (the mean answer itself needs only linearity of
// expectation and is exact under any correlation).
func (e *Engine) aggregateAnswer(resp *Response, te *treeEntry, req Request) error {
	source, _ := normalizeGroupBy(req.GroupBy) // validate() already vetted it
	k := req.K
	if k <= 0 {
		k = len(te.tree.Keys())
	}
	k = clampK(te.tree, k)
	keyK := k
	if source == GroupByLabel {
		// The label matrix ignores the rank cutoff entirely; normalize it
		// out of the key so requests differing only in K share one entry.
		keyK = 0
	}
	v, err := e.cache.get(e.key(te, req.Tree, "%s/%s/%d", req.Op, source, keyK), func() (any, error) {
		p, groups, err := e.groupMatrix(te, req.Tree, source, k)
		if err != nil {
			return nil, err
		}
		if req.Op == OpAggregateMean {
			mean := aggregate.Mean(p)
			return aggResult{
				groups:   groups,
				counts:   mean,
				expected: aggregate.ExpectedSqDist(p, mean),
				method:   "mean",
			}, nil
		}
		// Median: exact enumeration walks the product of the rows' support
		// sizes (up to 13! even at 12 tuples with wide rank supports), so
		// the true median is served only when that product is small and
		// every other instance gets the deterministic 4-approximation of
		// Corollary 2.
		if aggregateExactFeasible(p) {
			r, exp, err := aggregate.ExactMedian(p)
			if err != nil {
				return nil, err
			}
			return aggResult{groups: groups, median: r, expected: exp, method: "exact"}, nil
		}
		r, exp, err := aggregate.MedianApprox(p)
		if err != nil {
			return nil, err
		}
		return aggResult{groups: groups, median: r, expected: exp, method: "closest-possible"}, nil
	})
	if err != nil {
		return err
	}
	res := v.(aggResult)
	resp.Groups = append([]string(nil), res.groups...)
	resp.GroupCounts = append([]float64(nil), res.counts...)
	resp.GroupMedian = append([]int(nil), res.median...)
	resp.Expected = ptr(res.expected)
	resp.Method = res.method
	return nil
}

// maxAggregateExactPaths bounds the assignment enumeration of the exact
// group-by median: the search visits at most the product of the rows'
// support sizes, which the 12-tuple limit alone does not keep small.
const maxAggregateExactPaths = 1 << 16

// aggregateExactFeasible reports whether the exact median search is
// affordable: few enough tuples and a small product of support sizes.
func aggregateExactFeasible(p [][]float64) bool {
	if len(p) > aggregate.MaxExactTuples {
		return false
	}
	paths := 1
	for _, row := range p {
		nz := 0
		for _, v := range row {
			if v > 0 {
				nz++
			}
		}
		if nz > 1 {
			paths *= nz
		}
		if paths > maxAggregateExactPaths {
			return false
		}
	}
	return true
}

// groupMatrix builds the tuple-group probability matrix of an aggregate
// request: per-label marginals for the label source, the (cached) rank
// distribution padded with an "unranked" column for the rank source.
func (e *Engine) groupMatrix(te *treeEntry, name, source string, k int) ([][]float64, []string, error) {
	if source == GroupByLabel {
		return aggregate.MatrixFromTree(te.tree)
	}
	rd, err := e.ranksAtLeast(te, name, k)
	if err != nil {
		return nil, nil, err
	}
	keys := te.tree.Keys()
	groups := make([]string, k+1)
	for j := 0; j < k; j++ {
		groups[j] = fmt.Sprintf("rank-%d", j+1)
	}
	groups[k] = "unranked"
	p := make([][]float64, len(keys))
	for i, key := range keys {
		row := make([]float64, k+1)
		dist := rd.Dist(key)
		sum := 0.0
		for j := 0; j < k && j < len(dist); j++ {
			if dist[j] > 0 {
				row[j] = dist[j]
				sum += dist[j]
			}
		}
		// The remaining mass — ranked beyond k or absent — lands in the last
		// column; clamp float noise so the row stays on the simplex.
		rest := 1 - sum
		if rest < 0 {
			rest = 0
		}
		row[k] = rest
		p[i] = row
	}
	return p, groups, nil
}

// rankingResult is the cached answer of OpRankingConsensus.
type rankingResult struct {
	ranking  []string
	expected float64
	method   string
}

// errRankingEnumeration marks an exact consensus-ranking request whose
// tree exceeds the enumeration cap; auto-mode dispatch catches it and
// falls back to the sampling backend.
var errRankingEnumeration = errors.New("tree is too large to enumerate for an exact consensus ranking")

// rankingConsensus answers OpRankingConsensus on the exact backend: the
// full possible-world distribution is enumerated and the chosen
// aggregation rule runs over the induced rankings weighted by world
// probability.  Expected is the achieved expected distance, normalized by
// the metric's maximum so exact and sampled answers share a scale.
func (e *Engine) rankingConsensus(resp *Response, te *treeEntry, req Request) error {
	method, _ := normalizeMethod(req.Method) // validate() already vetted it
	if method == MethodKemeny && len(te.tree.Keys()) > rankagg.MaxKemenyExact {
		// Refuse before enumerating the world distribution: no sample or
		// world set makes the exact DP feasible.
		return kemenyLimitError(len(te.tree.Keys()))
	}
	v, err := e.cache.get(e.key(te, req.Tree, "ranking-consensus/%s", method), func() (any, error) {
		rw, err := e.worldRankings(te, req.Tree)
		if err != nil {
			return nil, err
		}
		ranking, expected, err := aggregateRankings(te.tree.Keys(), method, rw.rankings, rw.weights)
		if err != nil {
			return nil, err
		}
		return rankingResult{ranking: ranking, expected: expected, method: method + "/enumerated"}, nil
	})
	if err != nil {
		return err
	}
	res := v.(rankingResult)
	resp.Ranking = append([]string(nil), res.ranking...)
	resp.Expected = ptr(res.expected)
	resp.Method = res.method
	return nil
}

// rankedWorlds is the cached enumerated world-ranking distribution: the
// expensive intermediate every exact aggregation method shares.
type rankedWorlds struct {
	rankings [][]int
	weights  []float64
}

// worldRankings returns the (cached) enumerated possible-world ranking
// distribution of the tree, so footrule/Kemeny/Borda queries against the
// same tree enumerate once and pay only their own aggregation step.
func (e *Engine) worldRankings(te *treeEntry, name string) (*rankedWorlds, error) {
	v, err := e.cache.get(e.key(te, name, "ranking-worlds"), func() (any, error) {
		worlds, err := exact.Enumerate(te.tree, maxRankingWorlds)
		if err != nil {
			return nil, fmt.Errorf("engine: tree %q %w (%v); use mode approx", name, errRankingEnumeration, err)
		}
		rw := &rankedWorlds{
			rankings: make([][]int, len(worlds)),
			weights:  make([]float64, len(worlds)),
		}
		for i, ww := range worlds {
			rw.rankings[i] = worldRanking(te.tree, ww.World)
			rw.weights[i] = ww.Prob
		}
		return rw, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*rankedWorlds), nil
}

// worldRanking is the full ranking a possible world induces over the
// tree's sorted keys: present tuples first, ordered by decreasing score of
// their chosen alternative, then absent tuples in key order (the paper's
// convention that non-answers rank below every answer).  The result is a
// permutation of key indices, rankings[pos] = key index.
func worldRanking(t *andxor.Tree, w *types.World) []int {
	keys := t.Keys()
	type present struct {
		idx   int
		score float64
	}
	var in []present
	var out []int
	for i, key := range keys {
		if l, ok := w.Lookup(key); ok {
			in = append(in, present{idx: i, score: l.Score})
		} else {
			out = append(out, i)
		}
	}
	sort.Slice(in, func(a, b int) bool {
		if in[a].score != in[b].score {
			return in[a].score > in[b].score
		}
		return in[a].idx < in[b].idx
	})
	ranking := make([]int, 0, len(keys))
	for _, p := range in {
		ranking = append(ranking, p.idx)
	}
	return append(ranking, out...)
}

// aggregateRankings runs the chosen aggregation rule over a weighted
// ranking distribution and maps the winning permutation back to tuple
// keys.  The reported expectation is normalized by the metric's maximum
// distance between two n-item rankings (footrule for the footrule and
// Borda rules, Kendall for Kemeny), so it always lives in [0, 1].
func aggregateRankings(keys []string, method string, rankings [][]int, weights []float64) ([]string, float64, error) {
	n := len(keys)
	var perm []int
	var expected float64
	var err error
	switch method {
	case MethodKemeny:
		if n > rankagg.MaxKemenyExact {
			return nil, 0, kemenyLimitError(n)
		}
		perm, expected, err = rankagg.KemenyExactWeighted(rankings, weights)
		expected = normalizeByMax(expected, maxKendall(n))
	case MethodBorda:
		perm, err = rankagg.BordaWeighted(rankings, weights)
		if err == nil {
			expected = normalizeByMax(rankagg.FootruleScoreWeighted(perm, rankings, weights), maxFootrule(n))
		}
	default: // MethodFootrule
		perm, expected, err = rankagg.FootruleAggregateWeighted(rankings, weights)
		expected = normalizeByMax(expected, maxFootrule(n))
	}
	if err != nil {
		return nil, 0, err
	}
	out := make([]string, n)
	for pos, idx := range perm {
		out[pos] = keys[idx]
	}
	return out, expected, nil
}

// maxFootrule / maxKendall are the maximum distances between two rankings
// of n items, the normalization constants of the served expectations.
func maxFootrule(n int) float64 { return float64(n * n / 2) }
func maxKendall(n int) float64  { return float64(n*(n-1)) / 2 }

func normalizeByMax(v, max float64) float64 {
	if max == 0 {
		return 0
	}
	return v / max
}

// maxRankingSamples bounds the worlds one sampled consensus-ranking
// request may draw: every sample costs a world draw plus an O(m log m)
// sort, so the generic approx cap would be far too generous here.
const maxRankingSamples = 1 << 17

// maxRankingWork bounds the aggregation cost of a sampled consensus
// ranking over m tuples: the footrule cost matrix is O(samples * m^2) and
// the assignment solve O(m^3), neither of which checks the context, so
// the work is capped to keep worst-case requests in the seconds range.
const maxRankingWork = 2 << 30

// sampledRanking is the cached answer of a sampled OpRankingConsensus.
type sampledRanking struct {
	ranking  []string
	expected float64
	radius   float64
	samples  int
}

// sampleRankingConsensus is the Monte-Carlo backend of OpRankingConsensus.
// It is two-phase, like approx.MeanSymDiffTopK: phase one draws a
// Hoeffding-sufficient number of worlds and aggregates their induced
// rankings with equal weights (the returned ranking is the rule's optimum
// over that empirical distribution); phase two draws the same number of
// fresh worlds and estimates the returned ranking's normalized expected
// distance on them.  The held-out estimate is what Expected reports —
// evaluating on the selection sample would be biased low (the minimizer of
// an empirical objective underestimates its true value), whereas the
// fresh-sample mean of a now-fixed candidate satisfies the plain Hoeffding
// (epsilon, delta) contract the radius claims.
func sampleRankingConsensus(ctx context.Context, t *andxor.Tree, method string, plan approxPlan) (any, error) {
	keys := t.Keys()
	m := len(keys)
	if method == MethodKemeny && m > rankagg.MaxKemenyExact {
		// Doomed regardless of how many worlds we draw; refuse before the
		// sampling pass, not after it.
		return nil, kemenyLimitError(m)
	}
	n, err := approx.FixedSamples(plan.budget, maxRankingSamples)
	if err != nil {
		return nil, err
	}
	// Aggregation cost depends on the rule: footrule (and Kemeny) builds
	// an O(samples * m^2) cost matrix and solves an O(m^3) assignment,
	// while Borda is a single O(samples * m) scoring pass — so very large
	// trees remain servable via Borda.
	work := float64(n) * float64(m)
	if method != MethodBorda {
		work = float64(n)*float64(m)*float64(m) + float64(m)*float64(m)*float64(m)
	}
	if work > maxRankingWork {
		return nil, fmt.Errorf("engine: sampled consensus ranking over %d tuples at this budget needs ~%.0g aggregation steps (limit %d); loosen epsilon/delta, use method borda, or query a smaller tree", m, work, maxRankingWork)
	}
	rng := rand.New(rand.NewSource(plan.seed))
	rankings := make([][]int, n)
	weights := make([]float64, n)
	w := 1 / float64(n)
	for i := 0; i < n; i++ {
		if i%1024 == 0 && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		rankings[i] = worldRanking(t, t.Sample(rng))
		weights[i] = w
	}
	ranking, _, err := aggregateRankings(keys, method, rankings, weights)
	if err != nil {
		return nil, err
	}
	// Held-out objective estimate: fresh draws from the continuing RNG
	// stream are independent of the selection sample above.
	perm := make([]int, m)
	idx := make(map[string]int, m)
	for i, key := range keys {
		idx[key] = i
	}
	for pos, key := range ranking {
		perm[pos] = idx[key]
	}
	dist, max := rankagg.Footrule, maxFootrule(m)
	if method == MethodKemeny {
		dist, max = rankagg.KendallTau, maxKendall(m)
	}
	sum := 0.0
	for i := 0; i < n; i++ {
		if i%1024 == 0 && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		sum += normalizeByMax(float64(dist(perm, worldRanking(t, t.Sample(rng)))), max)
	}
	// Samples reports the n held-out draws the radius and Expected are
	// computed from (the phase-one selection draws back the ranking, not
	// the estimate), so (samples, delta) -> radius stays consistent with
	// every other sampled op.
	return sampledRanking{
		ranking:  ranking,
		expected: sum / float64(n),
		radius:   approx.FixedRadius(n, plan.budget),
		samples:  n,
	}, nil
}

// kemenyLimitError is the shared refusal for Kemeny aggregation beyond
// the exact-DP limit, raised before any enumeration or sampling work.
func kemenyLimitError(m int) error {
	return fmt.Errorf("engine: exact Kemeny aggregation is limited to %d tuples, got %d; use method footrule (its 2-approximation)", rankagg.MaxKemenyExact, m)
}

// spjResult is the cached answer of OpSPJEval.
type spjResult struct {
	prob   float64
	method string
}

// MaxSPJBindings bounds the satisfying-assignment enumeration of the
// lineage fallback: its breadth is at most the product of the per-subgoal
// row counts, so the bound keeps a valid-but-adversarial self-join query
// (up to 512^8 bindings under the structural limits alone) from occupying
// a worker for hours.  Safe plans are polynomial and exempt.  Exported as
// part of the wire contract: generators of unsafe queries (workloadgen
// -kind spj -unsafe) size their tables against it.
const MaxSPJBindings = 1 << 12

// spjEval answers OpSPJEval: the posted boolean conjunctive query is
// evaluated extensionally when a safe plan exists (hierarchical and
// self-join free, the Dalvi-Suciu dichotomy) and intensionally over its
// DNF lineage otherwise — the same machinery the Section 4.1 MAX-2-SAT
// reduction exercises.  Both evaluators run under the request context, so
// a disconnecting client aborts the computation instead of leaving it
// wedged in a pool slot.  No registered tree is involved, so results are
// cached under a content hash of the payload instead of a tree
// generation (the key's "spj/" prefix cannot collide with tree
// namespaces, which always contain '@').
func (e *Engine) spjEval(ctx context.Context, resp *Response, req Request) error {
	v, err := e.getSampled(ctx, fmt.Sprintf("spj/%x", req.SPJ.fingerprint()), func() (any, error) {
		// Compiling deep-copies the query and every row; do it only on a
		// cache miss so warm requests pay the fingerprint hash alone.
		q, db := req.SPJ.compile()
		if !q.HasSelfJoin() && q.IsHierarchical() {
			p, err := spj.EvalSafeContext(ctx, q, db)
			if err != nil {
				return nil, err
			}
			return spjResult{prob: p, method: "safe-plan"}, nil
		}
		bindings := 1
		for _, sg := range q.Subgoals {
			if t, ok := db[sg.Relation]; ok && len(t.Rows) > 0 {
				bindings *= len(t.Rows)
			}
			if bindings > MaxSPJBindings {
				return nil, fmt.Errorf("engine: unsafe spj query may enumerate more than %d lineage bindings; shrink the tables or the query", MaxSPJBindings)
			}
		}
		p, err := spj.EvalLineageContext(ctx, q, db)
		if err != nil {
			return nil, err
		}
		return spjResult{prob: p, method: "lineage"}, nil
	})
	if err != nil {
		return err
	}
	res := v.(spjResult)
	resp.Value = ptr(res.prob)
	resp.Method = res.method
	return nil
}

// compile lowers the wire form of an SPJ request to the spj package types.
func (s *SPJRequest) compile() (*spj.Query, spj.Database) {
	q := &spj.Query{Subgoals: make([]spj.Subgoal, len(s.Query))}
	for i, sg := range s.Query {
		args := make([]spj.Term, len(sg.Args))
		for j, t := range sg.Args {
			if t.Var != "" {
				args[j] = spj.Var(t.Var)
			} else {
				args[j] = spj.Const(t.Const)
			}
		}
		q.Subgoals[i] = spj.Subgoal{Relation: sg.Relation, Args: args}
	}
	db := spj.Database{}
	for name, rows := range s.Tables {
		t := &spj.Table{Name: name, Rows: make([]spj.TableRow, len(rows))}
		for i, r := range rows {
			t.Rows[i] = spj.TableRow{Vals: append([]string(nil), r.Vals...), Prob: r.Prob}
		}
		db[name] = t
	}
	return q, db
}

// fingerprint is a content hash of the SPJ payload, the cache identity of
// an OpSPJEval request.  The encoding is positionally unambiguous: every
// string is length-prefixed and every list is count-prefixed, so a parser
// could reconstruct the payload from the hashed byte stream — distinct
// payloads therefore hash distinct streams, and the SHA-256 digest makes
// an accidental stream collision implausible.
func (s *SPJRequest) fingerprint() []byte {
	h := sha256.New()
	str := func(v string) { fmt.Fprintf(h, "%d:%s", len(v), v) }
	num := func(n int) { fmt.Fprintf(h, "#%d;", n) }
	num(len(s.Query))
	for _, sg := range s.Query {
		str(sg.Relation)
		num(len(sg.Args))
		for _, t := range sg.Args {
			if t.Var != "" {
				num(0)
				str(t.Var)
			} else {
				num(1)
				str(t.Const)
			}
		}
	}
	names := make([]string, 0, len(s.Tables))
	for name := range s.Tables {
		names = append(names, name)
	}
	sort.Strings(names)
	num(len(names))
	for _, name := range names {
		str(name)
		rows := s.Tables[name]
		num(len(rows))
		for _, r := range rows {
			num(len(r.Vals))
			for _, v := range r.Vals {
				str(v)
			}
			str(strconv.FormatFloat(r.Prob, 'x', -1, 64))
		}
	}
	return h.Sum(nil)
}
