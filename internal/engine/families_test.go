package engine

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"consensus/internal/aggregate"
	"consensus/internal/andxor"
	"consensus/internal/cluster"
	"consensus/internal/exact"
	"consensus/internal/genfunc"
	"consensus/internal/rankagg"
	"consensus/internal/setconsensus"
	"consensus/internal/spj"
	"consensus/internal/types"
	"consensus/internal/workload"
)

// labeledTotal builds a labeled BID tree whose blocks sum to probability
// exactly 1 (the Section 6.1 attribute-uncertainty model the label-source
// aggregate ops require).
func labeledTotal(rng *rand.Rand, nBlocks, nAlts, nLabels int) *andxor.Tree {
	blocks := make([]andxor.Block, nBlocks)
	score := 1.0
	for i := range blocks {
		alts := make([]types.Leaf, nAlts)
		probs := make([]float64, nAlts)
		sum := 0.0
		for j := range alts {
			alts[j] = types.Leaf{
				Key:   fmt.Sprintf("t%d", i+1),
				Score: score,
				Label: fmt.Sprintf("g%d", 1+rng.Intn(nLabels)),
			}
			score++
			probs[j] = rng.Float64() + 1e-3
			sum += probs[j]
		}
		for j := range probs {
			probs[j] /= sum
		}
		blocks[i] = andxor.Block{Alternatives: alts, Probs: probs}
	}
	tr, err := andxor.BID(blocks)
	if err != nil {
		panic(err)
	}
	return tr
}

func TestJaccardWorldsMatchLibrary(t *testing.T) {
	e := New(Options{})
	indep := workload.Independent(rand.New(rand.NewSource(3)), 12)
	bid := workload.BID(rand.New(rand.NewSource(4)), 10, 3)
	if err := e.Register("indep", indep); err != nil {
		t.Fatal(err)
	}
	if err := e.Register("bid", bid); err != nil {
		t.Fatal(err)
	}

	resp := mustOk(t, e.Query(Request{Tree: "indep", Op: OpMeanWorldJaccard}))
	wantW, wantE, err := setconsensus.MeanWorldJaccard(indep)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resp.World, wantW.Leaves()) {
		t.Errorf("mean jaccard world: engine %v, library %v", resp.World, wantW.Leaves())
	}
	if resp.Expected == nil || math.Abs(*resp.Expected-wantE) > 1e-12 {
		t.Errorf("mean jaccard expected: engine %v, library %v", resp.Expected, wantE)
	}

	resp = mustOk(t, e.Query(Request{Tree: "bid", Op: OpMedianWorldJaccard}))
	wantW, wantE, err = setconsensus.MedianWorldJaccard(bid)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resp.World, wantW.Leaves()) {
		t.Errorf("median jaccard world: engine %v, library %v", resp.World, wantW.Leaves())
	}
	if resp.Expected == nil || math.Abs(*resp.Expected-wantE) > 1e-12 {
		t.Errorf("median jaccard expected: engine %v, library %v", resp.Expected, wantE)
	}

	// The mean-world search requires tuple independence: a BID tree is a
	// semantic error, not a panic or a fabricated answer.
	if resp := e.Query(Request{Tree: "bid", Op: OpMeanWorldJaccard}); resp.Ok() {
		t.Error("mean-world-jaccard on a BID tree should fail")
	}
}

func TestClusteringMeanExactOnSmallInstances(t *testing.T) {
	e := New(Options{})
	tr := workload.Labeled(rand.New(rand.NewSource(5)), 7, 2, 3)
	if err := e.Register("db", tr); err != nil {
		t.Fatal(err)
	}
	resp := mustOk(t, e.Query(Request{Tree: "db", Op: OpClusteringMean}))
	if resp.Method != "exact" {
		t.Fatalf("method %q, want exact (n=7 <= MaxExact)", resp.Method)
	}
	ins := cluster.FromTree(tr)
	c, wantE, err := ins.Exact()
	if err != nil {
		t.Fatal(err)
	}
	if resp.Expected == nil || math.Abs(*resp.Expected-wantE) > 1e-12 {
		t.Errorf("expected distance: engine %v, library %v", resp.Expected, wantE)
	}
	if want := clusterKeys(ins, c); !reflect.DeepEqual(resp.Clusters, want) {
		t.Errorf("clusters: engine %v, library %v", resp.Clusters, want)
	}
}

func TestClusteringMeanPivotMatchesLibrary(t *testing.T) {
	e := New(Options{})
	tr := workload.Labeled(rand.New(rand.NewSource(6)), 18, 2, 4)
	if err := e.Register("db", tr); err != nil {
		t.Fatal(err)
	}
	resp := mustOk(t, e.Query(Request{Tree: "db", Op: OpClusteringMean, Restarts: 10, Seed: 7}))
	if resp.Method != "cc-pivot" {
		t.Fatalf("method %q, want cc-pivot (n=18 > MaxExact)", resp.Method)
	}
	ins := cluster.FromTree(tr)
	c, wantE := ins.CCPivotBest(rand.New(rand.NewSource(7)), 10)
	if resp.Expected == nil || math.Abs(*resp.Expected-wantE) > 1e-12 {
		t.Errorf("expected distance: engine %v, library %v", resp.Expected, wantE)
	}
	if want := clusterKeys(ins, c); !reflect.DeepEqual(resp.Clusters, want) {
		t.Errorf("clusters: engine %v, library %v", resp.Clusters, want)
	}
}

func TestAggregateLabelMatchesLibrary(t *testing.T) {
	e := New(Options{})
	tr := labeledTotal(rand.New(rand.NewSource(8)), 9, 3, 3)
	if err := e.Register("db", tr); err != nil {
		t.Fatal(err)
	}
	p, groups, err := aggregate.MatrixFromTree(tr)
	if err != nil {
		t.Fatal(err)
	}

	resp := mustOk(t, e.Query(Request{Tree: "db", Op: OpAggregateMean, GroupBy: GroupByLabel}))
	if !reflect.DeepEqual(resp.Groups, groups) {
		t.Errorf("groups: engine %v, library %v", resp.Groups, groups)
	}
	wantMean := aggregate.Mean(p)
	if len(resp.GroupCounts) != len(wantMean) {
		t.Fatalf("mean counts: engine %v, library %v", resp.GroupCounts, wantMean)
	}
	for j := range wantMean {
		if math.Abs(resp.GroupCounts[j]-wantMean[j]) > 1e-12 {
			t.Errorf("mean count[%d]: engine %v, library %v", j, resp.GroupCounts[j], wantMean[j])
		}
	}

	resp = mustOk(t, e.Query(Request{Tree: "db", Op: OpAggregateMedian, GroupBy: GroupByLabel}))
	wantMedian, wantE, err := aggregate.ExactMedian(p)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Method != "exact" {
		t.Fatalf("method %q, want exact (9 tuples <= 12)", resp.Method)
	}
	if !reflect.DeepEqual(resp.GroupMedian, wantMedian) {
		t.Errorf("median counts: engine %v, library %v", resp.GroupMedian, wantMedian)
	}
	if resp.Expected == nil || math.Abs(*resp.Expected-wantE) > 1e-12 {
		t.Errorf("median expected: engine %v, library %v", resp.Expected, wantE)
	}
}

// rankMatrix mirrors the engine's rank-source matrix derivation for the
// cross-check below.
func rankMatrix(t *testing.T, tr *andxor.Tree, k int) [][]float64 {
	t.Helper()
	rd, err := genfunc.Ranks(tr, k)
	if err != nil {
		t.Fatal(err)
	}
	keys := tr.Keys()
	p := make([][]float64, len(keys))
	for i, key := range keys {
		row := make([]float64, k+1)
		sum := 0.0
		for j, v := range rd.Dist(key) {
			if j < k && v > 0 {
				row[j] = v
				sum += v
			}
		}
		if rest := 1 - sum; rest > 0 {
			row[k] = rest
		}
		p[i] = row
	}
	return p
}

func TestAggregateRankMatchesLibrary(t *testing.T) {
	e := New(Options{})
	tr := workload.Independent(rand.New(rand.NewSource(9)), 6)
	if err := e.Register("db", tr); err != nil {
		t.Fatal(err)
	}
	const k = 3
	p := rankMatrix(t, tr, k)

	resp := mustOk(t, e.Query(Request{Tree: "db", Op: OpAggregateMean, K: k}))
	wantGroups := []string{"rank-1", "rank-2", "rank-3", "unranked"}
	if !reflect.DeepEqual(resp.Groups, wantGroups) {
		t.Errorf("groups: engine %v, want %v", resp.Groups, wantGroups)
	}
	wantMean := aggregate.Mean(p)
	for j := range wantMean {
		if math.Abs(resp.GroupCounts[j]-wantMean[j]) > 1e-9 {
			t.Errorf("mean count[%d]: engine %v, library %v", j, resp.GroupCounts[j], wantMean[j])
		}
	}

	resp = mustOk(t, e.Query(Request{Tree: "db", Op: OpAggregateMedian, K: k}))
	wantMedian, _, err := aggregate.ExactMedian(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resp.GroupMedian, wantMedian) {
		t.Errorf("median counts: engine %v, library %v", resp.GroupMedian, wantMedian)
	}
}

func TestRankingConsensusMatchesEnumeration(t *testing.T) {
	e := New(Options{})
	tr := workload.BID(rand.New(rand.NewSource(10)), 5, 2)
	if err := e.Register("db", tr); err != nil {
		t.Fatal(err)
	}
	worlds, err := exact.Enumerate(tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	rankings := make([][]int, len(worlds))
	weights := make([]float64, len(worlds))
	for i, ww := range worlds {
		rankings[i] = worldRanking(tr, ww.World)
		weights[i] = ww.Prob
	}
	keys := tr.Keys()
	n := len(keys)

	for _, method := range []string{"", MethodFootrule, MethodKemeny, MethodBorda} {
		resp := mustOk(t, e.Query(Request{Tree: "db", Op: OpRankingConsensus, Method: method}))
		canonical, _ := normalizeMethod(method)
		if want := canonical + "/enumerated"; resp.Method != want {
			t.Errorf("method %q: served method %q, want %q", method, resp.Method, want)
		}
		var wantPerm []int
		var wantE float64
		switch canonical {
		case MethodKemeny:
			wantPerm, wantE, err = rankagg.KemenyExactWeighted(rankings, weights)
			wantE /= maxKendall(n)
		case MethodBorda:
			wantPerm, err = rankagg.BordaWeighted(rankings, weights)
			wantE = rankagg.FootruleScoreWeighted(wantPerm, rankings, weights) / maxFootrule(n)
		default:
			wantPerm, wantE, err = rankagg.FootruleAggregateWeighted(rankings, weights)
			wantE /= maxFootrule(n)
		}
		if err != nil {
			t.Fatal(err)
		}
		want := make([]string, n)
		for pos, idx := range wantPerm {
			want[pos] = keys[idx]
		}
		if !reflect.DeepEqual(resp.Ranking, want) {
			t.Errorf("method %q: ranking %v, library %v", method, resp.Ranking, want)
		}
		if resp.Expected == nil || math.Abs(*resp.Expected-wantE) > 1e-12 {
			t.Errorf("method %q: expected %v, library %v", method, resp.Expected, wantE)
		}
	}
	// All four requests (three distinct methods) share one enumerated
	// world-ranking intermediate: 1 enumeration + 3 method entries.
	if got := e.Stats().Computes; got != 4 {
		t.Errorf("methods performed %d computes, want 4 (shared enumeration)", got)
	}
}

func TestRankingConsensusSampled(t *testing.T) {
	e := New(Options{})
	tr := workload.BID(rand.New(rand.NewSource(11)), 12, 2)
	if err := e.Register("db", tr); err != nil {
		t.Fatal(err)
	}
	req := Request{
		Tree: "db", Op: OpRankingConsensus, Mode: ModeApprox,
		Epsilon: 0.1, Delta: 0.05, Seed: 3,
	}
	resp := mustOk(t, e.Query(req))
	if resp.Method != "footrule/sampled" {
		t.Fatalf("method %q, want footrule/sampled", resp.Method)
	}
	if resp.Approx == nil || resp.Approx.Backend != "approx" || resp.Approx.Samples < 1 {
		t.Fatalf("approx info missing or wrong: %+v", resp.Approx)
	}
	if resp.Approx.Radius > req.Epsilon {
		t.Errorf("radius %v exceeds epsilon %v", resp.Approx.Radius, req.Epsilon)
	}
	// The ranking is a permutation of the tuple keys.
	seen := map[string]bool{}
	for _, key := range resp.Ranking {
		seen[key] = true
	}
	if len(resp.Ranking) != len(tr.Keys()) || len(seen) != len(tr.Keys()) {
		t.Fatalf("ranking %v is not a permutation of the %d keys", resp.Ranking, len(tr.Keys()))
	}
	// The sampled objective should land near the enumerated one (both
	// deterministic here: fixed seed, fixed sample count).
	exactResp := mustOk(t, e.Query(Request{Tree: "db", Op: OpRankingConsensus}))
	if diff := math.Abs(*resp.Expected - *exactResp.Expected); diff > resp.Approx.Radius+0.05 {
		t.Errorf("sampled expected %v vs exact %v: diff %v > radius %v + slack",
			*resp.Expected, *exactResp.Expected, diff, resp.Approx.Radius)
	}
	// Identical requests are served from cache and stay bit-identical.
	again := mustOk(t, e.Query(req))
	if !reflect.DeepEqual(again.Ranking, resp.Ranking) || *again.Expected != *resp.Expected {
		t.Error("repeated sampled request disagrees with the cached answer")
	}
}

func TestRankingConsensusAutoPicksBackendBySize(t *testing.T) {
	e := New(Options{})
	small := workload.BID(rand.New(rand.NewSource(12)), 5, 2)
	large := workload.BID(rand.New(rand.NewSource(13)), 60, 2)
	if err := e.Register("small", small); err != nil {
		t.Fatal(err)
	}
	if err := e.Register("large", large); err != nil {
		t.Fatal(err)
	}
	resp := mustOk(t, e.Query(Request{Tree: "small", Op: OpRankingConsensus, Mode: ModeAuto}))
	if resp.Approx == nil || resp.Approx.Backend != "exact" || !strings.HasSuffix(resp.Method, "/enumerated") {
		t.Errorf("small tree: backend %+v method %q, want exact/enumerated", resp.Approx, resp.Method)
	}
	resp = mustOk(t, e.Query(Request{Tree: "large", Op: OpRankingConsensus, Mode: ModeAuto}))
	if resp.Approx == nil || resp.Approx.Backend != "approx" || !strings.HasSuffix(resp.Method, "/sampled") {
		t.Errorf("large tree: backend %+v method %q, want approx/sampled", resp.Approx, resp.Method)
	}
}

// spjFixture returns a two-table database and a safe query over it, plus
// the non-hierarchical H0 extension that forces the lineage fallback.
func spjFixture() (*SPJRequest, *SPJRequest) {
	tables := map[string][]SPJRow{
		"R": {
			{Vals: []string{"a"}, Prob: 0.5},
			{Vals: []string{"b"}, Prob: 0.7},
		},
		"S": {
			{Vals: []string{"a", "x"}, Prob: 0.4},
			{Vals: []string{"b", "x"}, Prob: 0.9},
			{Vals: []string{"b", "y"}, Prob: 0.2},
		},
		"T": {
			{Vals: []string{"x"}, Prob: 0.6},
			{Vals: []string{"y"}, Prob: 0.3},
		},
	}
	safe := &SPJRequest{
		Query: []SPJSubgoal{
			{Relation: "R", Args: []SPJTerm{{Var: "x"}}},
			{Relation: "S", Args: []SPJTerm{{Var: "x"}, {Var: "y"}}},
		},
		Tables: tables,
	}
	unsafe := &SPJRequest{
		Query: []SPJSubgoal{
			{Relation: "R", Args: []SPJTerm{{Var: "x"}}},
			{Relation: "S", Args: []SPJTerm{{Var: "x"}, {Var: "y"}}},
			{Relation: "T", Args: []SPJTerm{{Var: "y"}}},
		},
		Tables: tables,
	}
	return safe, unsafe
}

func TestSPJEvalMatchesLibrary(t *testing.T) {
	e := New(Options{})
	safe, unsafe := spjFixture()

	resp := mustOk(t, e.Query(Request{Op: OpSPJEval, SPJ: safe}))
	if resp.Method != "safe-plan" {
		t.Fatalf("method %q, want safe-plan", resp.Method)
	}
	q, db := safe.compile()
	want, err := spj.EvalSafe(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Value == nil || math.Abs(*resp.Value-want) > 1e-12 {
		t.Errorf("safe query: engine %v, library %v", resp.Value, want)
	}

	resp = mustOk(t, e.Query(Request{Op: OpSPJEval, SPJ: unsafe}))
	if resp.Method != "lineage" {
		t.Fatalf("method %q, want lineage (H0 is not hierarchical)", resp.Method)
	}
	q, db = unsafe.compile()
	want, err = spj.EvalLineage(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Value == nil || math.Abs(*resp.Value-want) > 1e-12 {
		t.Errorf("unsafe query: engine %v, library %v", resp.Value, want)
	}
	// The two evaluators must agree with each other on the safe query too
	// (the safe plan is the whole point; this pins the cross-check).
	q, db = safe.compile()
	lineage, err := spj.EvalLineage(q, db)
	if err != nil {
		t.Fatal(err)
	}
	safeP, _ := spj.EvalSafe(q, db)
	if math.Abs(lineage-safeP) > 1e-12 {
		t.Errorf("safe plan %v disagrees with lineage %v", safeP, lineage)
	}

	// Forcing the sampling backend on an exact-only op is an error.
	if resp := e.Query(Request{Op: OpSPJEval, SPJ: safe, Mode: ModeApprox}); resp.Ok() {
		t.Error("spj-eval with mode approx should fail")
	}
	// Auto mode reports the exact backend.
	resp = mustOk(t, e.Query(Request{Op: OpSPJEval, SPJ: safe, Mode: ModeAuto}))
	if resp.Approx == nil || resp.Approx.Backend != "exact" {
		t.Errorf("auto spj-eval: approx info %+v, want exact backend", resp.Approx)
	}
}

func TestRankingConsensusAutoFallsBackWhenEnumerationOverflows(t *testing.T) {
	// 16 independent tuples are within the auto-mode leaf heuristic's
	// neighborhood but enumerate to 2^16 raw worlds, over the 2^14 cap;
	// auto mode must degrade to sampling instead of erroring, while a
	// forced exact request surfaces the enumeration error.
	e := New(Options{})
	tr := workload.Independent(rand.New(rand.NewSource(31)), 15)
	if err := e.Register("db", tr); err != nil {
		t.Fatal(err)
	}
	if resp := e.Query(Request{Tree: "db", Op: OpRankingConsensus}); resp.Ok() {
		t.Error("exact mode on a 2^15-world tree should report the enumeration error")
	}
	resp := mustOk(t, e.Query(Request{Tree: "db", Op: OpRankingConsensus, Mode: ModeAuto}))
	if resp.Approx == nil || resp.Approx.Backend != "approx" || !strings.HasSuffix(resp.Method, "/sampled") {
		t.Errorf("auto mode served %+v via %q, want sampled fallback", resp.Approx, resp.Method)
	}
}

func TestClusteringInstanceSharedAcrossRestartCounts(t *testing.T) {
	e := New(Options{})
	tr := workload.Labeled(rand.New(rand.NewSource(32)), 18, 2, 3)
	if err := e.Register("db", tr); err != nil {
		t.Fatal(err)
	}
	mustOk(t, e.Query(Request{Tree: "db", Op: OpClusteringMean, Restarts: 5}))
	base := e.Stats().Computes // instance + first clustering
	mustOk(t, e.Query(Request{Tree: "db", Op: OpClusteringMean, Restarts: 9}))
	// The second restart count recomputes only the pivot passes; the
	// co-clustering matrix entry is reused.
	if got := e.Stats().Computes - base; got != 1 {
		t.Errorf("second restart count performed %d computes, want 1 (clustering only)", got)
	}
}

func TestClusteringExactPathIgnoresRestartsAndSeedInCache(t *testing.T) {
	e := New(Options{})
	tr := workload.Labeled(rand.New(rand.NewSource(33)), 6, 2, 2) // <= MaxExact
	if err := e.Register("db", tr); err != nil {
		t.Fatal(err)
	}
	mustOk(t, e.Query(Request{Tree: "db", Op: OpClusteringMean, Restarts: 5, Seed: 1}))
	base := e.Stats().Computes
	// The exact search ignores restarts and seed; differing knobs must hit
	// the same entry instead of re-running the Bell-number search.
	mustOk(t, e.Query(Request{Tree: "db", Op: OpClusteringMean, Restarts: 9, Seed: 42}))
	if got := e.Stats().Computes - base; got != 0 {
		t.Errorf("exact clustering recomputed %d entries for different knobs, want 0", got)
	}
}

func TestSPJFingerprintUnambiguousFieldBoundaries(t *testing.T) {
	// Delimiter-bearing values that concatenate identically must not
	// collide: with an ambiguous encoding ("a," + "b" vs "a" + ",b") the
	// cache would serve one query's probability as the other's answer.
	base := func(vals []string) *SPJRequest {
		return &SPJRequest{
			Query: []SPJSubgoal{
				{Relation: "S", Args: []SPJTerm{{Var: "x"}}},
				{Relation: "R", Args: []SPJTerm{{Var: "x"}, {Var: "y"}}},
			},
			Tables: map[string][]SPJRow{
				"S": {{Vals: []string{"a,"}, Prob: 1}},
				"R": {{Vals: vals, Prob: 0.5}},
			},
		}
	}
	a, b := base([]string{"a,", "b"}), base([]string{"a", ",b"})
	if fmt.Sprintf("%x", a.fingerprint()) == fmt.Sprintf("%x", b.fingerprint()) {
		t.Fatal("distinct payloads share a fingerprint")
	}
	// Row boundaries must be encoded too: two rows cannot hash like one
	// longer row whose values mimic the row framing.
	two := &SPJRequest{
		Query: []SPJSubgoal{{Relation: "R", Args: []SPJTerm{{Var: "x"}}}},
		Tables: map[string][]SPJRow{"R": {
			{Vals: []string{"a"}, Prob: 0.5},
			{Vals: []string{"b"}, Prob: 0.25},
		}},
	}
	one := &SPJRequest{
		Query: []SPJSubgoal{{Relation: "R", Args: []SPJTerm{{Var: "x"}}}},
		Tables: map[string][]SPJRow{"R": {
			{Vals: []string{"a", "0x1p-01", "r", "b"}, Prob: 0.25},
		}},
	}
	if fmt.Sprintf("%x", two.fingerprint()) == fmt.Sprintf("%x", one.fingerprint()) {
		t.Fatal("row framing is ambiguous: two rows hash like one")
	}
	e := New(Options{})
	respA := mustOk(t, e.Query(Request{Op: OpSPJEval, SPJ: a}))
	respB := mustOk(t, e.Query(Request{Op: OpSPJEval, SPJ: b}))
	if *respA.Value != 0.5 {
		t.Errorf("joinable query served %v, want 0.5", *respA.Value)
	}
	if *respB.Value != 0 {
		t.Errorf("unjoinable query served %v, want 0 (cache must not alias)", *respB.Value)
	}
}

func TestSPJEvalBoundsUnsafeLineageEnumeration(t *testing.T) {
	// A structurally valid self-join — 3 subgoals over a 20-row table —
	// would enumerate 20^3 = 8000 bindings, over the lineage bound; the
	// engine must refuse it instead of grinding through the evaluation.
	rows := make([]SPJRow, 20)
	for i := range rows {
		rows[i] = SPJRow{Vals: []string{fmt.Sprintf("v%d", i)}, Prob: 0.5}
	}
	req := Request{Op: OpSPJEval, SPJ: &SPJRequest{
		Query: []SPJSubgoal{
			{Relation: "R", Args: []SPJTerm{{Var: "x1"}}},
			{Relation: "R", Args: []SPJTerm{{Var: "x2"}}},
			{Relation: "R", Args: []SPJTerm{{Var: "x3"}}},
		},
		Tables: map[string][]SPJRow{"R": rows},
	}}
	if err := req.Validate(); err != nil {
		t.Fatalf("structurally valid request rejected: %v", err)
	}
	resp := New(Options{}).Query(req)
	if resp.Ok() || !strings.Contains(resp.Error, "lineage bindings") {
		t.Fatalf("oversized self-join served %+v, want a lineage-bindings error", resp)
	}
}

func TestAggregateMedianFallsBackWhenExactSearchExplodes(t *testing.T) {
	// 12 tuples stay within the tuple-count limit, but the full-rank
	// matrix gives them ~13! support combinations; the engine must serve
	// the 4-approximation instead of the hours-long exact search.
	e := New(Options{})
	if err := e.Register("db", workload.Independent(rand.New(rand.NewSource(34)), 12)); err != nil {
		t.Fatal(err)
	}
	done := make(chan Response, 1)
	go func() { done <- e.Query(Request{Tree: "db", Op: OpAggregateMedian}) }()
	select {
	case resp := <-done:
		mustOk(t, resp)
		if resp.Method != "closest-possible" {
			t.Errorf("method %q, want closest-possible (exact search infeasible)", resp.Method)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("aggregate-median did not return promptly; exact-search gate missing")
	}
}

func TestKemenyLimitRefusedBeforeAnyWork(t *testing.T) {
	// 20 tuples exceed the exact-Kemeny DP limit; both backends must
	// refuse up front instead of enumerating or sampling first.
	e := New(Options{})
	if err := e.Register("db", workload.Independent(rand.New(rand.NewSource(36)), 20)); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"", ModeApprox, ModeAuto} {
		resp := e.Query(Request{Tree: "db", Op: OpRankingConsensus, Method: MethodKemeny, Mode: mode})
		if resp.Ok() || !strings.Contains(resp.Error, "footrule") {
			t.Errorf("mode %q: served %+v, want the Kemeny-limit error", mode, resp)
		}
	}
}

func TestSampledRankingConsensusBoundsAggregationWork(t *testing.T) {
	// Thousands of tuples with a tight budget would need ~1e11 footrule
	// aggregation steps; the request must be refused with budget advice.
	e := New(Options{})
	if err := e.Register("db", workload.BID(rand.New(rand.NewSource(35)), 3000, 1)); err != nil {
		t.Fatal(err)
	}
	resp := e.Query(Request{Tree: "db", Op: OpRankingConsensus, Mode: ModeApprox, Epsilon: 0.01, Delta: 0.01})
	if resp.Ok() || !strings.Contains(resp.Error, "loosen") {
		t.Fatalf("oversized sampled ranking served %+v, want a work-bound error", resp)
	}
}

func TestFamilyRequestValidation(t *testing.T) {
	e := New(Options{})
	if err := e.Register("db", workload.Labeled(rand.New(rand.NewSource(14)), 6, 2, 2)); err != nil {
		t.Fatal(err)
	}
	safe, _ := spjFixture()
	tooMany := &SPJRequest{Tables: safe.Tables}
	for i := 0; i < maxSPJSubgoals+1; i++ {
		tooMany.Query = append(tooMany.Query, SPJSubgoal{Relation: "R", Args: []SPJTerm{{Var: "x"}}})
	}
	for name, req := range map[string]Request{
		"bad method":          {Tree: "db", Op: OpRankingConsensus, Method: "bogus"},
		"bad group_by":        {Tree: "db", Op: OpAggregateMean, GroupBy: "bogus"},
		"negative k":          {Tree: "db", Op: OpAggregateMedian, K: -1},
		"negative restarts":   {Tree: "db", Op: OpClusteringMean, Restarts: -1},
		"huge restarts":       {Tree: "db", Op: OpClusteringMean, Restarts: maxRestarts + 1},
		"spj without payload": {Op: OpSPJEval},
		"spj empty query":     {Op: OpSPJEval, SPJ: &SPJRequest{Tables: safe.Tables}},
		"spj too many goals":  {Op: OpSPJEval, SPJ: tooMany},
		"spj bad term": {Op: OpSPJEval, SPJ: &SPJRequest{
			Query: []SPJSubgoal{{Relation: "R", Args: []SPJTerm{{}}}}, Tables: safe.Tables}},
		"spj bad prob": {Op: OpSPJEval, SPJ: &SPJRequest{
			Query:  []SPJSubgoal{{Relation: "R", Args: []SPJTerm{{Var: "x"}}}},
			Tables: map[string][]SPJRow{"R": {{Vals: []string{"a"}, Prob: 1.5}}}}},
		"missing tree": {Op: OpClusteringMean},
	} {
		if err := req.Validate(); err == nil {
			t.Errorf("%s: validate accepted %+v", name, req)
		}
	}
}
