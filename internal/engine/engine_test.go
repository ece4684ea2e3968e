package engine

import (
	"context"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"consensus/internal/andxor"
	"consensus/internal/genfunc"
	"consensus/internal/setconsensus"
	"consensus/internal/topk"
	"consensus/internal/workload"
)

func newTestEngine(t testing.TB, opts Options) (*Engine, *andxor.Tree) {
	t.Helper()
	e := New(opts)
	tr := workload.BID(rand.New(rand.NewSource(1)), 40, 2)
	if err := e.Register("db", tr); err != nil {
		t.Fatal(err)
	}
	return e, tr
}

func mustOk(t *testing.T, resp Response) Response {
	t.Helper()
	if !resp.Ok() {
		t.Fatalf("query %s/%s failed: %s", resp.Tree, resp.Op, resp.Error)
	}
	return resp
}

func TestTopKMeanMatchesLibrary(t *testing.T) {
	e, tr := newTestEngine(t, Options{})
	const k = 10

	for _, tc := range []struct {
		metric string
		want   func() topk.List
	}{
		{MetricSymDiff, func() topk.List { tau, _, _ := topk.MeanSymDiff(tr, k); return tau }},
		{MetricIntersection, func() topk.List { tau, _, _ := topk.MeanIntersection(tr, k); return tau }},
		{MetricFootrule, func() topk.List { tau, _, _, _ := topk.MeanFootrule(tr, k); return tau }},
		{MetricKendall, func() topk.List { tau, _ := topk.KendallViaFootrule(tr, k); return tau }},
		{"", func() topk.List { tau, _, _ := topk.MeanSymDiff(tr, k); return tau }},
		// The consensus.Metric.String() spelling is accepted too.
		{"symmetric-difference", func() topk.List { tau, _, _ := topk.MeanSymDiff(tr, k); return tau }},
	} {
		resp := mustOk(t, e.Query(Request{Tree: "db", Op: OpTopKMean, K: k, Metric: tc.metric}))
		if want := []string(tc.want()); !reflect.DeepEqual(resp.TopK, want) {
			t.Errorf("metric %q: engine %v, library %v", tc.metric, resp.TopK, want)
		}
	}
}

func TestTopKMedianMatchesLibrary(t *testing.T) {
	e, tr := newTestEngine(t, Options{})
	const k = 10
	want, _, err := topk.MedianSymDiff(tr, k)
	if err != nil {
		t.Fatal(err)
	}
	resp := mustOk(t, e.Query(Request{Tree: "db", Op: OpTopKMedian, K: k}))
	if !reflect.DeepEqual(resp.TopK, []string(want)) {
		t.Errorf("engine %v, library %v", resp.TopK, want)
	}
	if resp.Expected == nil || *resp.Expected <= 0 {
		t.Errorf("expected distance %v should be present and positive for this workload", resp.Expected)
	}
}

func TestRankDistMatchesLibrary(t *testing.T) {
	e, tr := newTestEngine(t, Options{})
	const k = 5
	rd, err := genfunc.Ranks(tr, k)
	if err != nil {
		t.Fatal(err)
	}
	resp := mustOk(t, e.Query(Request{Tree: "db", Op: OpRankDist, K: k}))
	if len(resp.Ranks) != len(rd.Keys()) {
		t.Fatalf("got %d keys, want %d", len(resp.Ranks), len(rd.Keys()))
	}
	for _, key := range rd.Keys() {
		if got, want := resp.Ranks[key], rd.Dist(key); !reflect.DeepEqual(got, want) {
			t.Errorf("ranks[%s] = %v, want %v", key, got, want)
		}
		if got, want := resp.TopKProb[key], rd.PrTopK(key); got != want {
			t.Errorf("topkProb[%s] = %v, want %v", key, got, want)
		}
	}

	// Key filtering restricts the output.
	sub := rd.Keys()[:3]
	resp = mustOk(t, e.Query(Request{Tree: "db", Op: OpRankDist, K: k, Keys: sub}))
	if len(resp.Ranks) != len(sub) {
		t.Fatalf("filtered ranks hold %d keys, want %d", len(resp.Ranks), len(sub))
	}

	// A key typo must error, not come back as probability zero.
	for _, op := range []Op{OpRankDist, OpMembership} {
		if r := e.Query(Request{Tree: "db", Op: op, K: k, Keys: []string{"no-such-key"}}); r.Ok() {
			t.Errorf("%s with an unknown key must fail, got %+v", op, r)
		}
	}
}

func TestWorldOpsMatchLibrary(t *testing.T) {
	e, tr := newTestEngine(t, Options{})

	mean := setconsensus.MeanWorldSymDiff(tr)
	resp := mustOk(t, e.Query(Request{Tree: "db", Op: OpMeanWorld}))
	if !reflect.DeepEqual(resp.World, mean.Leaves()) {
		t.Errorf("mean world %v, want %v", resp.World, mean.Leaves())
	}
	if want := setconsensus.ExpectedSymDiff(tr, mean); resp.Expected == nil || *resp.Expected != want {
		t.Errorf("expected distance %v, want %v", resp.Expected, want)
	}

	median := setconsensus.MedianWorldSymDiff(tr)
	resp = mustOk(t, e.Query(Request{Tree: "db", Op: OpMedianWorld}))
	if !reflect.DeepEqual(resp.World, median.Leaves()) {
		t.Errorf("median world %v, want %v", resp.World, median.Leaves())
	}

	sizes := genfunc.WorldSizeDist(tr)
	resp = mustOk(t, e.Query(Request{Tree: "db", Op: OpSizeDist}))
	if !reflect.DeepEqual(resp.SizeDist, []float64(sizes)) {
		t.Errorf("size dist mismatch")
	}

	marg := tr.KeyMarginals()
	resp = mustOk(t, e.Query(Request{Tree: "db", Op: OpMembership}))
	if !reflect.DeepEqual(resp.Probs, marg) {
		t.Errorf("membership mismatch")
	}

	w := tr.Sample(rand.New(rand.NewSource(2)))
	resp = mustOk(t, e.Query(Request{Tree: "db", Op: OpWorldProb, World: w.Leaves()}))
	if want := andxor.WorldProb(tr, w); resp.Value == nil || *resp.Value != want {
		t.Errorf("world prob %v, want %v", resp.Value, want)
	}
}

func TestRequestValidation(t *testing.T) {
	e, _ := newTestEngine(t, Options{})
	for _, req := range []Request{
		{},                                  // missing everything
		{Op: OpSizeDist},                    // missing tree
		{Tree: "db"},                        // missing op
		{Tree: "db", Op: "no-such-op"},      // unknown op
		{Tree: "db", Op: OpTopKMean},        // k = 0
		{Tree: "db", Op: OpRankDist, K: -1}, // negative k
		{Tree: "db", Op: OpTopKMean, K: 3, Metric: "no-such-metric"},
		{Tree: "nope", Op: OpSizeDist}, // unknown tree
	} {
		if resp := e.Query(req); resp.Ok() {
			t.Errorf("request %+v must fail", req)
		}
	}
}

func TestRegisterValidation(t *testing.T) {
	e := New(Options{})
	if err := e.Register("", nil); err == nil {
		t.Error("empty name must be rejected")
	}
	if err := e.Register("x", nil); err == nil {
		t.Error("nil tree must be rejected")
	}
	// '@' and '/' would alias the generation-namespaced cache keys.
	tr := workload.BID(rand.New(rand.NewSource(8)), 4, 2)
	for _, name := range []string{"x@2", "x/y", "x@2/y"} {
		if err := e.Register(name, tr); err == nil {
			t.Errorf("name %q must be rejected", name)
		}
	}
	if e.Unregister("ghost") {
		t.Error("unregistering an unknown tree must report false")
	}
}

func TestQueryContextCancellation(t *testing.T) {
	e, _ := newTestEngine(t, Options{Workers: 1})
	// Occupy the only pool slot so queries queue.
	e.sem <- struct{}{}
	defer func() { <-e.sem }()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	resp := e.QueryContext(ctx, Request{Tree: "db", Op: OpSizeDist})
	if resp.Ok() || !strings.Contains(resp.Error, "context canceled") {
		t.Fatalf("queued query must fail with the context error, got %+v", resp)
	}
	resps := e.DoContext(ctx, []Request{
		{Tree: "db", Op: OpSizeDist},
		{Tree: "db", Op: OpMembership},
	})
	for i, r := range resps {
		if r.Ok() || r.Tree != "db" {
			t.Errorf("batch response %d must carry a cancellation error, got %+v", i, r)
		}
	}
}

func TestReRegisterInvalidatesCache(t *testing.T) {
	e, _ := newTestEngine(t, Options{})
	req := Request{Tree: "db", Op: OpTopKMean, K: 5}
	first := mustOk(t, e.Query(req))

	// Replace "db" with a different tree; the old cached answer must not
	// be served.
	tr2 := workload.BID(rand.New(rand.NewSource(99)), 40, 2)
	if err := e.Register("db", tr2); err != nil {
		t.Fatal(err)
	}
	second := mustOk(t, e.Query(req))
	want, _, err := topk.MeanSymDiff(tr2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(second.TopK, []string(want)) {
		t.Errorf("after re-register: engine %v, library %v", second.TopK, want)
	}
	if reflect.DeepEqual(first.TopK, second.TopK) {
		t.Log("answers coincide by chance; invalidation still verified via library comparison")
	}
}

func TestUnregisteredTreeQueriesFail(t *testing.T) {
	e, _ := newTestEngine(t, Options{})
	e.Unregister("db")
	if resp := e.Query(Request{Tree: "db", Op: OpSizeDist}); resp.Ok() {
		t.Fatal("query against an unregistered tree must fail")
	}
	if got := e.Trees(); len(got) != 0 {
		t.Fatalf("trees = %v, want none", got)
	}
}

func TestCacheDedupAndHitCounters(t *testing.T) {
	e, _ := newTestEngine(t, Options{})
	req := Request{Tree: "db", Op: OpTopKMean, K: 10}
	mustOk(t, e.Query(req))
	s1 := e.Stats()
	for i := 0; i < 10; i++ {
		mustOk(t, e.Query(req))
	}
	s2 := e.Stats()
	if s2.Computes != s1.Computes {
		t.Errorf("repeated identical queries recomputed: %d -> %d computes", s1.Computes, s2.Computes)
	}
	if s2.Hits < s1.Hits+10 {
		t.Errorf("expected >= 10 additional hits, got %d -> %d", s1.Hits, s2.Hits)
	}
}

func TestKendallSharesFootruleEntry(t *testing.T) {
	e, _ := newTestEngine(t, Options{})
	foot := mustOk(t, e.Query(Request{Tree: "db", Op: OpTopKMean, K: 8, Metric: MetricFootrule}))
	before := e.Stats().Computes
	kend := mustOk(t, e.Query(Request{Tree: "db", Op: OpTopKMean, K: 8, Metric: MetricKendall}))
	if got := e.Stats().Computes; got != before {
		t.Errorf("kendall recomputed (%d -> %d computes); it must reuse the footrule entry", before, got)
	}
	if !reflect.DeepEqual(foot.TopK, kend.TopK) {
		t.Errorf("kendall answer %v differs from footrule %v", kend.TopK, foot.TopK)
	}
	// The footrule objective is not an expected Kendall distance; the
	// kendall response must not claim one.
	if foot.Expected == nil {
		t.Error("footrule response is missing its expected distance")
	}
	if kend.Expected != nil {
		t.Errorf("kendall response claims expected distance %v for the wrong metric", *kend.Expected)
	}
}

func TestUnregisterPurgesCache(t *testing.T) {
	e, _ := newTestEngine(t, Options{})
	mustOk(t, e.Query(Request{Tree: "db", Op: OpTopKMean, K: 5}))
	mustOk(t, e.Query(Request{Tree: "db", Op: OpSizeDist}))
	if e.Stats().CacheEntries == 0 {
		t.Fatal("queries left no cache entries")
	}
	e.Unregister("db")
	if got := e.Stats().CacheEntries; got != 0 {
		t.Errorf("unregister left %d dead cache entries resident", got)
	}
}

func TestReRegisterPurgesOldGeneration(t *testing.T) {
	e, _ := newTestEngine(t, Options{})
	mustOk(t, e.Query(Request{Tree: "db", Op: OpTopKMean, K: 5}))
	old := e.Stats().CacheEntries
	tr2 := workload.BID(rand.New(rand.NewSource(42)), 40, 2)
	if err := e.Register("db", tr2); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().CacheEntries; got != 0 {
		t.Errorf("re-register left %d of %d old-generation entries resident", got, old)
	}
}

func TestRanksReuseLargerCutoff(t *testing.T) {
	e, _ := newTestEngine(t, Options{})
	// A rank-dist query computes the K=20 distribution...
	mustOk(t, e.Query(Request{Tree: "db", Op: OpRankDist, K: 20}))
	before := e.Stats().Computes
	// ...and a later top-k query with a smaller cutoff reuses it: only the
	// final answer is new work, not another rank distribution.
	mustOk(t, e.Query(Request{Tree: "db", Op: OpTopKMean, K: 5}))
	if got := e.Stats().Computes; got != before+1 {
		t.Errorf("topk after larger rank-dist performed %d computes, want 1 (the answer only)", got-before)
	}
	// A smaller rank-dist query is an exact truncation of the resident
	// K=20 entry: zero new computes, k-width response.
	before = e.Stats().Computes
	resp := mustOk(t, e.Query(Request{Tree: "db", Op: OpRankDist, K: 5}))
	if got := e.Stats().Computes; got != before {
		t.Errorf("smaller rank-dist recomputed (%d new computes)", got-before)
	}
	rd, err := genfunc.Ranks(workload.BID(rand.New(rand.NewSource(1)), 40, 2), 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range rd.Keys() {
		if got, want := resp.Ranks[key], rd.Dist(key); !reflect.DeepEqual(got, want) {
			t.Errorf("truncated ranks[%s] = %v, want %v", key, got, want)
		}
		if got, want := resp.TopKProb[key], rd.PrTopK(key); got != want {
			t.Errorf("truncated topkProb[%s] = %v, want %v", key, got, want)
		}
	}
}

func TestIntermediateSharingAcrossOps(t *testing.T) {
	e, _ := newTestEngine(t, Options{})
	const k = 10
	// The first query computes the rank distribution...
	mustOk(t, e.Query(Request{Tree: "db", Op: OpTopKMean, K: k, Metric: MetricSymDiff}))
	ranksComputes := e.Stats().Computes
	// ...and every other op with the same cutoff reuses it: only the op's
	// own final answer (and the Upsilon table for footrule) is new work.
	mustOk(t, e.Query(Request{Tree: "db", Op: OpTopKMedian, K: k}))
	mustOk(t, e.Query(Request{Tree: "db", Op: OpTopKMean, K: k, Metric: MetricFootrule}))
	mustOk(t, e.Query(Request{Tree: "db", Op: OpRankDist, K: k}))
	got := e.Stats().Computes - ranksComputes
	// topk-median result + footrule result + upsilons = 3; rank-dist is a
	// pure cache read of the ranks intermediate.
	if got != 3 {
		t.Errorf("follow-up ops performed %d computes, want 3 (median, footrule, upsilons)", got)
	}
}

func TestCacheDisabled(t *testing.T) {
	e, _ := newTestEngine(t, Options{CacheEntries: -1})
	req := Request{Tree: "db", Op: OpTopKMean, K: 5}
	mustOk(t, e.Query(req))
	c1 := e.Stats().Computes
	mustOk(t, e.Query(req))
	if c2 := e.Stats().Computes; c2 <= c1 {
		t.Errorf("with caching disabled the second query must recompute (computes %d -> %d)", c1, c2)
	}
	if got := e.Stats().CacheEntries; got != 0 {
		t.Errorf("disabled cache holds %d entries", got)
	}
}

func TestLRUEviction(t *testing.T) {
	e, _ := newTestEngine(t, Options{CacheEntries: 2})
	// Each size-dist/membership query occupies one entry; with capacity 2
	// a third distinct intermediate evicts the least recently used.
	mustOk(t, e.Query(Request{Tree: "db", Op: OpSizeDist}))
	mustOk(t, e.Query(Request{Tree: "db", Op: OpMembership}))
	mustOk(t, e.Query(Request{Tree: "db", Op: OpMeanWorld}))
	if got := e.Stats().CacheEntries; got != 2 {
		t.Fatalf("cache holds %d entries, want capacity 2", got)
	}
	before := e.Stats().Computes
	mustOk(t, e.Query(Request{Tree: "db", Op: OpSizeDist})) // evicted: recompute
	if got := e.Stats().Computes; got != before+1 {
		t.Errorf("evicted entry was not recomputed (computes %d -> %d)", before, got)
	}
}

func TestOversizedKClampsAndShares(t *testing.T) {
	e, tr := newTestEngine(t, Options{})
	n := len(tr.Keys())
	r1 := mustOk(t, e.Query(Request{Tree: "db", Op: OpTopKMean, K: n + 5}))
	before := e.Stats().Computes
	r2 := mustOk(t, e.Query(Request{Tree: "db", Op: OpTopKMean, K: n + 50}))
	if got := e.Stats().Computes; got != before {
		t.Errorf("oversized cutoffs must share one cache entry (computes %d -> %d)", before, got)
	}
	if !reflect.DeepEqual(r1.TopK, r2.TopK) || len(r1.TopK) != n {
		t.Errorf("clamped answers differ: %v vs %v (want %d keys)", r1.TopK, r2.TopK, n)
	}
	// Rank distributions clamp too (an absurd cutoff must not translate
	// into absurd allocation), sharing the ranks/{n} intermediate.
	r3 := mustOk(t, e.Query(Request{Tree: "db", Op: OpRankDist, K: maxRequestK}))
	for key, dist := range r3.Ranks {
		if len(dist) != n {
			t.Fatalf("rank dist for %s has %d entries, want clamp to %d", key, len(dist), n)
		}
		break
	}
	// Beyond the request limit the engine refuses outright rather than
	// clamping, so adversarial cutoffs never reach a tree at all.
	if resp := e.Query(Request{Tree: "db", Op: OpRankDist, K: maxRequestK + 1}); resp.Ok() {
		t.Errorf("k beyond maxRequestK must be rejected, got %+v", resp)
	}
}

func TestResponseIsolation(t *testing.T) {
	// Mutating a response must not corrupt the cached answer.
	e, _ := newTestEngine(t, Options{})
	req := Request{Tree: "db", Op: OpTopKMean, K: 5}
	r1 := mustOk(t, e.Query(req))
	want := append([]string(nil), r1.TopK...)
	r1.TopK[0] = "corrupted"
	r2 := mustOk(t, e.Query(req))
	if !reflect.DeepEqual(r2.TopK, want) {
		t.Errorf("cached answer was corrupted: %v, want %v", r2.TopK, want)
	}
}

// TestRankCutoffIndexOneEntry pins the one-cutoff rank index: a cutoff
// at or below the widest resident distribution is served from it, a
// weight-only mutation carries exactly that distribution into the new
// epoch, and once it is evicted a narrower read computes only its own
// cutoff and re-indexes it.
func TestRankCutoffIndexOneEntry(t *testing.T) {
	e, tr := newTestEngine(t, Options{})
	rankDist := func(k int) int64 {
		t.Helper()
		before := e.Stats().Computes
		mustOk(t, e.Query(Request{Tree: "db", Op: OpRankDist, K: k}))
		return e.Stats().Computes - before
	}
	if got := rankDist(3) + rankDist(7) + rankDist(5); got != 2 {
		t.Fatalf("k = 3, 7, 5 computed %d distributions, want 2 (5 is served from 7)", got)
	}

	alt := tr.LeafAlternatives()[0]
	mustOk(t, e.Query(Request{Tree: "db", Op: OpMutate, Mutation: &MutationRequest{
		Kind: "set-prob", Key: alt.Key, Score: alt.Score, Prob: 0.42, Renormalize: true,
	}}))
	waitRepairs(e)
	e.mu.RLock()
	te := e.trees["db"]
	e.mu.RUnlock()
	prefix := epochPrefix("db", te.gen, 1)
	var ranks []string
	e.cache.mu.Lock()
	for key := range e.cache.items {
		if strings.HasPrefix(key, prefix+"ranks/") {
			ranks = append(ranks, strings.TrimPrefix(key, prefix))
		}
	}
	e.cache.mu.Unlock()
	if !reflect.DeepEqual(ranks, []string{"ranks/7"}) {
		t.Fatalf("new epoch holds rank entries %v, want [ranks/7]", ranks)
	}
	if got := rankDist(2); got != 0 {
		t.Fatalf("k=2 after the repair computed %d distributions, want 0", got)
	}

	// A one-entry cache: the size-dist read evicts ranks/7, so k=2 computes
	// ranks/2, indexes it, and the next k=2 read is a hit.
	e, _ = newTestEngine(t, Options{CacheEntries: 1})
	rankDist(7)
	mustOk(t, e.Query(Request{Tree: "db", Op: OpSizeDist}))
	if got := rankDist(2); got != 1 {
		t.Fatalf("k=2 after evicting ranks/7 computed %d distributions, want 1", got)
	}
	if got := rankDist(2); got != 0 {
		t.Fatalf("second k=2 read computed %d distributions, want 0", got)
	}
	e.mu.RLock()
	te = e.trees["db"]
	e.mu.RUnlock()
	te.progMu.Lock()
	defer te.progMu.Unlock()
	if te.rankK != 2 {
		t.Fatalf("rankK = %d after ranks/7 was evicted and k=2 read, want 2", te.rankK)
	}
}
