// Package engine turns the consensus library into a concurrent
// consensus-query service: it registers and/xor trees by name and serves
// every consensus query family of the paper through a bounded worker
// pool — rank distributions, mean/median top-k answers under the
// Section 5 metrics, consensus worlds under the symmetric-difference and
// Jaccard distances (Section 4), consensus full rankings aggregated with
// the footrule/Kemeny/Borda rules (Section 2), consensus clusterings
// (Section 6.2), group-by aggregate answers (Section 6.1), world-size and
// membership probabilities, and SPJ query evaluation through safe plans
// with a lineage fallback (the Dalvi-Suciu dichotomy of Section 2).
//
// The expensive intermediates behind those queries — the rank
// distribution of Section 3.3, world-size polynomials, the Upsilon
// statistics of Section 5.4, co-clustering matrices, enumerated or
// sampled world-ranking distributions, SPJ lineage probabilities — are
// memoized per tree in an LRU cache with singleflight deduplication, so
// concurrent requests against the same tree compute each intermediate
// once and every later query pays only for the cheap final step (a sort
// or a small assignment problem).
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"consensus/internal/andxor"
	"consensus/internal/approx"
	"consensus/internal/genfunc"
	"consensus/internal/setconsensus"
	"consensus/internal/topk"
	"consensus/internal/types"
)

// DefaultCacheEntries is the LRU capacity used when Options.CacheEntries
// is zero.
const DefaultCacheEntries = 512

// Options configures a new Engine.
type Options struct {
	// Workers bounds the number of concurrently executing queries;
	// <= 0 selects GOMAXPROCS.
	Workers int
	// CacheEntries is the LRU capacity (in cached intermediates, not
	// bytes); 0 selects DefaultCacheEntries, negative disables caching.
	CacheEntries int
	// RankWorkers is the per-query parallelism of rank-distribution
	// computations (genfunc.Program.RanksParallel) and of Monte-Carlo sampling
	// shards; <= 0 selects GOMAXPROCS.
	RankWorkers int

	// DefaultMode is applied to requests that leave Request.Mode empty:
	// ModeExact (also the meaning of ""), ModeApprox or ModeAuto.  A
	// server fronting huge trees typically sets ModeAuto here so plain
	// clients transparently get the cheaper backend.
	DefaultMode string
	// DefaultEpsilon / DefaultDelta are the error budget applied when an
	// approx/auto request leaves Epsilon/Delta zero; zero falls through
	// to approx.DefaultEpsilon / approx.DefaultDelta.
	DefaultEpsilon float64
	DefaultDelta   float64

	// AdmissionCapacity enables worker-side backpressure: requests are
	// priced by OpCost and shed with CodeOverloaded the moment the priced
	// in-flight work would exceed this capacity, instead of queueing in
	// front of the worker pool.  <= 0 disables shedding (requests queue
	// on the pool as before).  The distributed coordinator treats
	// overloaded as retryable, so a hot worker sheds onto its replicas.
	AdmissionCapacity int
}

// Engine is a concurrent consensus-query service over named trees.  All
// methods are safe for concurrent use.
type Engine struct {
	mu      sync.RWMutex
	trees   map[string]*treeEntry
	nextGen uint64

	cache       *cache
	sem         chan struct{}
	adm         *Admission
	rankWorkers int

	defaultMode    string
	defaultEpsilon float64
	defaultDelta   float64

	// repairDisabled forces every mutation down the purge path (no warm
	// carry-over of rank/size intermediates).  Test/bench knob only: the
	// repair-vs-purge benchmark needs the old behavior as its baseline.
	repairDisabled bool
	// repairStart, when set, runs at the start of every cache repair that
	// a mutation hands off after its reply.  Test hook only: it holds a
	// repair in flight so tests can observe the hand-off.
	repairStart func()
}

// treeEntry pins a registered tree together with its registration
// generation; the generation namespaces cache keys, so re-registering a
// name invalidates every cached intermediate of the old tree (the old
// entries are also purged eagerly, see Register).
type treeEntry struct {
	// rw serializes mutations against queries: every query holds the read
	// lock across its whole dispatch (so it never observes a half-applied
	// mutation — no torn tree, program or epoch state), and mutations hold
	// the write lock across tree patch, program patch and epoch bump, and
	// on until the cache repair they hand off after the reply ends.
	// Go's RWMutex blocks new readers once a writer waits, so mutations
	// cannot starve under a steady query stream.
	rw   sync.RWMutex
	tree *andxor.Tree
	// owned reports whether the entry's tree is an engine-private clone.
	// Register stores the caller's tree directly (zero-copy for the
	// immutable common case); the first mutation clones it, so a tree
	// handed to Register is never mutated behind the caller's back.
	// Guarded by rw.
	owned bool
	gen   uint64
	// epoch counts the mutations applied under this generation.  It
	// sub-namespaces cache keys (see epochPrefix), so a mutation
	// invalidates the cached intermediates of the pre-mutation state
	// without disturbing other trees or requiring re-registration.
	epoch atomic.Uint64

	// retired is set when this generation is replaced or unregistered.
	// Queries already in flight on the old entry may insert cache entries
	// after the retirer's purge ran; they re-purge on completion when they
	// see the flag, so no dead-generation entry outlives its last reader.
	retired atomic.Bool

	// prog is the tree compiled for the incremental generating-function
	// kernel, built on first use and shared by every rank/precedence/size
	// query of this generation (a Program's compiled state only changes
	// through mutations, which exclude all readers via rw; per-query state
	// lives in evaluation arenas).  progMu makes the lazy compile safe
	// under the shared read lock and lets the mutation path patch or swap
	// the program in place — a sync.Once could not be re-pointed after a
	// structural mutation.  progMu also guards rankK, the cutoff of the
	// widest rank distribution known to be resident (see ranksAtLeast).
	progMu sync.Mutex
	prog   *genfunc.Program
	rankK  int
}

// program returns the entry's compiled kernel program, compiling on first
// use.
func (te *treeEntry) program() *genfunc.Program {
	te.progMu.Lock()
	defer te.progMu.Unlock()
	if te.prog == nil {
		te.prog = genfunc.Compile(te.tree)
	}
	return te.prog
}

// Stats is a snapshot of engine activity.
type Stats struct {
	// Trees is the number of registered trees.
	Trees int `json:"trees"`
	// CacheEntries is the number of resident cached intermediates.
	CacheEntries int `json:"cache_entries"`
	// Computes counts cache misses, i.e. intermediates actually computed.
	Computes int64 `json:"computes"`
	// Hits counts lookups served by a resident or in-flight entry.
	Hits int64 `json:"hits"`
}

// New builds an engine with the given options.
func New(opts Options) *Engine {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	capEntries := opts.CacheEntries
	switch {
	case capEntries == 0:
		capEntries = DefaultCacheEntries
	case capEntries < 0:
		capEntries = 0 // cache disabled
	}
	rankWorkers := opts.RankWorkers
	if rankWorkers <= 0 {
		rankWorkers = runtime.GOMAXPROCS(0)
	}
	return &Engine{
		trees:          make(map[string]*treeEntry),
		nextGen:        1,
		cache:          newCache(capEntries),
		sem:            make(chan struct{}, workers),
		adm:            NewAdmission(opts.AdmissionCapacity),
		rankWorkers:    rankWorkers,
		defaultMode:    opts.DefaultMode,
		defaultEpsilon: opts.DefaultEpsilon,
		defaultDelta:   opts.DefaultDelta,
	}
}

// Register makes t queryable under name, replacing any previous tree of
// that name (and implicitly invalidating its cached intermediates).
func (e *Engine) Register(name string, t *andxor.Tree) error {
	if name == "" {
		return fmt.Errorf("engine: tree name must be non-empty")
	}
	// '@' and '/' delimit the generation-namespaced cache keys; a name
	// containing them could alias another tree's key prefix and have its
	// cache wrongly purged on that tree's re-registration.
	if strings.ContainsAny(name, "@/") {
		return fmt.Errorf("engine: tree name %q must not contain '@' or '/'", name)
	}
	if t == nil {
		return fmt.Errorf("engine: tree %q is nil", name)
	}
	e.mu.Lock()
	old := e.trees[name]
	e.trees[name] = &treeEntry{tree: t, gen: e.nextGen}
	e.nextGen++
	e.mu.Unlock()
	if old != nil {
		e.retire(old, name)
	}
	return nil
}

// genPrefix is the cache-key namespace of one (tree, generation) pair:
// every cached intermediate key starts with it (continuing with the epoch,
// see epochPrefix), and retire/exec purge by it, covering all epochs at
// once.  The '@'/'/' rejection in Register keeps it unambiguous, and the
// trailing '.' keeps generation 1 from matching generation 12's keys.
func genPrefix(name string, gen uint64) string {
	return fmt.Sprintf("%s@%d.", name, gen)
}

// epochPrefix narrows genPrefix to one mutation epoch; a mutation purges
// exactly its predecessor's prefix.  The trailing '/' keeps epoch 1 from
// matching epoch 12's keys.
func epochPrefix(name string, gen, epoch uint64) string {
	return fmt.Sprintf("%s@%d.%d/", name, gen, epoch)
}

// retire purges the cache entries of a replaced or removed generation.
// The flag-then-purge order pairs with exec's insert-then-check: whichever
// of the two purges runs last sees every insert (the cache mutex
// serializes them), so dead entries cannot survive.
func (e *Engine) retire(te *treeEntry, name string) {
	te.retired.Store(true)
	e.cache.removePrefix(genPrefix(name, te.gen))
}

// Unregister removes name and reports whether it was registered.  The
// tree's cached intermediates are dropped so they stop occupying LRU
// slots.
func (e *Engine) Unregister(name string) bool {
	e.mu.Lock()
	old, ok := e.trees[name]
	delete(e.trees, name)
	e.mu.Unlock()
	if ok {
		e.retire(old, name)
	}
	return ok
}

// Tree returns the tree registered under name.  Before the first
// mutation the registered tree itself is returned (it is immutable from
// the engine's side: the first mutation clones it).  After a mutation the
// entry's tree is an engine-private clone that later mutations patch in
// place, so Tree returns a fresh deep copy — never a tree the engine may
// concurrently rewrite.
func (e *Engine) Tree(name string) (*andxor.Tree, bool) {
	e.mu.RLock()
	te, ok := e.trees[name]
	e.mu.RUnlock()
	if !ok {
		return nil, false
	}
	te.rw.RLock()
	defer te.rw.RUnlock()
	if te.owned {
		return te.tree.Clone(), true
	}
	return te.tree, true
}

// Trees returns the registered names, sorted.
func (e *Engine) Trees() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]string, 0, len(e.trees))
	for name := range e.trees {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Stats returns a snapshot of engine activity.
func (e *Engine) Stats() Stats {
	e.mu.RLock()
	n := len(e.trees)
	e.mu.RUnlock()
	return Stats{
		Trees:        n,
		CacheEntries: e.cache.len(),
		Computes:     e.cache.computes.Load(),
		Hits:         e.cache.hits.Load(),
	}
}

// Query executes one request through the worker pool.
func (e *Engine) Query(req Request) Response {
	return e.QueryContext(context.Background(), req)
}

// QueryContext is Query with cancellation: a request still queued for a
// pool slot when ctx is cancelled returns an error response instead of
// blocking (and computing an answer nobody will read).  Cancellation does
// not interrupt an exact computation already running, but the Monte-Carlo
// backend checks the context between sampling batches and stops promptly.
func (e *Engine) QueryContext(ctx context.Context, req Request) Response {
	// Backpressure first: shed before queueing on the pool, so a hot
	// worker answers "overloaded" promptly instead of growing a queue of
	// work it cannot start.
	cost := OpCost(req.Op)
	if !e.adm.Admit(cost) {
		return errorResponse(req, errf(CodeOverloaded,
			"engine: overloaded, shedding %s (in-flight cost %d of %d)",
			req.Op, e.adm.InFlight(), e.adm.capacity))
	}
	select {
	case e.sem <- struct{}{}:
	case <-ctx.Done():
		e.adm.Release(cost)
		return errorResponse(req, errf(CodeOf(ctx.Err()), "engine: %v", ctx.Err()))
	}
	// A mutation may answer before its cache repair ends; the repair then
	// keeps the pool slot and the admission cost until it is done.
	handedOff := false
	defer func() {
		if !handedOff {
			e.release(cost)
		}
	}()
	resp, repair := e.exec(ctx, req)
	if repair != nil {
		handedOff = true
		go e.repairThenRelease(repair, cost)
	}
	return resp
}

// release frees what QueryContext took for one request: its admission
// cost and its pool slot.
func (e *Engine) release(cost int) {
	e.adm.Release(cost)
	<-e.sem
}

// repairThenRelease runs a mutation's handed-off cache repair, then
// frees the admission cost and pool slot the mutation took.
func (e *Engine) repairThenRelease(repair func(), cost int) {
	defer e.release(cost)
	repair()
}

// Do executes a batch of requests, fanning out across the worker pool and
// returning the responses in request order.  Requests that share a tree
// deduplicate their intermediate computations through the cache, so a
// batch of q queries against one tree performs the expensive generating-
// function work once.
func (e *Engine) Do(reqs []Request) []Response {
	return e.DoContext(context.Background(), reqs)
}

// DoContext is Do with cancellation: requests not yet dispatched when ctx
// is cancelled come back as error responses, in-flight computations run to
// completion.
func (e *Engine) DoContext(ctx context.Context, reqs []Request) []Response {
	out := make([]Response, len(reqs))
	// Spawn at most one goroutine per pool slot, not per request, so a
	// huge batch cannot allocate unbounded goroutines upfront.
	workers := cap(e.sem)
	if workers > len(reqs) {
		workers = len(reqs)
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i] = e.QueryContext(ctx, reqs[i])
			}
		}()
	}
feed:
	for i := range reqs {
		select {
		case next <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(next)
	wg.Wait()
	// Requests never dispatched (feed stopped early) get an explicit
	// cancellation response; a processed slot always has Op or Error set.
	if err := ctx.Err(); err != nil {
		for i := range out {
			if out[i].Op == "" && out[i].Error == "" && out[i].Tree == "" {
				out[i] = errorResponse(reqs[i], errf(CodeOf(err), "engine: %v", err))
			}
		}
	}
	return out
}

// exec runs one request; the caller holds a pool slot.  A mutation whose
// cache repair is still due returns it as repair, to run after the reply
// (see mutate); every other request runs to completion.
func (e *Engine) exec(ctx context.Context, req Request) (resp Response, repair func()) {
	resp = Response{Tree: req.Tree, Op: req.Op}
	if err := req.Validate(); err != nil {
		// Structural invalidity is always the client's bug, whatever shape
		// the underlying message takes.
		return errorResponse(req, errf(CodeBadRequest, "%s", err.Error())), nil
	}
	if req.Op == OpSPJEval {
		// The query and database travel with the request; no registered
		// tree (or generation-namespaced cache entry) is involved.
		if err := e.dispatchSPJ(ctx, &resp, req); err != nil {
			resp = errorResponse(req, err)
		}
		return resp, nil
	}
	e.mu.RLock()
	te, ok := e.trees[req.Tree]
	e.mu.RUnlock()
	if !ok {
		return errorResponse(req, errf(CodeUnknownTree, "engine: unknown tree %q", req.Tree)), nil
	}
	if req.Op == OpMutate || req.Op == OpCondition {
		// Mutations take the entry's write lock inside; they must not hold
		// the read lock here.  A handed-off repair ends with the same
		// retired-generation purge as below.
		var err error
		if repair, err = e.mutate(&resp, te, req); err != nil {
			resp = errorResponse(req, err)
		}
		if repair != nil {
			return resp, repair
		}
	} else {
		// The read lock spans the whole dispatch so a concurrent mutation
		// can never be observed half-applied: tree, compiled program, epoch
		// and cache keys all belong to one consistent state.
		te.rw.RLock()
		resp.Epoch = te.epoch.Load()
		err := e.dispatch(ctx, &resp, te, req)
		te.rw.RUnlock()
		if err != nil {
			// Drop any partially populated answer fields: an error response
			// carries the error (and its code) alone.
			resp = errorResponse(req, err)
		}
	}
	if te.retired.Load() {
		// The tree was replaced or removed while we were computing; any
		// intermediate we just inserted is keyed to a dead generation.
		// Purge again so it does not linger in the LRU unreachable.
		e.cache.removePrefix(genPrefix(req.Tree, te.gen))
	}
	return resp, nil
}

func (e *Engine) dispatch(ctx context.Context, resp *Response, te *treeEntry, req Request) error {
	backend, plan, err := e.backendFor(te, req)
	if err != nil {
		return err
	}
	if backend == approx.BackendApprox {
		return e.dispatchApprox(ctx, resp, te, req, plan)
	}
	if plan.mode != ModeExact {
		// The request was backend-aware (approx or auto): report which
		// backend actually served it.
		resp.Approx = &ApproxInfo{Backend: approx.BackendExact}
	}
	switch req.Op {
	case OpRankDist:
		k := clampK(te.tree, req.K)
		// Any resident distribution with cutoff >= k serves this: the
		// k-width response is an exact truncation of a larger one.
		rd, err := e.ranksAtLeast(te, req.Tree, k)
		if err != nil {
			return err
		}
		return fillRankDist(resp, req, rd, k)

	case OpTopKMean:
		res, err := e.topkMean(te, req)
		if err != nil {
			return err
		}
		resp.TopK = append([]string(nil), res.tau...)
		// The Kendall consensus is served by the footrule optimum
		// (Section 5.5 equivalence), but the footrule objective value is
		// not the expected Kendall distance; leave Expected unset rather
		// than report a number for the wrong metric.
		if req.Metric != MetricKendall {
			resp.Expected = ptr(res.expected)
		}
		return nil

	case OpTopKMedian:
		k := clampK(te.tree, req.K)
		v, err := e.cache.get(e.key(te, req.Tree, "topk-median/%d", k), func() (any, error) {
			rd, err := e.ranksAtLeast(te, req.Tree, k)
			if err != nil {
				return nil, err
			}
			tau, err := topk.MedianSymDiffRanks(te.tree, rd, k)
			if err != nil {
				return nil, err
			}
			return topkResult{tau: tau, expected: topk.ExpectedNormSymDiff(rd, tau, k)}, nil
		})
		if err != nil {
			return err
		}
		res := v.(topkResult)
		resp.TopK = append([]string(nil), res.tau...)
		resp.Expected = ptr(res.expected)
		return nil

	case OpMeanWorld, OpMedianWorld:
		v, err := e.cache.get(e.key(te, req.Tree, "%s", req.Op), func() (any, error) {
			var w *types.World
			if req.Op == OpMeanWorld {
				w = setconsensus.MeanWorldSymDiff(te.tree)
			} else {
				w = setconsensus.MedianWorldSymDiff(te.tree)
			}
			return worldResult{leaves: w.Leaves(), expected: setconsensus.ExpectedSymDiff(te.tree, w)}, nil
		})
		if err != nil {
			return err
		}
		res := v.(worldResult)
		resp.World = res.worldCopy()
		resp.Expected = ptr(res.expected)
		return nil

	case OpSizeDist:
		v, err := e.cache.get(e.key(te, req.Tree, "size-dist"), func() (any, error) {
			return []float64(te.program().WorldSizeDist()), nil
		})
		if err != nil {
			return err
		}
		resp.SizeDist = append([]float64(nil), v.([]float64)...)
		return nil

	case OpMembership:
		v, err := e.cache.get(e.key(te, req.Tree, "membership"), func() (any, error) {
			return te.tree.KeyMarginals(), nil
		})
		if err != nil {
			return err
		}
		return fillMembership(resp, req, te.tree, v.(map[string]float64))

	case OpWorldProb:
		w, err := types.NewWorld(req.World...)
		if err != nil {
			return err
		}
		resp.Value = ptr(andxor.WorldProb(te.tree, w))
		return nil

	case OpMeanWorldJaccard, OpMedianWorldJaccard:
		return e.jaccardWorld(resp, te, req)

	case OpClusteringMean:
		return e.clusteringMean(resp, te, req)

	case OpAggregateMean, OpAggregateMedian:
		return e.aggregateAnswer(resp, te, req)

	case OpRankingConsensus:
		err := e.rankingConsensus(resp, te, req)
		if err != nil && plan.mode == ModeAuto && errors.Is(err, errRankingEnumeration) {
			// The leaf-count heuristic underestimated the world count (the
			// enumeration cap is on raw worlds, not leaves); auto mode owns
			// the backend choice, so degrade to sampling instead of
			// surfacing an error that tells the client to do exactly that.
			return e.dispatchApprox(ctx, resp, te, req, plan)
		}
		return err
	}
	return fmt.Errorf("engine: unknown op %q", req.Op)
}

// rankAnswer is the rank distribution a rank-dist response reads: the
// exact *genfunc.RankDist or the sampled *approx.RankEstimate.
type rankAnswer interface {
	topk.RankSource
	Dist(key string) []float64
}

// fillRankDist answers OpRankDist for the requested keys (every key when
// none is named) from a distribution of cutoff >= k, truncated to k.
func fillRankDist(resp *Response, req Request, rd rankAnswer, k int) error {
	keys := req.Keys
	if len(keys) == 0 {
		keys = rd.Keys()
	}
	resp.Ranks = make(map[string][]float64, len(keys))
	resp.TopKProb = make(map[string]float64, len(keys))
	for _, key := range keys {
		dist := rd.Dist(key)
		if dist == nil {
			// Surface a key typo instead of fabricating a
			// probability-zero answer for a tuple that does not exist.
			return errf(CodeUnknownKey, "engine: tree %q has no tuple key %q", req.Tree, key)
		}
		if len(dist) > k {
			dist = dist[:k]
		}
		resp.Ranks[key] = dist
		resp.TopKProb[key] = rd.PrLE(key, k)
	}
	return nil
}

// fillMembership answers OpMembership for the requested keys (every key of
// t when none is named) from the key marginals probs.
func fillMembership(resp *Response, req Request, t *andxor.Tree, probs map[string]float64) error {
	keys := req.Keys
	if len(keys) == 0 {
		keys = t.Keys()
	}
	resp.Probs = make(map[string]float64, len(keys))
	for _, key := range keys {
		p, ok := probs[key]
		if !ok {
			return errf(CodeUnknownKey, "engine: tree %q has no tuple key %q", req.Tree, key)
		}
		resp.Probs[key] = p
	}
	return nil
}

// dispatchSPJ answers OpSPJEval.  Mode handling mirrors dispatch: the op
// is exact-only (a safe plan or lineage evaluation, never sampling), so a
// forced approx mode is an error and auto/approx-aware requests report the
// exact backend.
func (e *Engine) dispatchSPJ(ctx context.Context, resp *Response, req Request) error {
	mode := effectiveMode(req.Mode, e.defaultMode)
	switch mode {
	case ModeExact:
	case ModeApprox:
		return approxSupports(req)
	case ModeAuto:
		resp.Approx = &ApproxInfo{Backend: approx.BackendExact}
	default:
		return fmt.Errorf("engine: unknown mode %q (want exact, approx or auto)", mode)
	}
	return e.spjEval(ctx, resp, req)
}

// topkResult / worldResult are the cached final answers.
type topkResult struct {
	tau      topk.List
	expected float64
}

// worldResult keeps the world's leaves already sorted by key, the order a
// response lists them in, so a cache hit copies a slice instead of walking
// and sorting the world's map again.
type worldResult struct {
	leaves   []types.Leaf
	expected float64
}

// worldCopy returns the world's leaves for one response; the copy keeps
// the cached slice out of reach of the caller, and an empty world stays
// empty rather than nil, as (*types.World).Leaves returns it.
func (r worldResult) worldCopy() []types.Leaf {
	if r.leaves == nil {
		return nil
	}
	return append(make([]types.Leaf, 0, len(r.leaves)), r.leaves...)
}

// topkMean answers OpTopKMean, caching the deterministic result per
// (tree, metric, k).  The Kendall consensus is the footrule optimum
// (Section 5.5's factor-2 equivalence), so both metrics share one entry.
func (e *Engine) topkMean(te *treeEntry, req Request) (topkResult, error) {
	metric, _ := normalizeMetric(req.Metric) // Validate() already vetted it
	if metric == MetricKendall {
		metric = MetricFootrule
	}
	k := clampK(te.tree, req.K)
	v, err := e.cache.get(e.key(te, req.Tree, "topk-mean/%s/%d", metric, k), func() (any, error) {
		rd, err := e.ranksAtLeast(te, req.Tree, k)
		if err != nil {
			return nil, err
		}
		switch metric {
		case MetricSymDiff:
			tau := topk.MeanSymDiffRanks(rd, k)
			return topkResult{tau: tau, expected: topk.ExpectedNormSymDiff(rd, tau, k)}, nil
		case MetricIntersection:
			tau, err := topk.MeanIntersectionRanks(rd, k)
			if err != nil {
				return nil, err
			}
			return topkResult{tau: tau, expected: topk.ExpectedIntersection(rd, tau, k)}, nil
		default: // MetricFootrule (also serving Kendall)
			u, err := e.upsilons(te, req.Tree, k)
			if err != nil {
				return nil, err
			}
			tau, exp, err := topk.MeanFootruleRanks(rd, u, k)
			if err != nil {
				return nil, err
			}
			return topkResult{tau: tau, expected: exp}, nil
		}
	})
	if err != nil {
		return topkResult{}, err
	}
	return v.(topkResult), nil
}

// ranksAtLeast returns a (cached) rank distribution with cutoff >= k.
// Every ...Ranks consumer accepts rd.K >= k, and a truncated evaluation is
// a bitwise prefix of a wider one, so the entry indexes a single cutoff,
// rankK: a resident ranks/<rankK> serves every k <= rankK.  A miss
// computes exactly k, never wider, and re-indexes if k is wider or the
// indexed entry is gone.  A lost race costs one extra compute at most.
func (e *Engine) ranksAtLeast(te *treeEntry, name string, k int) (*genfunc.RankDist, error) {
	te.progMu.Lock()
	indexed := te.rankK
	te.progMu.Unlock()
	if indexed >= k {
		if v, ok := e.cache.peek(e.key(te, name, "ranks/%d", indexed)); ok {
			e.cache.hits.Add(1)
			return v.(*genfunc.RankDist), nil
		}
	}
	v, err := e.cache.get(e.key(te, name, "ranks/%d", k), func() (any, error) {
		return te.program().RanksParallel(k, e.rankWorkers)
	})
	if err != nil {
		return nil, err
	}
	te.progMu.Lock()
	if k > te.rankK || te.rankK == indexed {
		te.rankK = k
	}
	te.progMu.Unlock()
	return v.(*genfunc.RankDist), nil
}

// upsilons returns the (cached) Section 5.4 Upsilon statistics for cutoff k.
func (e *Engine) upsilons(te *treeEntry, name string, k int) (*topk.Upsilons, error) {
	v, err := e.cache.get(e.key(te, name, "upsilons/%d", k), func() (any, error) {
		rd, err := e.ranksAtLeast(te, name, k)
		if err != nil {
			return nil, err
		}
		return topk.NewUpsilons(rd, k), nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*topk.Upsilons), nil
}

// key builds a cache key namespaced by the tree's registration generation
// and mutation epoch.  Queries call it under the entry's read lock, so
// the epoch cannot move mid-key; a mutation bumping the epoch retargets
// every later key and purges the old epoch's entries.
func (e *Engine) key(te *treeEntry, name, format string, args ...any) string {
	return epochPrefix(name, te.gen, te.epoch.Load()) + fmt.Sprintf(format, args...)
}

// clampK caps k at the number of tuples, matching the library's top-k
// conventions and letting oversized cutoffs share one cache entry.
func clampK(t *andxor.Tree, k int) int {
	if n := len(t.Keys()); k > n {
		return n
	}
	return k
}
