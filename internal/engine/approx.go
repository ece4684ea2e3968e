package engine

import (
	"context"
	"errors"
	"fmt"

	"consensus/internal/approx"
	"consensus/internal/topk"
)

// approxPlan is the resolved backend-selection input of one request: the
// effective mode, error budget and RNG seed after engine defaults are
// applied.  The budget and seed participate in cache keys so exact and
// approximate intermediates (and different budgets) never collide.
type approxPlan struct {
	mode   string
	budget approx.Budget
	seed   int64
}

// effectiveMode resolves a request mode against the engine default.
func effectiveMode(reqMode, engineDefault string) string {
	if reqMode != "" {
		return reqMode
	}
	if engineDefault != "" {
		return engineDefault
	}
	return ModeExact
}

// backendFor decides which backend serves the request.  Forcing ModeApprox
// on an op the sampling backend cannot answer is an error; ModeAuto falls
// back to exact for those ops and otherwise applies the approx cost model.
func (e *Engine) backendFor(te *treeEntry, req Request) (string, approxPlan, error) {
	plan := approxPlan{
		mode: effectiveMode(req.Mode, e.defaultMode),
		budget: approx.Budget{
			Epsilon: req.Epsilon,
			Delta:   req.Delta,
		},
		seed: req.Seed,
	}
	if plan.budget.Epsilon == 0 {
		plan.budget.Epsilon = e.defaultEpsilon
	}
	if plan.budget.Delta == 0 {
		plan.budget.Delta = e.defaultDelta
	}
	if plan.seed == 0 {
		plan.seed = approx.DefaultSeed
	}
	switch plan.mode {
	case ModeExact:
		return approx.BackendExact, plan, nil
	case ModeApprox:
		if err := approxSupports(req); err != nil {
			return "", plan, err
		}
		return approx.BackendApprox, plan, nil
	case ModeAuto:
		if approxSupports(req) != nil {
			return approx.BackendExact, plan, nil
		}
		numLeaves := te.tree.NumLeaves()
		numKeys := len(te.tree.Keys())
		switch req.Op {
		case OpRankDist, OpTopKMean:
			if metric, _ := normalizeMetric(req.Metric); req.Op == OpTopKMean && metric != MetricSymDiff {
				return approx.BackendExact, plan, nil
			}
			// The compiled program's longest leaf-to-root path prices the
			// incremental kernel honestly on deep (chain-shaped) trees,
			// which would otherwise be underestimated by orders of
			// magnitude and wrongly routed exact.
			return approx.ChooseRanks(numLeaves, numKeys, clampK(te.tree, req.K), te.program().MaxPathLen(), plan.budget), plan, nil
		case OpSizeDist:
			return approx.ChooseSizeDist(numLeaves, plan.budget), plan, nil
		case OpRankingConsensus:
			// The exact path enumerates the full world distribution, which
			// grows exponentially with leaf count; small trees stay exact
			// and bit-reproducible, larger ones sample.  14 leaves bounds
			// the raw world count by the 2^14 enumeration cap (each leaf at
			// most doubles the branch count); if an unusual shape still
			// overflows, dispatch falls back to sampling.
			if numLeaves <= 14 {
				return approx.BackendExact, plan, nil
			}
			return approx.BackendApprox, plan, nil
		default: // OpMembership: the exact marginal walk is O(n), always cheaper
			return approx.BackendExact, plan, nil
		}
	default:
		return "", plan, fmt.Errorf("engine: unknown mode %q (want exact, approx or auto)", plan.mode)
	}
}

// approxSupports reports whether the sampling backend can answer the
// request at all.  Consensus worlds (symmetric-difference and Jaccard),
// median top-k, world probabilities, clusterings, aggregates and SPJ
// evaluation stay exact-only: their answers are discrete optimizers or
// closed-form computations, not estimable expectations.
func approxSupports(req Request) error {
	switch req.Op {
	case OpRankDist, OpSizeDist, OpMembership, OpRankingConsensus:
		return nil
	case OpTopKMean:
		metric, _ := normalizeMetric(req.Metric)
		if metric == MetricSymDiff || metric == MetricKendall {
			return nil
		}
		return fmt.Errorf("engine: metric %q has an exact mean algorithm; the approx backend serves symdiff and kendall only", metric)
	default:
		return fmt.Errorf("engine: op %q is exact-only; the approx backend serves rank-dist, topk-mean, size-dist, membership and ranking-consensus", req.Op)
	}
}

// approxOptions builds the sampling options for one plan.
func (e *Engine) approxOptions(plan approxPlan) approx.Options {
	return approx.Options{Workers: e.rankWorkers, Seed: plan.seed}
}

// approxKeyPrefix namespaces the cached sampling intermediates by backend,
// budget and seed, so an exact intermediate and approximations under
// different budgets coexist in the LRU without collisions.
func approxKeyPrefix(plan approxPlan) string {
	b := plan.budget.Normalized()
	return fmt.Sprintf("approx/e%g/d%g/s%d/", b.Epsilon, b.Delta, plan.seed)
}

// approxInfo converts a sampling accuracy report to the response form.
func approxInfo(radius float64, samples int, plan approxPlan) *ApproxInfo {
	b := plan.budget.Normalized()
	return &ApproxInfo{
		Backend: approx.BackendApprox,
		Radius:  radius,
		Samples: samples,
		Epsilon: b.Epsilon,
		Delta:   b.Delta,
	}
}

// approxTopK is the cached answer of a sampled mean top-k query.
type approxTopK struct {
	tau topk.List
	est approx.Estimate
}

// getSampled is cache.get for context-aware computations (sampling, SPJ
// evaluation).  A compute closure captures the first requester's context,
// so if that requester cancels mid-compute its cancellation error lands on
// every singleflight waiter,
// including waiters whose own contexts are healthy.  Failed entries are
// dropped from the cache, so a live waiter simply retries — becoming the
// new computer under its own context — instead of surfacing a stranger's
// cancellation.  The loop terminates: every retry means some requester's
// context died, and a retry under our live context only fails this way if
// our context dies too.
func (e *Engine) getSampled(ctx context.Context, key string, compute func() (any, error)) (any, error) {
	for {
		v, err := e.cache.get(key, compute)
		if err == nil || ctx.Err() != nil || !isContextErr(err) {
			return v, err
		}
	}
}

func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// dispatchApprox answers the request with the Monte-Carlo backend.  The
// expensive sampled intermediates are cached like their exact
// counterparts, keyed by budget and seed.
func (e *Engine) dispatchApprox(ctx context.Context, resp *Response, te *treeEntry, req Request, plan approxPlan) error {
	prefix := approxKeyPrefix(plan)
	opts := e.approxOptions(plan)
	switch req.Op {
	case OpRankDist:
		k := clampK(te.tree, req.K)
		re, err := e.approxRanks(ctx, te, req.Tree, k, plan, prefix, opts)
		if err != nil {
			return err
		}
		if err := fillRankDist(resp, req, re, k); err != nil {
			return err
		}
		resp.Approx = approxInfo(re.Info.Radius, re.Info.Samples, plan)
		return nil

	case OpTopKMean:
		metric, _ := normalizeMetric(req.Metric)
		k := clampK(te.tree, req.K)
		var compute func() (any, error)
		switch metric {
		case MetricSymDiff:
			compute = func() (any, error) {
				tau, est, err := approx.MeanSymDiffTopK(ctx, te.tree, k, plan.budget, opts)
				if err != nil {
					return nil, err
				}
				return approxTopK{tau: tau, est: est}, nil
			}
		case MetricKendall:
			// The paper's own recipe (Section 5.5): serve the footrule
			// optimum as the 2-approximate Kendall consensus, then
			// estimate its expected (normalized) Kendall distance by
			// sampling — the quantity the exact path cannot produce.
			compute = func() (any, error) {
				res, err := e.topkMean(te, req)
				if err != nil {
					return nil, err
				}
				est, err := approx.ExpectedTopKDistance(ctx, te.tree, res.tau, k, MetricKendall, plan.budget, opts)
				if err != nil {
					return nil, err
				}
				return approxTopK{tau: res.tau, est: est}, nil
			}
		default:
			return approxSupports(req)
		}
		v, err := e.getSampled(ctx, e.key(te, req.Tree, "%stopk-mean/%s/%d", prefix, metric, k), compute)
		if err != nil {
			return err
		}
		res := v.(approxTopK)
		resp.TopK = append([]string(nil), res.tau...)
		resp.Expected = ptr(res.est.Value)
		resp.Approx = approxInfo(res.est.Radius, res.est.Samples, plan)
		return nil

	case OpSizeDist:
		type sizeDist struct {
			dist []float64
			info approx.Info
		}
		v, err := e.getSampled(ctx, e.key(te, req.Tree, "%ssize-dist", prefix), func() (any, error) {
			dist, info, err := approx.SizeDist(ctx, te.tree, plan.budget, opts)
			if err != nil {
				return nil, err
			}
			return sizeDist{dist: dist, info: info}, nil
		})
		if err != nil {
			return err
		}
		res := v.(sizeDist)
		resp.SizeDist = append([]float64(nil), res.dist...)
		resp.Approx = approxInfo(res.info.Radius, res.info.Samples, plan)
		return nil

	case OpMembership:
		type marginals struct {
			probs map[string]float64
			info  approx.Info
		}
		v, err := e.getSampled(ctx, e.key(te, req.Tree, "%smembership", prefix), func() (any, error) {
			probs, info, err := approx.Marginals(ctx, te.tree, plan.budget, opts)
			if err != nil {
				return nil, err
			}
			return marginals{probs: probs, info: info}, nil
		})
		if err != nil {
			return err
		}
		res := v.(marginals)
		if err := fillMembership(resp, req, te.tree, res.probs); err != nil {
			return err
		}
		resp.Approx = approxInfo(res.info.Radius, res.info.Samples, plan)
		return nil

	case OpRankingConsensus:
		method, _ := normalizeMethod(req.Method)
		v, err := e.getSampled(ctx, e.key(te, req.Tree, "%sranking-consensus/%s", prefix, method), func() (any, error) {
			return sampleRankingConsensus(ctx, te.tree, method, plan)
		})
		if err != nil {
			return err
		}
		res := v.(sampledRanking)
		resp.Ranking = append([]string(nil), res.ranking...)
		resp.Expected = ptr(res.expected)
		resp.Method = method + "/sampled"
		resp.Approx = approxInfo(res.radius, res.samples, plan)
		return nil
	}
	return approxSupports(req)
}

// approxRanks returns the (cached) sampled rank estimate for cutoff k
// under the plan's budget and seed.
func (e *Engine) approxRanks(ctx context.Context, te *treeEntry, name string, k int, plan approxPlan, prefix string, opts approx.Options) (*approx.RankEstimate, error) {
	v, err := e.getSampled(ctx, e.key(te, name, "%sranks/%d", prefix, k), func() (any, error) {
		return approx.Ranks(ctx, te.tree, k, plan.budget, opts)
	})
	if err != nil {
		return nil, err
	}
	return v.(*approx.RankEstimate), nil
}
