package approx

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"consensus/internal/andxor"
	"consensus/internal/topk"
)

// adaptiveMean estimates the mean of a [0,1]-valued observable with
// round-synchronized sharding: every round each shard draws the same batch
// of observations, partial sums merge in shard order (deterministic for a
// fixed seed and worker count), and the loop stops as soon as the
// empirical-Bernstein radius at the round's share of delta reaches eps —
// or at the Hoeffding worst-case count, whichever comes first.  Low
// variance therefore stops early while the guarantee never degrades.
func adaptiveMean(ctx context.Context, b Budget, o Options,
	newObserver func(shard int) func(rng *rand.Rand) float64) (Estimate, error) {
	// Half the delta funds the worst-case Hoeffding cap, the other half is
	// spread over the adaptive checkpoints (delta/2 * 1/(r(r+1)) at round
	// r sums to delta/2).
	nCap, err := hoeffdingSamples(b.Epsilon, b.Delta/2, o.MaxSamples)
	if err != nil {
		return Estimate{}, err
	}
	type shardState struct {
		rng *rand.Rand
		obs func(rng *rand.Rand) float64
	}
	shards := make([]shardState, o.Workers)
	for i := range shards {
		shards[i] = shardState{rng: shardRNG(o.Seed, i), obs: newObserver(i)}
	}
	var (
		sum, sumSq float64
		total      int
		batch      = 256
	)
	for round := 1; ; round++ {
		if batch*len(shards) > nCap-total {
			batch = (nCap - total + len(shards) - 1) / len(shards)
		}
		sums := make([]float64, len(shards))
		sqs := make([]float64, len(shards))
		ns := make([]int, len(shards))
		errs := make([]error, len(shards))
		var wg sync.WaitGroup
		for si := range shards {
			wg.Add(1)
			go func(si int) {
				defer wg.Done()
				st := shards[si]
				n := batch
				if total+batch*len(shards) > nCap {
					// Last round: trim so the total lands exactly on nCap.
					if extra := total + batch*len(shards) - nCap; si < extra {
						n = batch - 1
					}
				}
				for i := 0; i < n; i++ {
					if err := checkCtx(ctx, i); err != nil {
						errs[si] = err
						return
					}
					v := st.obs(st.rng)
					sums[si] += v
					sqs[si] += v * v
				}
				ns[si] = n
			}(si)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return Estimate{}, fmt.Errorf("approx: sampling interrupted: %w", err)
			}
		}
		for si := range shards { // merge in shard order: deterministic
			sum += sums[si]
			sumSq += sqs[si]
			total += ns[si]
		}
		mean := sum / float64(total)
		variance := 0.0
		if total > 1 {
			variance = (sumSq - sum*mean) / float64(total-1)
			if variance < 0 {
				variance = 0
			}
		}
		deltaRound := b.Delta / 2 / float64(round*(round+1))
		radius := bernsteinRadius(total, variance, deltaRound)
		if radius <= b.Epsilon {
			return Estimate{Value: mean, Radius: radius, Samples: total}, nil
		}
		if total >= nCap {
			hr := HoeffdingRadius(total, 0, 1, b.Delta/2)
			return Estimate{Value: mean, Radius: math.Min(radius, hr), Samples: total}, nil
		}
		batch *= 2
	}
}

// normalizedDistance returns the metric's distance between a fixed answer
// tau and a world's top-k answer, rescaled to [0, 1], plus an error for
// unknown metrics.  Symmetric difference and intersection are already
// normalized; footrule is divided by its maximum k(k+1) and the top-k
// Kendall distance d_K (penalty 0) by its maximum k^2, attained by two
// disjoint answers (each cross pair disagrees, while same-list pairs whose
// partners are absent from the other list carry penalty p = 0).
func normalizedDistance(metric string, k int) (func(tau, w topk.List) float64, error) {
	switch metric {
	case "symdiff":
		return func(tau, w topk.List) float64 { return topk.NormSymDiff(tau, w, k) }, nil
	case "intersection":
		return func(tau, w topk.List) float64 { return topk.Intersection(tau, w, k) }, nil
	case "footrule":
		max := float64(k * (k + 1))
		return func(tau, w topk.List) float64 { return topk.Footrule(tau, w, k) / max }, nil
	case "kendall":
		max := float64(k * k)
		return func(tau, w topk.List) float64 { return topk.Kendall(tau, w, 0) / max }, nil
	default:
		return nil, fmt.Errorf("approx: unknown top-k metric %q", metric)
	}
}

// ExpectedTopKDistance estimates E[d(tau, tau_pw)] for a fixed candidate
// answer tau under the named metric ("symdiff", "intersection",
// "footrule", "kendall"), normalized to [0, 1] (see normalizedDistance).
// This is the paper's Section 5.5 escape hatch made general: quantities
// like the mean Kendall distance have no exact algorithm, so they are
// estimated by sampling with an explicit budget.
func ExpectedTopKDistance(ctx context.Context, t *andxor.Tree, tau topk.List, k int, metric string, b Budget, o Options) (Estimate, error) {
	if err := b.Validate(); err != nil {
		return Estimate{}, err
	}
	if k < 1 {
		return Estimate{}, fmt.Errorf("approx: rank cutoff k = %d must be positive", k)
	}
	dist, err := normalizedDistance(metric, k)
	if err != nil {
		return Estimate{}, err
	}
	b, o = b.Normalized(), o.normalized()
	s := newSampler(t)
	return adaptiveMean(ctx, b, o, func(int) func(rng *rand.Rand) float64 {
		present := make([]bool, s.numLeaves())
		var buf []int32
		var out []string
		return func(rng *rand.Rand) float64 {
			buf = s.sampleInto(rng, buf[:0])
			out = s.topKInto(buf, k, present, out)
			return dist(tau, topk.List(out))
		}
	})
}

// MeanSymDiffTopK estimates the mean top-k answer under the normalized
// symmetric difference metric in two phases: phase one samples the rank
// distribution and takes the k keys with the highest estimated
// Pr(r(t) <= k) (the Theorem 3 consensus applied to estimates); phase two
// estimates the answer's expected distance on fresh draws, so the returned
// Estimate is an unbiased mean with a sound radius.  Because the phase-one
// probabilities are within the rank radius of the truth, the returned
// answer's true expected distance exceeds the optimum by at most
// 2*ranks.Info.Radius.
func MeanSymDiffTopK(ctx context.Context, t *andxor.Tree, k int, b Budget, o Options) (topk.List, Estimate, error) {
	re, err := Ranks(ctx, t, k, b, o)
	if err != nil {
		return nil, Estimate{}, err
	}
	tau := topk.MeanSymDiffRanks(re, re.K)
	o = o.normalized()
	o.Seed ^= 0x5DEECE66D // fresh streams for phase two
	est, err := ExpectedTopKDistance(ctx, t, tau, re.K, "symdiff", b, o)
	if err != nil {
		return nil, Estimate{}, err
	}
	return tau, est, nil
}
