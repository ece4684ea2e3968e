package approx

import (
	"context"
	"fmt"
	"sync"

	"consensus/internal/andxor"
)

// RankEstimate is the sampling-based counterpart of genfunc.RankDist: the
// estimated rank distribution of every tuple key up to cutoff K.  It
// satisfies topk.RankSource, so the Theorem 3/4 consensus algorithms run
// on it unchanged.  Every PrEq/PrLE value carries the simultaneous
// confidence radius in Info.
type RankEstimate struct {
	K    int
	Info Info

	keys []string
	eq   map[string][]float64 // eq[key][i] = estimated Pr(r(t) = i), 1 <= i <= K
	le   map[string][]float64 // le[key][i] = estimated Pr(r(t) <= i)
}

// Keys returns the tuple keys covered, sorted.
func (re *RankEstimate) Keys() []string { return re.keys }

// PrEq returns the estimated Pr(r(t) = i) for 1 <= i <= K.
func (re *RankEstimate) PrEq(key string, i int) float64 {
	d, ok := re.eq[key]
	if !ok || i < 1 || i > re.K {
		return 0
	}
	return d[i]
}

// PrLE returns the estimated Pr(r(t) <= i) for 1 <= i <= K.
func (re *RankEstimate) PrLE(key string, i int) float64 {
	d, ok := re.le[key]
	if !ok || i < 1 {
		return 0
	}
	if i > re.K {
		i = re.K
	}
	return d[i]
}

// Dist returns a copy of the estimated rank distribution of key: element
// i-1 holds Pr(r(t) = i).  Unknown keys yield nil.
func (re *RankEstimate) Dist(key string) []float64 {
	d, ok := re.eq[key]
	if !ok {
		return nil
	}
	return append([]float64(nil), d[1:]...)
}

// countWorlds draws total worlds sharded across o.Workers goroutines.
// Each shard owns a deterministic RNG and a private int64 count vector of
// length width, filled by an observer from newObserver (one per shard, so
// observers may carry scratch state); the per-shard vectors are summed in
// shard order.  Integer counts make the merge exact, so results are
// independent of scheduling.
func countWorlds(ctx context.Context, s *sampler, total, width int, o Options,
	newObserver func() func(counts []int64, world []int32)) ([]int64, error) {
	sizes := shardSizes(total, o.Workers)
	perShard := make([][]int64, len(sizes))
	errs := make([]error, len(sizes))
	var wg sync.WaitGroup
	for shard, n := range sizes {
		wg.Add(1)
		go func(shard, n int) {
			defer wg.Done()
			rng := shardRNG(o.Seed, shard)
			observe := newObserver()
			counts := make([]int64, width)
			var buf []int32
			for i := 0; i < n; i++ {
				if err := checkCtx(ctx, i); err != nil {
					errs[shard] = err
					return
				}
				buf = s.sampleInto(rng, buf[:0])
				observe(counts, buf)
			}
			perShard[shard] = counts
		}(shard, n)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("approx: sampling interrupted: %w", err)
		}
	}
	merged := make([]int64, width)
	for _, counts := range perShard {
		for i, c := range counts {
			merged[i] += c
		}
	}
	return merged, nil
}

// Ranks estimates the rank distribution of every tuple key up to cutoff k
// by sampling: each drawn world is sorted by score (via one precomputed
// global order) and each present key's rank counted.  The reported radius
// holds simultaneously for all PrEq and PrLE coordinates (union bound over
// 2k per key).
func Ranks(ctx context.Context, t *andxor.Tree, k int, b Budget, o Options) (*RankEstimate, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	b, o = b.Normalized(), o.normalized()
	s := newSampler(t)
	if k > len(s.keys) {
		k = len(s.keys)
	}
	if k < 1 {
		return nil, fmt.Errorf("approx: rank cutoff k = %d must be positive", k)
	}
	m := 2 * k * len(s.keys) // eq and le cells under the union bound
	deltaCoord := b.Delta / float64(m)
	total, err := hoeffdingSamples(b.Epsilon, deltaCoord, o.MaxSamples)
	if err != nil {
		return nil, err
	}
	width := len(s.keys) * k
	counts, err := countWorlds(ctx, s, total, width, o, func() func(counts []int64, world []int32) {
		present := make([]bool, s.numLeaves())
		return func(counts []int64, world []int32) {
			rankWorld(s, world, k, present, counts)
		}
	})
	if err != nil {
		return nil, err
	}
	re := &RankEstimate{
		K:    k,
		Info: Info{Radius: HoeffdingRadius(total, 0, 1, deltaCoord), Samples: total},
		keys: s.keys,
		eq:   make(map[string][]float64, len(s.keys)),
		le:   make(map[string][]float64, len(s.keys)),
	}
	n := float64(total)
	for ki, key := range s.keys {
		eq := make([]float64, k+1)
		le := make([]float64, k+1)
		acc := int64(0)
		for i := 1; i <= k; i++ {
			c := counts[ki*k+i-1]
			eq[i] = float64(c) / n
			acc += c // the eq cells are disjoint events, so Pr(r<=i) sums exactly
			le[i] = float64(acc) / n
		}
		re.eq[key] = eq
		re.le[key] = le
	}
	return re, nil
}

// rankWorld records the ranks (up to k) of the keys present in the world:
// scanning the global score-descending order, the j-th present leaf has
// rank j (scores are distinct across co-occurring keys, and alternatives
// of one key are mutually exclusive).  The scan exits as soon as k present
// leaves are seen, so dense worlds pay O(k/density) rather than O(n).
// present is caller-owned scratch, all-false on entry and on return.
func rankWorld(s *sampler, world []int32, k int, present []bool, counts []int64) {
	if len(world) == 0 {
		return
	}
	for _, li := range world {
		present[li] = true
	}
	rank := 0
	for _, li := range s.byScore {
		if !present[li] {
			continue
		}
		rank++
		counts[int(s.leafKey[li])*k+rank-1]++
		if rank == k {
			break
		}
	}
	for _, li := range world {
		present[li] = false
	}
}

// SizeDist estimates the world-size distribution Pr(|pw| = i), returning a
// vector indexed by size (length numLeaves+1) and the realized accuracy.
func SizeDist(ctx context.Context, t *andxor.Tree, b Budget, o Options) ([]float64, Info, error) {
	if err := b.Validate(); err != nil {
		return nil, Info{}, err
	}
	b, o = b.Normalized(), o.normalized()
	s := newSampler(t)
	width := s.numLeaves() + 1
	deltaCoord := b.Delta / float64(width)
	total, err := hoeffdingSamples(b.Epsilon, deltaCoord, o.MaxSamples)
	if err != nil {
		return nil, Info{}, err
	}
	counts, err := countWorlds(ctx, s, total, width, o, func() func(counts []int64, world []int32) {
		return func(counts []int64, world []int32) {
			counts[len(world)]++
		}
	})
	if err != nil {
		return nil, Info{}, err
	}
	out := make([]float64, width)
	for i, c := range counts {
		out[i] = float64(c) / float64(total)
	}
	return out, Info{Radius: HoeffdingRadius(total, 0, 1, deltaCoord), Samples: total}, nil
}

// Marginals estimates every key's marginal presence probability.
func Marginals(ctx context.Context, t *andxor.Tree, b Budget, o Options) (map[string]float64, Info, error) {
	if err := b.Validate(); err != nil {
		return nil, Info{}, err
	}
	b, o = b.Normalized(), o.normalized()
	s := newSampler(t)
	width := len(s.keys)
	if width == 0 {
		return map[string]float64{}, Info{}, nil
	}
	deltaCoord := b.Delta / float64(width)
	total, err := hoeffdingSamples(b.Epsilon, deltaCoord, o.MaxSamples)
	if err != nil {
		return nil, Info{}, err
	}
	counts, err := countWorlds(ctx, s, total, width, o, func() func(counts []int64, world []int32) {
		return func(counts []int64, world []int32) {
			for _, li := range world {
				counts[s.leafKey[li]]++ // at most one alternative per key is present
			}
		}
	})
	if err != nil {
		return nil, Info{}, err
	}
	out := make(map[string]float64, width)
	for ki, key := range s.keys {
		out[key] = float64(counts[ki]) / float64(total)
	}
	return out, Info{Radius: HoeffdingRadius(total, 0, 1, deltaCoord), Samples: total}, nil
}
