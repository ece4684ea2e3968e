package main

import (
	"fmt"
	"math/rand"
	"time"

	"consensus/internal/andxor"
	"consensus/internal/genfunc"
)

// kernelTimes holds direct timed calls into andxor and genfunc on the
// workload's own trees, in milliseconds per call.
type kernelTimes struct {
	encode, decode, compile, ranks, repair []float64
}

// timeKernels times the codec and kernel calls each request path makes,
// tree by tree over the instance's read trees at the workload's cutoffs,
// repeating passes until budget is spent (at least one pass).
func timeKernels(in *instance, budget time.Duration, workers int, rng *rand.Rand) (kernelTimes, error) {
	var kt kernelTimes
	ms := func(start time.Time) float64 { return float64(time.Since(start)) / float64(time.Millisecond) }
	deadline := time.Now().Add(budget)
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		for i := 0; i < in.spec.trees; i++ {
			t, err := andxor.UnmarshalTree(in.docs[i])
			if err != nil {
				return kt, err
			}
			start := time.Now()
			doc, err := t.MarshalJSON()
			kt.encode = append(kt.encode, ms(start))
			if err != nil {
				return kt, err
			}
			start = time.Now()
			t, err = andxor.UnmarshalTree(doc)
			kt.decode = append(kt.decode, ms(start))
			if err != nil {
				return kt, err
			}
			start = time.Now()
			p := genfunc.Compile(t)
			kt.compile = append(kt.compile, ms(start))

			k := in.spec.ks[(pass+i)%len(in.spec.ks)]
			if _, err := p.RanksParallel(k, workers); err != nil { // fills the arena pool, as a served program has
				return kt, err
			}
			start = time.Now()
			old, err := p.RanksParallel(k, workers)
			kt.ranks = append(kt.ranks, ms(start))
			if err != nil {
				return kt, err
			}

			alts := t.LeafAlternatives()
			alt := alts[rng.Intn(len(alts))]
			d, err := t.Apply(andxor.Update{Kind: andxor.UpdateSetProb, Key: alt.Key, Score: alt.Score,
				Prob: 0.05 + 0.9*rng.Float64(), Renormalize: true})
			if err != nil {
				return kt, fmt.Errorf("mutating %s: %w", in.names[i], err)
			}
			start = time.Now()
			p, _, changed := p.ApplyAll(t, []*andxor.Delta{d})
			_, err = p.RepairRanks(old, changed, workers)
			kt.repair = append(kt.repair, ms(start))
			if err != nil {
				return kt, err
			}
		}
	}
	return kt, nil
}
