package consensus

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"consensus/internal/approx"
	"consensus/internal/exact"
	"consensus/internal/numeric"
	"consensus/internal/setconsensus"
	"consensus/internal/topk"
	"consensus/internal/types"
	"consensus/internal/workload"
)

func TestEstimateExpectedMatchesExact(t *testing.T) {
	db := quickDB(t)
	// Exact expected world size = sum of marginals = 0.9+0.6+0.4.
	est, err := EstimateExpected(db, func(w *World) float64 { return float64(w.Len()) }, 30000, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Mean-1.9) > 0.03 {
		t.Fatalf("estimate %v, want ~1.9", est)
	}
}

func TestCompareAnswersOrdersCandidates(t *testing.T) {
	db := quickDB(t)
	k := 2
	good, err := TopKMean(db, k, MetricSymmetricDifference)
	if err != nil {
		t.Fatal(err)
	}
	bad := TopKList{"c", "b"} // drops the near-certain "a"
	fGood := func(w *World) float64 {
		return float64(len(good)) - overlap(good, TopKFromWorld(w, k))
	}
	fBad := func(w *World) float64 {
		return float64(len(bad)) - overlap(bad, TopKFromWorld(w, k))
	}
	cmp, err := CompareAnswers(db, fGood, fBad, 20000, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Diff.Mean >= 0 {
		t.Fatalf("the Theorem 3 answer should dominate: %+v", cmp)
	}
}

func overlap(a, b TopKList) float64 {
	n := 0.0
	for _, x := range a {
		if b.Contains(x) {
			n++
		}
	}
	return n
}

func TestHoeffdingSamplesFacade(t *testing.T) {
	n, err := HoeffdingSamples(0.05, 0, 1, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if n < 500 || n > 1000 {
		t.Fatalf("n = %d out of expected range", n)
	}
}

func TestRankDistributionParallelFacade(t *testing.T) {
	db := quickDB(t)
	seq, err := RankDistribution(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RankDistributionParallel(db, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range seq.Keys() {
		if !numeric.AlmostEqual(seq.PrTopK(key), par.PrTopK(key), 1e-12) {
			t.Fatalf("parallel mismatch for %s", key)
		}
	}
}

func TestTopKFromWorld(t *testing.T) {
	w, err := NewWorld(
		Leaf{Key: "x", Score: 1},
		Leaf{Key: "y", Score: 9},
		Leaf{Key: "z", Score: 5},
	)
	if err != nil {
		t.Fatal(err)
	}
	got := TopKFromWorld(w, 2)
	if !got.Equal(TopKList{"y", "z"}) {
		t.Fatalf("got %v", got)
	}
}

// treeSampleExpected and treeSampleCompare are the estimators as they ran
// before the compiled sampler: one Tree.Sample per draw, the same sums
// and the same mean/standard-error arithmetic (treeSampleEstimate).
func treeSampleExpected(t *Tree, f func(*World) float64, samples int, rng *rand.Rand) Estimate {
	sum, sumSq := 0.0, 0.0
	for i := 0; i < samples; i++ {
		v := f(t.Sample(rng))
		sum += v
		sumSq += v * v
	}
	return treeSampleEstimate(sum, sumSq, samples)
}

func treeSampleCompare(t *Tree, fA, fB func(*World) float64, samples int, rng *rand.Rand) Comparison {
	var sa, sqa, sb, sqb, sd, sqd float64
	for i := 0; i < samples; i++ {
		w := t.Sample(rng)
		a, b := fA(w), fB(w)
		sa += a
		sqa += a * a
		sb += b
		sqb += b * b
		d := a - b
		sd += d
		sqd += d * d
	}
	return Comparison{A: treeSampleEstimate(sa, sqa, samples), B: treeSampleEstimate(sb, sqb, samples), Diff: treeSampleEstimate(sd, sqd, samples)}
}

func treeSampleEstimate(sum, sumSq float64, samples int) Estimate {
	mean := sum / float64(samples)
	varr := 0.0
	if samples > 1 {
		varr = (sumSq - sum*mean) / float64(samples-1)
		if varr < 0 {
			varr = 0
		}
	}
	return Estimate{Mean: mean, StdErr: math.Sqrt(varr / float64(samples)), Samples: samples}
}

func sameEstimate(a, b Estimate) bool {
	return math.Float64bits(a.Mean) == math.Float64bits(b.Mean) &&
		math.Float64bits(a.StdErr) == math.Float64bits(b.StdErr) && a.Samples == b.Samples
}

// TestSeededEstimatesMatchTreeSample pins the seeded outputs: the compiled
// sampler consumes the RNG stream exactly like Tree.Sample, so every
// Mean, StdErr and Diff is bit-identical to the Tree.Sample estimators.
func TestSeededEstimatesMatchTreeSample(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		tr := workload.Nested(rand.New(rand.NewSource(seed)), 3+int(seed%5), 2)
		if seed%2 == 0 {
			tr = workload.BID(rand.New(rand.NewSource(seed)), 4+int(seed%7), 3)
		}
		size := func(w *World) float64 { return float64(w.Len()) }
		top := func(w *World) float64 { return float64(len(TopKFromWorld(w, 2))) * 0.3 }
		got, err := EstimateExpected(tr, size, 500, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		if want := treeSampleExpected(tr, size, 500, rand.New(rand.NewSource(seed))); !sameEstimate(got, want) {
			t.Fatalf("seed %d: EstimateExpected %+v, Tree.Sample estimator %+v", seed, got, want)
		}
		cmp, err := CompareAnswers(tr, size, top, 500, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		want := treeSampleCompare(tr, size, top, 500, rand.New(rand.NewSource(seed)))
		if !sameEstimate(cmp.A, want.A) || !sameEstimate(cmp.B, want.B) || !sameEstimate(cmp.Diff, want.Diff) {
			t.Fatalf("seed %d: CompareAnswers %+v, Tree.Sample estimator %+v", seed, cmp, want)
		}
	}
}

func TestEstimateExpectedMatchesExactNested(t *testing.T) {
	tr := workload.Nested(rand.New(rand.NewSource(201)), 6, 2)
	f := func(w *World) float64 { return float64(w.Len()) }
	want := exact.ExpectedOver(exact.MustEnumerate(tr), f)
	est, err := EstimateExpected(tr, f, 40000, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Mean-want) > 5*est.StdErr+0.02 {
		t.Fatalf("estimate %v too far from exact %g", est, want)
	}
	if est.Samples != 40000 || est.StdErr <= 0 {
		t.Fatalf("estimate metadata wrong: %+v", est)
	}
	if est.String() == "" {
		t.Fatal("String must render")
	}
}

func TestEstimateValidation(t *testing.T) {
	tr := workload.Independent(rand.New(rand.NewSource(202)), 3)
	zero := func(*World) float64 { return 0 }
	if _, err := EstimateExpected(tr, zero, 0, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("EstimateExpected with samples=0 must error")
	}
	if _, err := CompareAnswers(tr, zero, zero, 0, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("CompareAnswers with samples=0 must error")
	}
}

// The Hoeffding guarantee, empirically: across many repetitions, the
// sample mean is inside the radius around the truth at least 1-delta of
// the time (deterministic given the seed).
func TestEstimateHoeffdingCoverage(t *testing.T) {
	tr := workload.Independent(rand.New(rand.NewSource(203)), 5)
	f := func(w *World) float64 {
		if w.Len() >= 3 {
			return 1
		}
		return 0
	}
	truth := exact.ExpectedOver(exact.MustEnumerate(tr), f)
	const reps, n, delta = 200, 400, 0.1
	radius := approx.HoeffdingRadius(n, 0, 1, delta)
	rng := rand.New(rand.NewSource(204))
	misses := 0
	for r := 0; r < reps; r++ {
		est, err := EstimateExpected(tr, f, n, rng)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(est.Mean-truth) > radius {
			misses++
		}
	}
	if float64(misses)/reps > delta {
		t.Fatalf("Hoeffding coverage violated: %d/%d misses at delta=%g", misses, reps, delta)
	}
}

func TestCompareAnswersCommonRandomNumbers(t *testing.T) {
	tr := workload.BID(rand.New(rand.NewSource(205)), 8, 2)
	k := 3
	tauA, _, err := topk.MeanSymDiff(tr, k)
	if err != nil {
		t.Fatal(err)
	}
	tauB := append(topk.List(nil), tauA...)
	tauB[0], tauB[len(tauB)-1] = tauB[len(tauB)-1], tauB[0] // perturb
	fA := func(w *World) float64 { return topk.NormSymDiff(tauA, topk.FromWorld(w, k), k) }
	fB := func(w *World) float64 { return topk.NormSymDiff(tauB, topk.FromWorld(w, k), k) }
	cmp, err := CompareAnswers(tr, fA, fB, 20000, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	// Paired difference must be consistent: Diff.Mean == A.Mean - B.Mean.
	if !numeric.AlmostEqual(cmp.Diff.Mean, cmp.A.Mean-cmp.B.Mean, 1e-9) {
		t.Fatalf("paired means inconsistent: %+v", cmp)
	}
	// tauA and tauB share k-1 elements: the distances are highly
	// correlated, so pairing should cut the standard error of the
	// difference versus the independent-sum bound.
	independent := math.Sqrt(cmp.A.StdErr*cmp.A.StdErr + cmp.B.StdErr*cmp.B.StdErr)
	if cmp.Diff.StdErr > independent {
		t.Fatalf("pairing did not help: paired %g vs independent %g", cmp.Diff.StdErr, independent)
	}
}

// The paired comparison reproduces the exact ordering of expected
// distances between the mean world and a perturbed world.
func TestCompareAnswersAgreesWithExactOrdering(t *testing.T) {
	tr := workload.Nested(rand.New(rand.NewSource(206)), 6, 2)
	mean := setconsensus.MeanWorldSymDiff(tr)
	worse := mean.Clone()
	// Perturb: toggle one alternative.
	for _, l := range tr.LeafAlternatives() {
		if !worse.Contains(l) {
			worse.Add(l)
			break
		}
	}
	exactA := setconsensus.ExpectedSymDiff(tr, mean)
	exactB := setconsensus.ExpectedSymDiff(tr, worse)
	fA := func(w *World) float64 { return float64(types.SymDiff(mean, w)) }
	fB := func(w *World) float64 { return float64(types.SymDiff(worse, w)) }
	cmp, err := CompareAnswers(tr, fA, fB, 30000, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if (exactA < exactB) != (cmp.Diff.Mean < 0) && math.Abs(cmp.Diff.Mean) > 3*cmp.Diff.StdErr {
		t.Fatalf("sampled ordering (%+v) contradicts exact (%g vs %g)", cmp.Diff, exactA, exactB)
	}
}

// TestEstimateExpectedContextCancellation verifies the estimator honors
// context cancellation: with a sample count that would take minutes to
// drain, a cancelled context must return its error in well under a second.
func TestEstimateExpectedContextCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(208))
	tr := workload.BID(rng, 40, 2)
	const farTooMany = 1 << 30
	size := func(w *World) float64 { return float64(w.Len()) }

	// Already-cancelled context: not a single draw may run.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	calls := 0
	if _, err := EstimateExpectedContext(cancelled, tr, func(w *World) float64 { calls++; return 0 }, farTooMany, rng); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled context: err = %v, want context.Canceled", err)
	}
	if calls != 0 {
		t.Fatalf("cancelled context still drew %d worlds", calls)
	}

	// Cancellation arriving mid-loop stops it promptly too.
	ctx, cancelMid := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancelMid()
	}()
	if _, err := EstimateExpectedContext(ctx, tr, size, farTooMany, rng); err == nil {
		t.Fatal("EstimateExpectedContext must stop when cancelled mid-run")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v to stop the sampling loop", elapsed)
	}
}
