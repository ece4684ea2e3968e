package approx

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"consensus/internal/workload"
)

func TestBudgetValidate(t *testing.T) {
	for _, tc := range []struct {
		b  Budget
		ok bool
	}{
		{Budget{}, true},
		{Budget{Epsilon: 0.05, Delta: 0.01}, true},
		{Budget{Epsilon: -0.1}, false},
		{Budget{Delta: -0.1}, false},
		{Budget{Delta: 1}, false},
		{Budget{Delta: 1.5}, false},
	} {
		err := tc.b.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("Validate(%+v) = %v, want ok=%v", tc.b, err, tc.ok)
		}
	}
}

func TestInfeasibleBudgetRejected(t *testing.T) {
	tr := workload.Independent(rand.New(rand.NewSource(1)), 10)
	// An epsilon this small needs ~1e38 samples: the estimator must refuse
	// rather than overflow or run forever.
	_, err := Ranks(context.Background(), tr, 3, Budget{Epsilon: 1e-19, Delta: 0.1}, Options{})
	if err == nil {
		t.Fatal("Ranks with an infeasible budget must error")
	}
}

// TestSamplerMatchesTreeSample pins the compiled sampler to the reference
// Tree.Sample: both consume one uniform variate per visited or-node in the
// same order, so the same seed must produce the same worlds.
func TestSamplerMatchesTreeSample(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		tr := workload.Nested(rand.New(rand.NewSource(seed)), 12, 3)
		s := newSampler(tr)
		leaves := tr.LeafAlternatives()
		rngA := rand.New(rand.NewSource(99 + seed))
		rngB := rand.New(rand.NewSource(99 + seed))
		for draw := 0; draw < 50; draw++ {
			want := tr.Sample(rngA)
			var buf []int32
			buf = s.sampleInto(rngB, buf)
			if len(buf) != want.Len() {
				t.Fatalf("seed %d draw %d: sampler world has %d leaves, Tree.Sample %d", seed, draw, len(buf), want.Len())
			}
			for _, li := range buf {
				if !want.Contains(leaves[li]) {
					t.Fatalf("seed %d draw %d: sampler produced %v, absent from %v", seed, draw, leaves[li], want)
				}
			}
			// The top-k extraction must agree with the World method.
			present := make([]bool, s.numLeaves())
			got := s.topKInto(buf, 4, present, nil)
			wantTop := want.TopK(4)
			if len(got) != len(wantTop) || (len(got) > 0 && !reflect.DeepEqual([]string(got), wantTop)) {
				t.Fatalf("seed %d draw %d: topKInto %v, want %v", seed, draw, got, wantTop)
			}
		}
	}
}

func TestHoeffding(t *testing.T) {
	n, err := hoeffdingSamples(0.01, 0.05, DefaultMaxSamples)
	if err != nil {
		t.Fatal(err)
	}
	// (1/2) ln(2/0.05) / 1e-4 ~ 18445.
	if n < 18000 || n > 19000 {
		t.Fatalf("hoeffdingSamples = %d", n)
	}
	if r := HoeffdingRadius(n, 0, 1, 0.05); r > 0.01+1e-9 {
		t.Fatalf("radius %g exceeds requested eps", r)
	}
	if r := HoeffdingRadius(n, -2, 2, 0.05); math.Abs(r-4*HoeffdingRadius(n, 0, 1, 0.05)) > 1e-15 {
		t.Fatalf("radius on [-2, 2] = %g, want 4x the unit radius", r)
	}
	for _, bad := range [][2]float64{{-1, 0.05}, {0.01, 0}, {0.01, 1}, {1e-300, 0.05}} {
		if _, err := hoeffdingSamples(bad[0], bad[1], math.MaxInt); err == nil {
			t.Fatalf("hoeffdingSamples%v must error", bad)
		}
	}
	if _, err := hoeffdingSamples(0.01, 0.05, n-1); err == nil {
		t.Fatalf("a cap of %d draws must reject a budget needing %d", n-1, n)
	}
	if !math.IsInf(HoeffdingRadius(0, 0, 1, 0.05), 1) {
		t.Fatal("n=0 radius must be infinite")
	}
}

func TestRanksDeterministicPerSeed(t *testing.T) {
	tr := workload.BID(rand.New(rand.NewSource(5)), 15, 2)
	b := Budget{Epsilon: 0.1, Delta: 0.01}
	o := Options{Workers: 4, Seed: 7}
	a, err := Ranks(context.Background(), tr, 4, b, o)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := Ranks(context.Background(), tr, 4, b, o)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range a.Keys() {
		if !reflect.DeepEqual(a.Dist(key), bb.Dist(key)) {
			t.Fatalf("same seed produced different estimates for %s: %v vs %v", key, a.Dist(key), bb.Dist(key))
		}
	}
	c, err := Ranks(context.Background(), tr, 4, b, Options{Workers: 4, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for _, key := range a.Keys() {
		if !reflect.DeepEqual(a.Dist(key), c.Dist(key)) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical estimates; the seed is not wired through")
	}
}

func TestCancellationStopsEstimators(t *testing.T) {
	tr := workload.Independent(rand.New(rand.NewSource(2)), 400)
	tight := Budget{Epsilon: 0.003, Delta: 1e-4} // hundreds of thousands of draws
	start := time.Now()

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Ranks(cancelled, tr, 10, tight, Options{}); err == nil {
		t.Fatal("Ranks with a cancelled context must error")
	}
	if _, _, err := SizeDist(cancelled, tr, tight, Options{}); err == nil {
		t.Fatal("SizeDist with a cancelled context must error")
	}
	if _, err := ExpectedTopKDistance(cancelled, tr, []string{"t1"}, 5, "symdiff", tight, Options{}); err == nil {
		t.Fatal("ExpectedTopKDistance with a cancelled context must error")
	}

	ctx, cancelMid := context.WithTimeout(context.Background(), 25*time.Millisecond)
	defer cancelMid()
	if _, err := Ranks(ctx, tr, 10, tight, Options{}); err == nil {
		t.Fatal("Ranks must stop when its deadline passes mid-run")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v to stop sampling", elapsed)
	}
}

func TestChooseRanks(t *testing.T) {
	b := Budget{}
	if got := ChooseRanks(100, 100, 10, 0, b); got != BackendExact {
		t.Errorf("small tree chose %q, want exact", got)
	}
	// The compiled incremental kernel answers a default-budget k=10 query
	// on 20000 balanced leaves cheaper than the tight sampling bill, so
	// auto mode now stays exact where the old recursive-evaluator model
	// sampled.
	if got := ChooseRanks(20000, 20000, 10, 0, b); got != BackendExact {
		t.Errorf("huge balanced tree under a tight budget chose %q, want exact (compiled kernel)", got)
	}
	// A degenerate chain-shaped tree of the same size has leaf-to-root
	// paths of length ~n, so the incremental kernel loses its edge and
	// sampling wins again.
	if got := ChooseRanks(20000, 20000, 10, 20000, b); got != BackendApprox {
		t.Errorf("huge chain tree chose %q, want approx", got)
	}
	// So does a key-sparse tree (2 keys x 10000 alternatives): the
	// kernel's same-key exclusion churn is quadratic there even though
	// its paths are short.
	if got := ChooseRanks(20000, 2, 10, 0, b); got != BackendApprox {
		t.Errorf("key-sparse tree chose %q, want approx", got)
	}
	// A loose budget makes sampling cheap enough to beat even the
	// compiled kernel on a huge tree.
	if got := ChooseRanks(20000, 20000, 10, 0, Budget{Epsilon: 0.1, Delta: 0.05}); got != BackendApprox {
		t.Errorf("huge tree under a loose budget chose %q, want approx", got)
	}
	// So does a large cutoff: exact cost grows with k^2, the sample count
	// only with log k.
	if got := ChooseRanks(20000, 20000, 100, 0, b); got != BackendApprox {
		t.Errorf("huge tree with large cutoff chose %q, want approx", got)
	}
	// An infeasible budget must fall back to exact rather than fail later.
	if got := ChooseRanks(20000, 20000, 10, 0, Budget{Epsilon: 1e-19, Delta: 0.1}); got != BackendExact {
		t.Errorf("infeasible budget chose %q, want exact", got)
	}
}

func TestExpectedTopKDistanceUnknownMetric(t *testing.T) {
	tr := workload.Independent(rand.New(rand.NewSource(3)), 5)
	if _, err := ExpectedTopKDistance(context.Background(), tr, []string{"t1"}, 2, "wat", Budget{}, Options{}); err == nil {
		t.Fatal("unknown metric must error")
	}
}
