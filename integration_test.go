package consensus

// Integration tests: drive every public query type end-to-end over shared
// random workloads and assert the cross-module consistency guarantees the
// paper's framework implies (the median is a possible world no closer
// than the mean, every top-k answer is a valid k-list, etc.).

import (
	"math/rand"
	"testing"

	"consensus/internal/workload"
)

func TestIntegrationEndToEnd(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		rng := rand.New(rand.NewSource(seed))
		db := workload.NestedLabeled(rng, 8, 2, 3)

		// --- set consensus ---
		mean := MeanWorld(db)
		median := MedianWorld(db)
		if WorldProbability(db, median) <= 0 {
			t.Fatalf("seed %d: median world impossible", seed)
		}
		meanE := ExpectedSymmetricDifference(db, mean)
		medianE := ExpectedSymmetricDifference(db, median)
		if medianE < meanE-1e-9 {
			t.Fatalf("seed %d: median E %g below mean E %g", seed, medianE, meanE)
		}

		// --- top-k consensus across metrics ---
		k := 3
		for _, m := range []Metric{MetricSymmetricDifference, MetricIntersection, MetricFootrule, MetricKendall} {
			tau, err := TopKMean(db, k, m)
			if err != nil {
				t.Fatalf("seed %d metric %v: %v", seed, m, err)
			}
			if err := tau.Validate(); err != nil {
				t.Fatalf("seed %d metric %v: %v", seed, m, err)
			}
			if len(tau) != k {
				t.Fatalf("seed %d metric %v: len %d", seed, m, len(tau))
			}
		}
		med, err := TopKMedian(db, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(med) > k {
			t.Fatalf("seed %d: median answer too long", seed)
		}

		// Precedence probabilities behave like a tournament over present
		// pairs.
		keys := db.Keys()
		pab := PrecedenceProbability(db, keys[0], keys[1])
		pba := PrecedenceProbability(db, keys[1], keys[0])
		if pab < -1e-12 || pba < -1e-12 || pab+pba > 1+1e-9 {
			t.Fatalf("seed %d: precedence pair (%g, %g) invalid", seed, pab, pba)
		}

		// --- clustering ---
		ins, clustering, ce := ConsensusClustering(db, rand.New(rand.NewSource(seed*7)), 15)
		if len(clustering) != len(ins.Keys) {
			t.Fatalf("seed %d: clustering size mismatch", seed)
		}
		if ce < 0 {
			t.Fatalf("seed %d: negative expected disagreement", seed)
		}
		// The all-singletons and all-together baselines cannot beat the
		// chosen clustering by more than the pivot's constant factor; at
		// minimum they must be valid to evaluate.
		single := make(Clustering, len(ins.Keys))
		for i := range single {
			single[i] = i
		}
		if e := ins.ExpectedDistance(single); e < 0 {
			t.Fatalf("seed %d: invalid singleton distance", seed)
		}

		// --- serialization round trip preserves all answers ---
		data, err := db.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		back, err := ParseTree(data)
		if err != nil {
			t.Fatal(err)
		}
		mean2 := MeanWorld(back)
		if !mean.Equal(mean2) {
			t.Fatalf("seed %d: mean world changed across JSON round trip", seed)
		}
	}
}

// A large-scale smoke test: everything polynomial must comfortably handle
// a 1000-tuple BID database.
func TestIntegrationLargeInstance(t *testing.T) {
	if testing.Short() {
		t.Skip("large instance")
	}
	rng := rand.New(rand.NewSource(99))
	db := workload.BID(rng, 1000, 2)
	if w := MeanWorld(db); w.Len() < 0 {
		t.Fatal("impossible")
	}
	tau, err := TopKMean(db, 10, MetricSymmetricDifference)
	if err != nil || len(tau) != 10 {
		t.Fatalf("top-k failed: %v %v", tau, err)
	}
	rd, err := RankDistribution(db, 10)
	if err != nil {
		t.Fatal(err)
	}
	if rd.PrTopK(tau[0]) < rd.PrTopK(tau[9])-1e-12 {
		t.Fatal("mean answer not sorted by top-k probability")
	}
}
