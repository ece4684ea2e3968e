package consensus

import (
	"math/rand"
	"testing"

	"consensus/internal/numeric"
)

func quickDB(t *testing.T) *Tree {
	t.Helper()
	db, err := Independent([]TupleProb{
		{Leaf: Leaf{Key: "a", Score: 9, Label: "g1"}, Prob: 0.9},
		{Leaf: Leaf{Key: "b", Score: 7, Label: "g2"}, Prob: 0.6},
		{Leaf: Leaf{Key: "c", Score: 5, Label: "g1"}, Prob: 0.4},
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestFacadeQuickstartFlow(t *testing.T) {
	db := quickDB(t)

	if got := WorldSizeDistribution(db); len(got) != 4 {
		t.Fatalf("size distribution %v", got)
	}
	mean := MeanWorld(db)
	if !mean.HasKey("a") || !mean.HasKey("b") || mean.HasKey("c") {
		t.Fatalf("mean world %v, want {a, b}", mean)
	}
	med := MedianWorld(db)
	if WorldProbability(db, med) <= 0 {
		t.Fatal("median must be possible")
	}
	if p := WorldProbability(db, mean); !numeric.AlmostEqual(p, 0.9*0.6*0.6, 1e-12) {
		t.Fatalf("Pr(mean world) = %g", p)
	}

	for _, m := range []Metric{MetricSymmetricDifference, MetricIntersection, MetricFootrule, MetricKendall} {
		tau, err := TopKMean(db, 2, m)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if len(tau) != 2 || tau[0] != "a" {
			t.Fatalf("%v answer %v, want a first", m, tau)
		}
		if m.String() == "" {
			t.Fatal("metric must have a name")
		}
	}
	if _, err := TopKMean(db, 2, Metric(99)); err == nil {
		t.Fatal("unknown metric must error")
	}

	med2, err := TopKMedian(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	if med2[0] != "a" {
		t.Fatalf("median top-2 %v", med2)
	}

	ups, err := TopKUpsilonH(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ups) != 2 {
		t.Fatalf("UpsilonH answer %v", ups)
	}

	pivot, err := TopKKendallPivot(db, 2, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if len(pivot) != 2 {
		t.Fatalf("pivot answer %v", pivot)
	}

	if p := PrecedenceProbability(db, "a", "b"); !numeric.AlmostEqual(p, 0.9, 1e-12) {
		// a beats b whenever a is present (a has the higher score).
		t.Fatalf("Pr(a before b) = %g", p)
	}

	ws, err := EnumerateWorlds(db, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 8 {
		t.Fatalf("%d worlds", len(ws))
	}
}

func TestFacadeRankDistribution(t *testing.T) {
	db := quickDB(t)
	rd, err := RankDistribution(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.AlmostEqual(rd.PrEq("a", 1), 0.9, 1e-12) {
		t.Fatalf("Pr(r(a)=1) = %g", rd.PrEq("a", 1))
	}
}

func TestFacadeJaccard(t *testing.T) {
	db := quickDB(t)
	w, e, err := MeanWorldJaccard(db)
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.AlmostEqual(e, ExpectedJaccard(db, w), 1e-9) {
		t.Fatal("reported expectation mismatch")
	}
	if d := ExpectedSymmetricDifference(db, w); d < 0 {
		t.Fatal("negative expected distance")
	}
}

func TestFacadeAggregates(t *testing.T) {
	// Convert the labeled quickstart DB into a group matrix: it is not a
	// total assignment (tuples may be absent), so conversion must fail.
	db := quickDB(t)
	if _, _, err := GroupMatrixFromTree(db); err == nil {
		t.Fatal("partial tree must be rejected")
	}
	// A proper Section 6.1 instance.
	full, err := BID([]Block{
		{Alternatives: []Leaf{{Key: "t1", Score: 1, Label: "g1"}, {Key: "t1", Score: 2, Label: "g2"}}, Probs: []float64{0.3, 0.7}},
		{Alternatives: []Leaf{{Key: "t2", Score: 3, Label: "g1"}, {Key: "t2", Score: 4, Label: "g2"}}, Probs: []float64{0.8, 0.2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	p, groups, err := GroupMatrixFromTree(full)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 2 || len(p) != 2 {
		t.Fatalf("matrix %v groups %v", p, groups)
	}
	mean, err := GroupByCountMean(p)
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.AlmostEqual(mean[0]+mean[1], 2, 1e-9) {
		t.Fatalf("mean %v must sum to 2", mean)
	}
	med, e, err := GroupByCountMedian(p)
	if err != nil {
		t.Fatal(err)
	}
	if med[0]+med[1] != 2 {
		t.Fatalf("median %v must sum to 2", med)
	}
	if e2, err := GroupByCountExpectedDistance(p, mean); err != nil || e < e2 {
		t.Fatalf("median E %g must be >= mean E %g (err %v)", e, e2, err)
	}
}

func TestFacadeClustering(t *testing.T) {
	db := quickDB(t)
	ins, c, e := ConsensusClustering(db, rand.New(rand.NewSource(2)), 10)
	if len(c) != 3 {
		t.Fatalf("clustering %v", c)
	}
	if e < 0 {
		t.Fatal("negative expected distance")
	}
	if ins.KeyIndex("a") != 0 {
		t.Fatal("instance keys wrong")
	}
}

func TestFacadeJSONRoundTrip(t *testing.T) {
	db := quickDB(t)
	data, err := db.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseTree(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.String() != db.String() {
		t.Fatal("round trip mismatch")
	}
}

func TestFacadeBaselines(t *testing.T) {
	db := quickDB(t)
	if tau, err := PTk(db, 2, 0.5); err != nil || len(tau) == 0 {
		t.Fatalf("PTk %v %v", tau, err)
	}
	if tau, p, err := UTopK(db, 2, 0); err != nil || len(tau) == 0 || p <= 0 {
		t.Fatalf("UTopK %v %g %v", tau, p, err)
	}
	if tau, _, err := UTopKSampled(db, 2, 1000, rand.New(rand.NewSource(3))); err != nil || len(tau) == 0 {
		t.Fatalf("UTopKSampled %v %v", tau, err)
	}
	if tau, err := ExpectedRankTopK(db, 2); err != nil || len(tau) != 2 {
		t.Fatalf("ExpectedRankTopK %v %v", tau, err)
	}
	if tau := ExpectedScoreTopK(db, 2); len(tau) != 2 {
		t.Fatalf("ExpectedScoreTopK %v", tau)
	}
}
