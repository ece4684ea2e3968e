package consensus

// One benchmark per experiment row of DESIGN.md: the F*/E* benches time
// the algorithm kernels behind each figure/claim reproduction, and the B*
// benches are the scaling studies (the paper claims polynomial time for
// every algorithm; these measure the polynomials).  Run with:
//
//	go test -bench=. -benchmem
import (
	"fmt"
	"math/rand"
	"testing"

	"consensus/internal/aggregate"
	"consensus/internal/andxor"
	"consensus/internal/assignment"
	"consensus/internal/cluster"
	"consensus/internal/exact"
	"consensus/internal/genfunc"
	"consensus/internal/setconsensus"
	"consensus/internal/spj"
	"consensus/internal/topk"
	"consensus/internal/types"
	"consensus/internal/workload"
)

// ---- Figure benches ----

func BenchmarkF1aWorldSizeDistribution(b *testing.B) {
	tr := andxor.Figure1i()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if p := genfunc.WorldSizeDist(tr); p.Coeff(2) < 0.079 || p.Coeff(2) > 0.081 {
			b.Fatal("wrong coefficient")
		}
	}
}

func BenchmarkF1bRankGeneratingFunction(b *testing.B) {
	tr := andxor.Figure1iii()
	target := types.Leaf{Key: "t3", Score: 6}
	prog := genfunc.Compile(tr)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f := prog.Eval(func(_ int, l types.Leaf) (int, int) {
			if l == target {
				return 0, 1
			}
			if l.Key != target.Key && l.Score > target.Score {
				return 1, 0
			}
			return 0, 0
		}, 2, 1)
		if f.Coeff(0, 1) == 0 {
			b.Fatal("missing coefficient")
		}
	}
}

func BenchmarkF2FootruleIdentity(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tr := workload.BID(rng, 40, 2)
	k := 10
	rd, err := genfunc.Ranks(tr, k)
	if err != nil {
		b.Fatal(err)
	}
	u := topk.NewUpsilons(rd, k)
	tau, _, _, err := topk.MeanFootrule(tr, k)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = topk.ExpectedFootrule(rd, u, tau, k)
	}
}

// ---- Claim benches (algorithm kernels) ----

func BenchmarkE1MeanWorldSymDiff(b *testing.B) {
	tr := workload.BID(rand.New(rand.NewSource(2)), 500, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = setconsensus.MeanWorldSymDiff(tr)
	}
}

func BenchmarkE2MedianWorldSymDiff(b *testing.B) {
	tr := workload.Nested(rand.New(rand.NewSource(3)), 200, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = setconsensus.MedianWorldSymDiff(tr)
	}
}

func BenchmarkE3Max2SATReduction(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	clauses := workload.Random2CNF(rng, 12, 60)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd, err := spj.BuildReduction(12, clauses)
		if err != nil {
			b.Fatal(err)
		}
		res, err := rd.QueryResult()
		if err != nil {
			b.Fatal(err)
		}
		_ = spj.TupleProbs(res, rd.Space)
	}
}

func BenchmarkE4ExpectedJaccard(b *testing.B) {
	tr := workload.BID(rand.New(rand.NewSource(5)), 48, 2)
	w := setconsensus.MeanWorldSymDiff(tr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = setconsensus.ExpectedJaccard(tr, w)
	}
}

func BenchmarkE5JaccardMeanWorld(b *testing.B) {
	tr := workload.Independent(rand.New(rand.NewSource(6)), 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := setconsensus.MeanWorldJaccard(tr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE6MeanTopKSymDiff(b *testing.B) {
	tr := workload.BID(rand.New(rand.NewSource(7)), 200, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := topk.MeanSymDiff(tr, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE7MedianTopKDP(b *testing.B) {
	tr := workload.Nested(rand.New(rand.NewSource(8)), 48, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := topk.MedianSymDiff(tr, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE8IntersectionMetric(b *testing.B) {
	tr := workload.BID(rand.New(rand.NewSource(9)), 120, 2)
	b.Run("assignment-exact", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := topk.MeanIntersection(tr, 10); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("upsilonH-approx", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := topk.MeanIntersectionUpsilon(tr, 10); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkE9FootruleOptimal(b *testing.B) {
	tr := workload.BID(rand.New(rand.NewSource(10)), 120, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := topk.MeanFootrule(tr, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE10KendallApprox(b *testing.B) {
	tr := workload.BID(rand.New(rand.NewSource(11)), 40, 2)
	b.Run("footrule-2approx", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := topk.KendallViaFootrule(tr, 8); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pivot", func(b *testing.B) {
		rng := rand.New(rand.NewSource(12))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := topk.KendallPivot(tr, 8, rng); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkE11AggregateClosest(b *testing.B) {
	p := workload.GroupMatrix(rand.New(rand.NewSource(13)), 300, 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := aggregate.ClosestPossible(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE12AggregateMedianRatio(b *testing.B) {
	p := workload.GroupMatrix(rand.New(rand.NewSource(14)), 300, 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := aggregate.MedianApprox(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE13ConsensusClustering(b *testing.B) {
	tr := workload.Labeled(rand.New(rand.NewSource(15)), 40, 2, 5)
	ins := cluster.FromTree(tr)
	rng := rand.New(rand.NewSource(16))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = ins.CCPivotBest(rng, 10)
	}
}

func BenchmarkE14RankAggregation(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	rankings := workload.RandomRankings(rng, 10, 64)
	b.Run("footrule-optimal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := FootruleAggregate(rankings); err != nil {
				b.Fatal(err)
			}
		}
	})
	small := workload.RandomRankings(rng, 10, 12)
	b.Run("kemeny-exact-n12", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := KemenyExact(small); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkE15BaselineComparison(b *testing.B) {
	tr := workload.BID(rand.New(rand.NewSource(18)), 100, 2)
	b.Run("consensus-mean", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := topk.MeanSymDiff(tr, 10); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("expected-score", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = topk.ExpectedScoreTopK(tr, 10)
		}
	})
	b.Run("expected-rank", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := topk.ExpectedRankTopK(tr, 10); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- Scaling benches ----

func BenchmarkB1WorldSizeScaling(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		tr := workload.BID(rand.New(rand.NewSource(19)), n, 2)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = genfunc.WorldSizeDist(tr)
			}
		})
	}
}

func BenchmarkB2RankDistScaling(b *testing.B) {
	for _, n := range []int{64, 128, 256} {
		for _, k := range []int{5, 20} {
			tr := workload.BID(rand.New(rand.NewSource(20)), n, 2)
			b.Run(fmt.Sprintf("n=%d/k=%d", n, k), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := genfunc.Ranks(tr, k); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkB3MedianTopKScaling(b *testing.B) {
	for _, n := range []int{32, 64, 128} {
		tr := workload.Nested(rand.New(rand.NewSource(21)), n, 2)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := topk.MedianSymDiff(tr, 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkB4AssignmentScaling(b *testing.B) {
	rng := rand.New(rand.NewSource(22))
	for _, n := range []int{16, 64, 256} {
		cost := make([][]float64, n)
		for i := range cost {
			cost[i] = make([]float64, n)
			for j := range cost[i] {
				cost[i][j] = rng.Float64()
			}
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := assignment.Min(cost); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkB5FlowScaling(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		p := workload.GroupMatrix(rand.New(rand.NewSource(23)), n, 16)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := aggregate.ClosestPossible(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkB6CoClusterScaling(b *testing.B) {
	for _, n := range []int{16, 32, 64} {
		tr := workload.Labeled(rand.New(rand.NewSource(24)), n, 2, 4)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = cluster.FromTree(tr)
			}
		})
	}
}

// B7: the truncation ablation.  The paper's polynomial bounds hinge on
// truncating rank generating functions at degree k; computing the full
// (degree-n) polynomials costs vastly more.  "truncated" is the production
// path; "full" materializes every degree.
func BenchmarkB7UpsilonAblation(b *testing.B) {
	n := 96
	tr := workload.BID(rand.New(rand.NewSource(25)), n, 2)
	k := 10
	b.Run("truncated-k", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rd, err := genfunc.Ranks(tr, k)
			if err != nil {
				b.Fatal(err)
			}
			_ = topk.UpsilonH(rd, k)
		}
	})
	b.Run("full-n", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rd, err := genfunc.Ranks(tr, len(tr.Keys()))
			if err != nil {
				b.Fatal(err)
			}
			_ = topk.UpsilonH(rd, k)
		}
	})
}

func BenchmarkB8LineageScaling(b *testing.B) {
	rng := rand.New(rand.NewSource(26))
	for _, nc := range []int{20, 100, 500} {
		clauses := workload.Random2CNF(rng, 16, nc)
		rd, err := spj.BuildReduction(16, clauses)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("clauses=%d", nc), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := rd.QueryResult()
				if err != nil {
					b.Fatal(err)
				}
				_ = spj.TupleProbs(res, rd.Space)
			}
		})
	}
}

// B11: end-to-end serving throughput of the engine subsystem through the
// public API, on the BenchmarkE6 workload: a warm mixed batch of the
// typical per-tree queries.  Compare against E6 (~the cost of ONE uncached
// mean-top-k call) to see what the intermediate cache buys; the
// cached-vs-cold microbenchmarks live in internal/engine.
func BenchmarkB11EngineServing(b *testing.B) {
	eng := NewEngine(EngineOptions{})
	if err := eng.Register("db", workload.BID(rand.New(rand.NewSource(7)), 200, 2)); err != nil {
		b.Fatal(err)
	}
	reqs := []Request{
		{Tree: "db", Op: OpTopKMean, K: 10},
		{Tree: "db", Op: OpTopKMean, K: 10, Metric: "footrule"},
		{Tree: "db", Op: OpTopKMedian, K: 10},
		{Tree: "db", Op: OpRankDist, K: 10},
		{Tree: "db", Op: OpSizeDist},
		{Tree: "db", Op: OpMembership},
	}
	for _, resp := range eng.Do(reqs) { // warm the intermediate cache
		if !resp.Ok() {
			b.Fatal(resp.Error)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, resp := range eng.Do(reqs) {
			if !resp.Ok() {
				b.Fatal(resp.Error)
			}
		}
	}
}

// BenchmarkEnumerationOracle records the (exponential) cost of the
// brute-force oracle the validations rely on, for context.
func BenchmarkEnumerationOracle(b *testing.B) {
	tr := workload.BID(rand.New(rand.NewSource(27)), 12, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exact.Enumerate(tr, 1<<22); err != nil {
			b.Fatal(err)
		}
	}
}
