package topk

import (
	"fmt"
	"math/rand"
	"testing"

	"consensus/internal/genfunc"
	"consensus/internal/workload"
)

// BenchmarkMeanFootruleRanks times the Section 5.4 consensus step alone —
// the k x n footrule cost matrix plus the Hungarian solve — on a cached
// rank distribution and Upsilon statistics, as the serving engine runs it
// on a topk-mean miss.  The legacy sub-benchmark runs the map-based oracle
// (legacy_test.go) on the same inputs for a same-machine ratio.
func BenchmarkMeanFootruleRanks(b *testing.B) {
	for _, c := range []struct{ n, k int }{{128, 32}, {256, 10}} {
		tr := workload.BID(rand.New(rand.NewSource(int64(c.n))), c.n, 2)
		rd, err := genfunc.Ranks(tr, c.k)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d/k=%d", c.n, c.k), func(b *testing.B) {
			u := NewUpsilons(rd, c.k)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := MeanFootruleRanks(rd, u, c.k); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("n=%d/k=%d/legacy", c.n, c.k), func(b *testing.B) {
			u := newUpsilonsLegacy(rd, c.k)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := meanFootruleRanksLegacy(rd, u, c.k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
