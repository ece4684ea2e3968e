package topk

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"consensus/internal/andxor"
	"consensus/internal/genfunc"
	"consensus/internal/workload"
)

// oracleTrees are the shapes the row-based consensus steps are pinned on:
// BID blocks, independent tuples and nested and/xor structure, each wide
// enough for k up to 32, plus a 12-key tree on which larger k clamp.
func oracleTrees() map[string]*andxor.Tree {
	rng := rand.New(rand.NewSource(1401))
	return map[string]*andxor.Tree{
		"bid":         workload.BID(rng, 40, 3),
		"independent": workload.Independent(rng, 36),
		"nested":      workload.Nested(rng, 40, 3),
		"small-bid":   workload.BID(rng, 12, 2),
	}
}

// rankDists returns the tree's rank distributions at cutoffs 1..maxK.
func rankDists(t *testing.T, tr *andxor.Tree, maxK int) []*genfunc.RankDist {
	t.Helper()
	rds := make([]*genfunc.RankDist, maxK+1)
	for kk := 1; kk <= maxK; kk++ {
		rd, err := genfunc.Ranks(tr, kk)
		if err != nil {
			t.Fatal(err)
		}
		rds[kk] = rd
	}
	return rds
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameBitsMap(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for key, v := range a {
		if w, ok := b[key]; !ok || !sameBits(v, w) {
			return false
		}
	}
	return true
}

// TestConsensusRowsMatchLegacyOracle pins every Section 5 consumer of a
// rank distribution to its map-based legacy form (legacy_test.go), bit for
// bit: the served answers and expectations must not move by an ulp.  It
// covers k = 1..32 on distributions of cutoff k, k+3 and 32 (the engine
// serves a k-answer from a wider resident distribution), and a cutoff
// below k, where the rows are padded by PrEq/PrLE's conventions.
func TestConsensusRowsMatchLegacyOracle(t *testing.T) {
	const maxK = 32
	for name, tr := range oracleTrees() {
		rds := rankDists(t, tr, maxK+3)
		nkeys := len(tr.Keys())
		for k := 1; k <= maxK; k++ {
			cutoffs := []int{k, k + 3, maxK}
			if k > 2 {
				cutoffs = append(cutoffs, k-2)
			}
			for _, kk := range cutoffs {
				rd := rds[kk]
				label := func(what string) string {
					return fmt.Sprintf("%s k=%d rd.K=%d: %s", name, k, kk, what)
				}
				kc := min(k, nkeys) // the engine clamps k to the tuple count

				u, ul := NewUpsilons(rd, kc), newUpsilonsLegacy(rd, kc)
				for r, key := range rd.Keys() {
					if !sameBits(u.U1[r], ul.U1[key]) || !sameBits(u.U2[r], ul.U2[key]) {
						t.Fatalf("%s", label("Upsilon1/2 of "+key))
					}
				}
				tau, e, err := MeanFootruleRanks(rd, u, kc)
				if err != nil {
					t.Fatal(err)
				}
				tauL, eL, err := meanFootruleRanksLegacy(rd, ul, kc)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(tau, tauL) || !sameBits(e, eL) {
					t.Fatalf("%s tau %v (%x), legacy %v (%x)", label("footrule"), tau, math.Float64bits(e), tauL, math.Float64bits(eL))
				}
				// A foreign key and a shortened list exercise the zero-row
				// paths of the key-string helpers.
				odd := append(List{"no-such-key"}, tau[:len(tau)/2]...)
				for _, cand := range []List{tau, odd} {
					if got, want := ExpectedFootrule(rd, u, cand, kc), expectedFootruleLegacy(rd, ul, cand, kc); !sameBits(got, want) {
						t.Fatalf("%s %x, legacy %x", label("ExpectedFootrule"), math.Float64bits(got), math.Float64bits(want))
					}
					if got, want := ExpectedIntersection(rd, cand, kc), expectedIntersectionLegacy(rd, cand, kc); !sameBits(got, want) {
						t.Fatalf("%s %x, legacy %x", label("ExpectedIntersection"), math.Float64bits(got), math.Float64bits(want))
					}
					if got, want := IntersectionObjective(rd, cand, kc), intersectionObjectiveLegacy(rd, cand, kc); !sameBits(got, want) {
						t.Fatalf("%s %x, legacy %x", label("IntersectionObjective"), math.Float64bits(got), math.Float64bits(want))
					}
				}

				itau, err := MeanIntersectionRanks(rd, kc)
				if err != nil {
					t.Fatal(err)
				}
				itauL, err := meanIntersectionRanksLegacy(rd, kc)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(itau, itauL) {
					t.Fatalf("%s %v, legacy %v", label("intersection"), itau, itauL)
				}
				profit := IntersectionProfit(rd, rd.Keys(), kc)
				profitL := intersectionProfitLegacy(rd, rd.Keys(), kc)
				for j := range profitL {
					for ti := range profitL[j] {
						if !sameBits(profit[j][ti], profitL[j][ti]) {
							t.Fatalf("%s cell (%d,%d)", label("IntersectionProfit"), j, ti)
						}
					}
				}
				if !sameBitsMap(UpsilonH(rd, kc), upsilonHLegacy(rd, kc)) {
					t.Fatalf("%s", label("UpsilonH"))
				}
				if got, want := MeanIntersectionUpsilonRanks(rd, kc), meanIntersectionUpsilonRanksLegacy(rd, kc); !slices.Equal(got, want) {
					t.Fatalf("%s %v, legacy %v", label("Upsilon_H ordering"), got, want)
				}
				if got, want := MeanSymDiffRanks(rd, k), meanSymDiffRanksLegacy(rd, k); !slices.Equal(got, want) {
					t.Fatalf("%s %v, legacy %v", label("symdiff ordering"), got, want)
				}
			}
		}
	}
}
