package topk

import (
	"math/rand"
	"testing"

	"consensus/internal/exact"
	"consensus/internal/genfunc"
	"consensus/internal/numeric"
	"consensus/internal/types"
	"consensus/internal/workload"
)

// Experiment F2: the Figure 2 rewriting of E[F*(tau, tau_pw)] matches
// brute-force enumeration on random trees and arbitrary candidate lists.
func TestExpectedFootruleMatchesEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	for trial := 0; trial < 15; trial++ {
		tr := workload.Nested(rng, 3+rng.Intn(3), 2)
		k := 2
		rd, err := genfunc.Ranks(tr, k)
		if err != nil {
			t.Fatal(err)
		}
		u := NewUpsilons(rd, k)
		ws := exact.MustEnumerate(tr)
		for _, tau := range allKLists(tr.Keys(), k) {
			got := ExpectedFootrule(rd, u, tau, k)
			want := exact.ExpectedOver(ws, func(w *types.World) float64 {
				return Footrule(tau, FromWorld(w, k), k)
			})
			if !numeric.AlmostEqual(got, want, 1e-9) {
				t.Fatalf("trial %d tau %v: Figure 2 form %g enum %g (tree %s)", trial, tau, got, want, tr)
			}
		}
	}
}

// Experiment E9: the assignment-based answer minimizes E[F*] over all
// ordered k-lists, and the reported expectation matches the closed form.
func TestMeanFootruleIsOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(112))
	for trial := 0; trial < 20; trial++ {
		tr := workload.Nested(rng, 3+rng.Intn(4), 2)
		k := 1 + rng.Intn(3)
		tau, e, rd, err := MeanFootrule(tr, k)
		if err != nil {
			t.Fatal(err)
		}
		if err := tau.Validate(); err != nil {
			t.Fatal(err)
		}
		kk := k
		if kk > len(tr.Keys()) {
			kk = len(tr.Keys())
		}
		u := NewUpsilons(rd, kk)
		if !numeric.AlmostEqual(e, ExpectedFootrule(rd, u, tau, kk), 1e-9) {
			t.Fatalf("trial %d: reported E %g, closed form %g", trial, e, ExpectedFootrule(rd, u, tau, kk))
		}
		for _, cand := range allKLists(tr.Keys(), kk) {
			if ce := ExpectedFootrule(rd, u, cand, kk); ce < e-1e-9 {
				t.Fatalf("trial %d: %v with E=%g beats assignment answer %v with E=%g",
					trial, cand, ce, tau, e)
			}
		}
	}
}

// The footrule distance penalizes position displacement; a tuple that is
// almost always rank 1 must land at position 1.
func TestMeanFootrulePlacesCertainTupleFirst(t *testing.T) {
	tr := mustTree(t, []blockSpec{
		{"sure", 100, 0.99},
		{"maybe", 50, 0.5},
		{"rare", 10, 0.1},
	})
	tau, _, _, err := MeanFootrule(tr, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tau[0] != "sure" {
		t.Fatalf("tau = %v, want 'sure' first", tau)
	}
}

func TestUpsilonStatisticsAgainstEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	for trial := 0; trial < 10; trial++ {
		tr := workload.Nested(rng, 3+rng.Intn(3), 2)
		k := 3
		rd, err := genfunc.Ranks(tr, k)
		if err != nil {
			t.Fatal(err)
		}
		u := NewUpsilons(rd, k)
		ws := exact.MustEnumerate(tr)
		for r, key := range rd.Keys() {
			u1 := exact.RankAtMostProb(ws, key, k)
			if !numeric.AlmostEqual(u.U1[r], u1, 1e-9) {
				t.Fatalf("U1(%s) = %g, enum %g", key, u.U1[r], u1)
			}
			u2 := 0.0
			for i := 1; i <= k; i++ {
				u2 += float64(i) * exact.RankProb(ws, key, i)
			}
			if !numeric.AlmostEqual(u.U2[r], u2, 1e-9) {
				t.Fatalf("U2(%s) = %g, enum %g", key, u.U2[r], u2)
			}
			for i := 1; i <= k; i++ {
				want := 0.0
				for j := 1; j <= k; j++ {
					want += exact.RankProb(ws, key, j) * float64(abs(i-j))
				}
				want -= float64(i) * (1 - u1)
				if got := u.U3(rd, key, i); !numeric.AlmostEqual(got, want, 1e-9) {
					t.Fatalf("U3(%s,%d) = %g, enum %g", key, i, got, want)
				}
			}
		}
	}
}
