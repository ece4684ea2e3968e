package genfunc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"consensus/internal/workload"
)

// Cross-cutting probabilistic identities that must hold on every tree;
// checked with testing/quick over seeded random nested workloads.

// Identity: Pr(r(i) < r(j)) + Pr(r(j) < r(i)) = 1 - Pr(both absent).
// (Whenever at least one tuple is present, exactly one of the two
// precedence events holds, since distinct scores break all ties.)
func TestPrecedenceComplementProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := workload.Nested(rng, 2+rng.Intn(5), 2)
		keys := tr.Keys()
		i := rng.Intn(len(keys))
		j := rng.Intn(len(keys))
		if i == j {
			return true
		}
		pij := Precedence(tr, keys[i], keys[j])
		pji := Precedence(tr, keys[j], keys[i])
		absent := AllAbsent(tr, map[string]bool{keys[i]: true, keys[j]: true})
		return approxEq(pij+pji, 1-absent)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(240))}); err != nil {
		t.Fatal(err)
	}
}

// Identity: the world-size generating function is a probability
// distribution (non-negative coefficients summing to 1) and its mean is
// the total marginal mass.
func TestWorldSizeDistributionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := workload.Nested(rng, 1+rng.Intn(7), 3)
		p := WorldSizeDist(tr)
		sum, mean := 0.0, 0.0
		for i, c := range p {
			if c < -1e-12 {
				return false
			}
			sum += c
			mean += float64(i) * c
		}
		total := 0.0
		for _, m := range tr.MarginalProbs() {
			total += m
		}
		return approxEq(sum, 1) && approxEq(mean, total)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(241))}); err != nil {
		t.Fatal(err)
	}
}

func approxEq(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= 1e-9
}
