package numeric

import (
	"math"
	"testing"
)

func TestHarmonic(t *testing.T) {
	cases := []struct {
		k    int
		want float64
	}{
		{0, 0},
		{1, 1},
		{2, 1.5},
		{3, 1.0 + 0.5 + 1.0/3.0},
		{4, 1.0 + 0.5 + 1.0/3.0 + 0.25},
	}
	for _, c := range cases {
		if got := Harmonic(c.k); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Harmonic(%d) = %g, want %g", c.k, got, c.want)
		}
	}
}

func TestAlmostEqual(t *testing.T) {
	if !AlmostEqual(1, 1, 0) {
		t.Fatal("identical values must compare equal")
	}
	if !AlmostEqual(1e9, 1e9*(1+1e-12), 1e-9) {
		t.Fatal("relative tolerance should apply at large magnitude")
	}
	if AlmostEqual(0, 1e-3, 1e-9) {
		t.Fatal("clearly different values must not compare equal")
	}
	if !AlmostEqual(0, 1e-12, 1e-9) {
		t.Fatal("absolute tolerance should apply near zero")
	}
}
