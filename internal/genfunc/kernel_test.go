package genfunc

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"consensus/internal/andxor"
	"consensus/internal/types"
	"consensus/internal/workload"
)

// kernelTol is the agreement bound between the compiled kernel and the
// legacy recursive evaluator; the only differences are floating-point
// association orders (binarized fan-ins, score-order sweeps).
const kernelTol = 1e-12

// testTree builds one of the workload families from a seed, covering
// independent, block-disjoint and deeply nested correlation structure.
func testTree(shape, seed, n, maxAlts int) *andxor.Tree {
	rng := rand.New(rand.NewSource(int64(seed)))
	switch shape % 3 {
	case 0:
		return workload.Independent(rng, n)
	case 1:
		return workload.BID(rng, n, maxAlts)
	default:
		return workload.Nested(rng, n, maxAlts)
	}
}

func diffRankDists(t *testing.T, tr *andxor.Tree, got, want *RankDist, k int, label string) {
	t.Helper()
	for _, key := range tr.Keys() {
		for i := 1; i <= k; i++ {
			if d := math.Abs(got.PrEq(key, i) - want.PrEq(key, i)); d > kernelTol {
				t.Fatalf("%s: PrEq(%q, %d) differs by %g (got %v want %v)",
					label, key, i, d, got.PrEq(key, i), want.PrEq(key, i))
			}
			if d := math.Abs(got.PrLE(key, i) - want.PrLE(key, i)); d > kernelTol {
				t.Fatalf("%s: PrLE(%q, %d) differs by %g", label, key, i, d)
			}
		}
	}
}

// TestCompiledRanksMatchLegacy pins the batched incremental kernel to the
// legacy per-leaf recursive evaluation across tree families, sizes and
// cutoffs.
func TestCompiledRanksMatchLegacy(t *testing.T) {
	for shape := 0; shape < 3; shape++ {
		for _, n := range []int{1, 2, 7, 24} {
			for _, k := range []int{1, 3, 9, 40} {
				tr := testTree(shape, 100*shape+n, n, 3)
				got, err := Ranks(tr, k)
				if err != nil {
					t.Fatal(err)
				}
				want, err := ranksLegacy(tr, k)
				if err != nil {
					t.Fatal(err)
				}
				diffRankDists(t, tr, got, want, k, fmt.Sprintf("shape=%d n=%d k=%d", shape, n, k))
			}
		}
	}
}

// TestCompiledPrecedenceMatchesLegacy pins single-pair precedence and the
// batched matrix sweep to the legacy evaluator.
func TestCompiledPrecedenceMatchesLegacy(t *testing.T) {
	for shape := 0; shape < 3; shape++ {
		tr := testTree(shape, 7+shape, 10, 3)
		keys := tr.Keys()
		gotM := PrecedenceMatrix(tr, keys)
		wantM := precedenceMatrixLegacy(tr, keys)
		for i := range keys {
			for j := range keys {
				if d := math.Abs(gotM[i][j] - wantM[i][j]); d > kernelTol {
					t.Fatalf("shape=%d M[%d][%d] differs by %g", shape, i, j, d)
				}
			}
		}
		for _, i := range []int{0, len(keys) / 2} {
			for _, j := range []int{len(keys) - 1, 1} {
				got := Precedence(tr, keys[i], keys[j])
				want := precedenceLegacy(tr, keys[i], keys[j])
				if d := math.Abs(got - want); d > kernelTol {
					t.Fatalf("shape=%d Precedence(%q, %q) differs by %g", shape, keys[i], keys[j], d)
				}
			}
		}
	}
}

// TestCompiledPrecedenceUnknownKeys pins the kernel's edge-case behavior
// for keys absent from the tree to the legacy evaluator's: an unknown
// keyI contributes nothing, an unknown keyJ excludes nothing.
func TestCompiledPrecedenceUnknownKeys(t *testing.T) {
	tr := testTree(1, 3, 6, 2)
	keys := tr.Keys()
	if got := Precedence(tr, "no-such-key", keys[0]); got != 0 {
		t.Fatalf("unknown keyI: got %v, want 0", got)
	}
	got := Precedence(tr, keys[0], "no-such-key")
	want := precedenceLegacy(tr, keys[0], "no-such-key")
	if d := math.Abs(got - want); d > kernelTol {
		t.Fatalf("unknown keyJ: got %v, legacy %v", got, want)
	}
	gotM := PrecedenceMatrix(tr, []string{keys[0], "no-such-key", keys[1]})
	wantM := precedenceMatrixLegacy(tr, []string{keys[0], "no-such-key", keys[1]})
	for i := range gotM {
		for j := range gotM[i] {
			if d := math.Abs(gotM[i][j] - wantM[i][j]); d > kernelTol {
				t.Fatalf("matrix with unknown key: M[%d][%d] differs by %g", i, j, d)
			}
		}
	}
}

// TestPrecedenceMatrixDuplicateKeys checks that a key listed twice fills
// all of its rows and columns like the legacy per-cell loop did.
func TestPrecedenceMatrixDuplicateKeys(t *testing.T) {
	tr := testTree(1, 4, 5, 2)
	keys := tr.Keys()
	dup := []string{keys[0], keys[1], keys[0]}
	got := PrecedenceMatrix(tr, dup)
	want := precedenceMatrixLegacy(tr, dup)
	for i := range dup {
		for j := range dup {
			if d := math.Abs(got[i][j] - want[i][j]); d > kernelTol {
				t.Fatalf("M[%d][%d] = %v, legacy %v", i, j, got[i][j], want[i][j])
			}
		}
	}
	if got[0][1] != got[2][1] {
		t.Fatalf("duplicate rows differ: %v vs %v", got[0][1], got[2][1])
	}
}

// TestMaxPathLen pins the compiled path-length statistic on shapes with
// known depth: a balanced BID tree stays logarithmic in its block count,
// and a single leaf is a one-instruction path.
func TestMaxPathLen(t *testing.T) {
	single := Compile(andxor.MustNew(andxor.NewOr(
		[]*andxor.Node{andxor.NewLeaf(types.Leaf{Key: "t1", Score: 1})}, []float64{0.5})))
	if got := single.MaxPathLen(); got != 2 {
		t.Fatalf("or-over-leaf: MaxPathLen = %d, want 2", got)
	}
	tr := workload.BID(rand.New(rand.NewSource(3)), 64, 2)
	p := Compile(tr)
	// leaf -> block sum -> ~log2(64) binarized product levels -> root.
	if got := p.MaxPathLen(); got < 7 || got > 10 {
		t.Fatalf("BID(64): MaxPathLen = %d, want ~8", got)
	}
}

// TestCompiledWorldSizeDistMatchesLegacy pins the compiled one-pass
// world-size evaluation to the legacy recursive one.
func TestCompiledWorldSizeDistMatchesLegacy(t *testing.T) {
	for shape := 0; shape < 3; shape++ {
		for _, n := range []int{1, 5, 33} {
			tr := testTree(shape, 11*shape+n, n, 3)
			got := WorldSizeDist(tr)
			want := worldSizeDistLegacy(tr)
			if len(got) != len(want) {
				t.Fatalf("shape=%d n=%d: length %d vs legacy %d", shape, n, len(got), len(want))
			}
			for i := range got {
				if d := math.Abs(got[i] - want[i]); d > kernelTol {
					t.Fatalf("shape=%d n=%d: coeff %d differs by %g", shape, n, i, d)
				}
			}
		}
	}
}

// TestRanksParallelBitIdentical verifies the sharded kernel reproduces the
// sequential kernel bit for bit at every worker count: arena values are
// pure functions of the assignment and the merge runs in leaf order.
func TestRanksParallelBitIdentical(t *testing.T) {
	tr := testTree(2, 5, 30, 3)
	k := 8
	want, err := Ranks(tr, k)
	if err != nil {
		t.Fatal(err)
	}
	p := Compile(tr)
	for _, workers := range []int{1, 2, 3, 7, 64} {
		got, err := p.RanksParallel(k, workers)
		if err != nil {
			t.Fatal(err)
		}
		if msg := prefixMismatch(got, want, k); msg != "" {
			t.Fatalf("workers=%d: %s", workers, msg)
		}
	}
}

// TestRanksParallelMatchesSequential checks the sharded kernel against the
// sequential one on random BID trees and cutoffs, including workers=0
// (GOMAXPROCS).
func TestRanksParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	for trial := 0; trial < 10; trial++ {
		tr := workload.BID(rng, 10+rng.Intn(20), 3)
		k := 1 + rng.Intn(6)
		seq, err := Ranks(tr, k)
		if err != nil {
			t.Fatal(err)
		}
		p := Compile(tr)
		for _, workers := range []int{0, 1, 2, 7} {
			par, err := p.RanksParallel(k, workers)
			if err != nil {
				t.Fatal(err)
			}
			if msg := prefixMismatch(par, seq, k); msg != "" {
				t.Fatalf("trial %d workers %d: %s", trial, workers, msg)
			}
		}
	}
}

// TestRanksParallelValidation checks that a zero cutoff is rejected on the
// sharded path as on the sequential one.
func TestRanksParallelValidation(t *testing.T) {
	p := Compile(workload.Independent(rand.New(rand.NewSource(212)), 4))
	for _, workers := range []int{1, 4} {
		if _, err := p.RanksParallel(0, workers); err == nil {
			t.Fatalf("workers=%d: k=0 must be rejected", workers)
		}
	}
}

// TestRanksParallelNestedTrees checks the sharded kernel on a deeply nested
// tree, where leaf-to-root paths cross several and/or levels.
func TestRanksParallelNestedTrees(t *testing.T) {
	tr := workload.Nested(rand.New(rand.NewSource(213)), 12, 2)
	seq, err := Ranks(tr, 4)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Compile(tr).RanksParallel(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if msg := prefixMismatch(par, seq, 4); msg != "" {
		t.Fatal(msg)
	}
}

// TestCompiledRanksZeroSteadyStateAllocs proves the incremental kernel's
// steady state allocates nothing: with the program, arena and output rows
// reused, a full batched rank evaluation performs zero heap allocations.
func TestCompiledRanksZeroSteadyStateAllocs(t *testing.T) {
	tr := workload.BID(rand.New(rand.NewSource(9)), 24, 2)
	p := Compile(tr)
	k := 6
	ar := newArena(p, k-1, 1)
	contrib := make([]float64, p.NumLeaves()*k)
	if allocs := testing.AllocsPerRun(10, func() {
		p.ranksRange(ar, k, 0, p.NumLeaves(), contrib)
	}); allocs != 0 {
		t.Fatalf("steady-state rank kernel allocates %v objects per run, want 0", allocs)
	}
}

// FuzzCompiledKernel cross-checks the compiled kernel against the legacy
// recursive evaluator on randomized and/xor trees from every workload
// family: rank distributions, precedence probabilities and world-size
// distributions must agree within 1e-12.
func FuzzCompiledKernel(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(8), uint8(5))
	f.Add(int64(2), uint8(1), uint8(12), uint8(3))
	f.Add(int64(3), uint8(2), uint8(20), uint8(1))
	f.Add(int64(4), uint8(4), uint8(1), uint8(9))
	f.Add(int64(5), uint8(5), uint8(31), uint8(12))
	f.Fuzz(func(t *testing.T, seed int64, shape, size, cutoff uint8) {
		n := 1 + int(size)%32
		k := 1 + int(cutoff)%12
		tr := testTree(int(shape), int(seed%1_000_003), n, 1+int(shape/3)%4)
		got, gotErr := Ranks(tr, k)
		want, wantErr := ranksLegacy(tr, k)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("error mismatch: kernel %v, legacy %v", gotErr, wantErr)
		}
		if gotErr == nil {
			diffRankDists(t, tr, got, want, k, "fuzz ranks")
		}
		keys := tr.Keys()
		rng := rand.New(rand.NewSource(seed ^ 0x5ca1e))
		for trial := 0; trial < 3; trial++ {
			i, j := keys[rng.Intn(len(keys))], keys[rng.Intn(len(keys))]
			gp, wp := Precedence(tr, i, j), precedenceLegacy(tr, i, j)
			if d := math.Abs(gp - wp); d > kernelTol {
				t.Fatalf("Precedence(%q, %q) differs by %g", i, j, d)
			}
		}
		gw, ww := WorldSizeDist(tr), worldSizeDistLegacy(tr)
		if len(gw) != len(ww) {
			t.Fatalf("world-size length %d vs legacy %d", len(gw), len(ww))
		}
		for i := range gw {
			if d := math.Abs(gw[i] - ww[i]); d > kernelTol {
				t.Fatalf("world-size coeff %d differs by %g", i, d)
			}
		}
		ge, geErr := ExpectedRank(tr)
		we, weErr := expectedRankLegacy(tr)
		if (geErr == nil) != (weErr == nil) {
			t.Fatalf("ExpectedRank error mismatch: kernel %v, legacy %v", geErr, weErr)
		}
		if geErr == nil {
			for _, key := range keys {
				if d := math.Abs(ge[key] - we[key]); d > kernelTol*math.Max(1, math.Abs(we[key])) {
					t.Fatalf("E[rank(%s)] differs by %g", key, d)
				}
			}
		}
		if gv, wv := ValidateScores(tr), validateScoresLegacy(tr); (gv == nil) != (wv == nil) {
			t.Fatalf("ValidateScores verdict mismatch: kernel %v, legacy %v", gv, wv)
		}
	})
}

// BenchmarkCompiledRanksSteadyState measures the allocation-free steady
// state of the incremental rank kernel (compile and arena setup excluded).
func BenchmarkCompiledRanksSteadyState(b *testing.B) {
	tr := workload.BID(rand.New(rand.NewSource(20)), 64, 2)
	p := Compile(tr)
	k := 10
	ar := newArena(p, k-1, 1)
	contrib := make([]float64, p.NumLeaves()*k)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ranksRange(ar, k, 0, p.NumLeaves(), contrib)
	}
}

// BenchmarkRanksParallel compares the sequential rank kernel with the
// sharded one (GOMAXPROCS workers) on a warm program.
func BenchmarkRanksParallel(b *testing.B) {
	p := Compile(workload.BID(rand.New(rand.NewSource(28)), 192, 2))
	k := 10
	b.Run("sequential", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := p.Ranks(k); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := p.RanksParallel(k, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRanksCompiledVsLegacy compares the end-to-end compiled path
// (compile + arena + batch) against the legacy per-leaf evaluator.
func BenchmarkRanksCompiledVsLegacy(b *testing.B) {
	tr := workload.BID(rand.New(rand.NewSource(21)), 128, 2)
	k := 10
	b.Run("compiled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Ranks(tr, k); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("legacy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ranksLegacy(tr, k); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestRanksCutoffPrefixBitIdentical pins the cross-cutoff contract the
// engine's cache reuse depends on: Ranks(t, k) is a bit-identical prefix
// of Ranks(t, K) for every 1 <= k < K <= 32, so a k-answer served from a
// wider resident distribution is the answer a cutoff-k distribution gives.
// k=1 exercises the scalar dual-number arena (x-cap 0), whose accumulation
// order must match the generic kernels' exactly — including adding an
// or-node's stop constant last (the regression this test pins caught the
// dual kernel folding it in early, a 1-ulp divergence on trees with
// multi-child or-nodes).  The 128-block BID tree is the serving
// benchmark's tree shape.
func TestRanksCutoffPrefixBitIdentical(t *testing.T) {
	const maxK = 32
	for _, tr := range prefixTestTrees() {
		rds := make([]*RankDist, maxK+1)
		for k := 1; k <= maxK; k++ {
			rd, err := Ranks(tr, k)
			if err != nil {
				t.Fatal(err)
			}
			rds[k] = rd
		}
		for wideK := 2; wideK <= maxK; wideK++ {
			for k := 1; k < wideK; k++ {
				if msg := prefixMismatch(rds[k], rds[wideK], k); msg != "" {
					t.Fatalf("k=%d vs K=%d prefix: %s (tree of %d keys)", k, wideK, msg, len(tr.Keys()))
				}
			}
		}
	}
}

// prefixTestTrees are the cross-cutoff test shapes: BID trees with
// multi-child or-nodes (where the dual kernel's association order once
// diverged), the three workload shapes, and a 128-block BID tree.
func prefixTestTrees() []*andxor.Tree {
	trees := []*andxor.Tree{
		testTree(1, 0, 12, 3),
		testTree(1, 0, 30, 3),
		testTree(1, 3, 6, 3),
		testTree(1, 128, 128, 2),
	}
	for shape := 0; shape < 3; shape++ {
		trees = append(trees, testTree(shape, 51+shape, 18, 3))
	}
	return trees
}

// prefixMismatch compares the rank rows of narrow and wide up to rank k,
// bit for bit, and describes the first difference ("" when none).
func prefixMismatch(narrow, wide *RankDist, k int) string {
	for r, key := range narrow.Keys() {
		ne, we := narrow.EqRow(r), wide.EqRow(r)
		nl, wl := narrow.LERow(r), wide.LERow(r)
		for i := 1; i <= k; i++ {
			if math.Float64bits(ne[i]) != math.Float64bits(we[i]) {
				return fmt.Sprintf("Pr(r(%s) = %d) = %x vs %x", key, i, ne[i], we[i])
			}
			if math.Float64bits(nl[i]) != math.Float64bits(wl[i]) {
				return fmt.Sprintf("Pr(r(%s) <= %d) = %x vs %x", key, i, nl[i], wl[i])
			}
		}
	}
	return ""
}
