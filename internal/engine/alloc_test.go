package engine

import (
	"testing"
)

// Allocation-regression pinning for warm queries running on the genfunc
// arena pool.  The result cache is disabled in these tests, so every
// query recomputes its rank distribution through the compiled kernel —
// the arena, the scratch contribution rows and the compiled program are
// all recycled per tree, so the only allocations left are the returned
// RankDist (a struct plus two flat rows), the response assembly (maps,
// row copies, the cache-key string) and, on the sharded path, the worker
// goroutines.  Before cross-request pooling each of these queries
// allocated the whole evaluation arena (≈1500 objects on this workload).

// warmRankAllocBudget bounds one warm uncached OpRankDist query through
// Engine.Do: measured ≈45 objects (response maps and per-key dist copies
// dominate); the bound leaves slack for harness noise while staying two
// orders of magnitude under the pre-pooling cost.
const warmRankAllocBudget = 96

func measureWarmRankAllocs(t *testing.T, rankWorkers int) float64 {
	t.Helper()
	e, _ := newTestEngine(t, Options{CacheEntries: -1})
	e.rankWorkers = rankWorkers
	reqs := []Request{{Tree: "db", Op: OpRankDist, K: 10}}
	if resp := e.Do(reqs)[0]; !resp.Ok() { // warm program, pools and scratch
		t.Fatal(resp.Error)
	}
	return testing.AllocsPerRun(20, func() {
		if resp := e.Do(reqs)[0]; !resp.Ok() {
			t.Fatal(resp.Error)
		}
	})
}

// TestEngineWarmRankQueryAllocsSequential pins the steady-state
// allocation count of warm uncached rank queries on the single-arena
// path.
func TestEngineWarmRankQueryAllocsSequential(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; allocation pinning is meaningless")
	}
	if allocs := measureWarmRankAllocs(t, 1); allocs > warmRankAllocBudget {
		t.Fatalf("warm sequential rank query allocates %v objects per run, budget %d", allocs, warmRankAllocBudget)
	}
}

// TestEngineWarmRankQueryAllocsParallel pins the sharded path: each
// worker draws its arena from the same pool, so parallelism adds only the
// goroutine fan-out, not per-shard arenas.
func TestEngineWarmRankQueryAllocsParallel(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; allocation pinning is meaningless")
	}
	// The goroutine fan-out costs a few objects per worker on top of the
	// sequential budget.
	if allocs := measureWarmRankAllocs(t, 4); allocs > warmRankAllocBudget+32 {
		t.Fatalf("warm sharded rank query allocates %v objects per run, budget %d", allocs, warmRankAllocBudget+32)
	}
}

// TestEngineWarmKernelZeroArenaAllocs proves the arena pool itself is
// allocation-free in the engine's steady state: the compiled kernel batch
// behind a rank query allocates exactly the returned RankDist (one struct
// + two flat rows), nothing per-arena and nothing per-instruction.
func TestEngineWarmKernelZeroArenaAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; allocation pinning is meaningless")
	}
	e, _ := newTestEngine(t, Options{})
	e.mu.RLock()
	te := e.trees["db"]
	e.mu.RUnlock()
	p := te.program()
	if _, err := p.Ranks(10); err != nil { // warm the pool
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := p.Ranks(10); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Fatalf("warm kernel batch allocates %v objects per run, want <= 3 (the RankDist)", allocs)
	}
}

// TestReRegisterInvalidatesCompiledProgram pins the generation-checked
// pool invalidation: replacing a tree name swaps in a fresh treeEntry,
// whose compiled program owns fresh arena pools — queries after
// re-registration can never evaluate on arenas sized or valued for the
// old generation's tree.
func TestReRegisterInvalidatesCompiledProgram(t *testing.T) {
	e, tr := newTestEngine(t, Options{})
	e.mu.RLock()
	oldTE := e.trees["db"]
	e.mu.RUnlock()
	oldProg := oldTE.program()
	if resp := e.Query(Request{Tree: "db", Op: OpRankDist, K: 5}); !resp.Ok() {
		t.Fatal(resp.Error)
	}
	if err := e.Register("db", tr); err != nil { // same tree, new generation
		t.Fatal(err)
	}
	e.mu.RLock()
	newTE := e.trees["db"]
	e.mu.RUnlock()
	if newTE == oldTE {
		t.Fatal("re-registration kept the old treeEntry")
	}
	if newTE.program() == oldProg {
		t.Fatal("re-registration kept the old compiled program (and its arena pools)")
	}
	if resp := e.Query(Request{Tree: "db", Op: OpRankDist, K: 5}); !resp.Ok() {
		t.Fatal(resp.Error)
	}
}

// BenchmarkEngineWarmUncachedRankDist measures the per-query cost of a
// rank-distribution query with result caching off and the arena pool
// warm: the steady-state serving cost of a cache-miss workload.
func BenchmarkEngineWarmUncachedRankDist(b *testing.B) {
	e := New(Options{CacheEntries: -1})
	e.rankWorkers = 1
	if err := e.Register("db", benchTree()); err != nil {
		b.Fatal(err)
	}
	req := Request{Tree: "db", Op: OpRankDist, K: benchK}
	if resp := e.Query(req); !resp.Ok() {
		b.Fatal(resp.Error)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if resp := e.Query(req); !resp.Ok() {
			b.Fatal(resp.Error)
		}
	}
}
