package genfunc

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"consensus/internal/andxor"
	"consensus/internal/types"
)

// assertProgramsAgree pins a patched program to a cold compile of the same
// (mutated) tree: the instruction arrays must be bitwise identical, and
// every kernel statistic must agree EXACTLY (float64 ==, not a tolerance)
// — the delta path's contract is bit-identity with re-registration, not
// mere numerical closeness.
func assertProgramsAgree(t *testing.T, tr *andxor.Tree, got *Program, label string) {
	t.Helper()
	want := Compile(tr)
	if !reflect.DeepEqual(got.insts, want.insts) {
		t.Fatalf("%s: patched instruction array differs from cold compile", label)
	}
	k := tr.NumLeaves()
	if k > 6 {
		k = 6
	}
	gr, gerr := got.Ranks(k)
	wr, werr := want.Ranks(k)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("%s: Ranks error mismatch: patched %v, cold %v", label, gerr, werr)
	}
	if gerr == nil {
		if !reflect.DeepEqual(gr.eq, wr.eq) || !reflect.DeepEqual(gr.le, wr.le) {
			t.Fatalf("%s: RankDist differs from cold compile", label)
		}
		ge, _ := got.ExpectedRank()
		we, _ := want.ExpectedRank()
		if !reflect.DeepEqual(ge, we) {
			t.Fatalf("%s: ExpectedRank differs: patched %v, cold %v", label, ge, we)
		}
	}
	if gs, ws := got.WorldSizeDist(), want.WorldSizeDist(); !reflect.DeepEqual(gs, ws) {
		t.Fatalf("%s: WorldSizeDist differs: patched %v, cold %v", label, gs, ws)
	}
	if keys := tr.Keys(); len(keys) >= 2 {
		if gp, wp := got.Precedence(keys[0], keys[1]), want.Precedence(keys[0], keys[1]); gp != wp {
			t.Fatalf("%s: Precedence differs: patched %v, cold %v", label, gp, wp)
		}
	}
}

// randomUpdate draws one update against the tree's current leaves; invalid
// draws (budget overruns, zero-probability evidence, non-leaf blocks) are
// rejected by Tree.Apply and simply skipped by the callers.
func randomUpdate(rng *rand.Rand, tr *andxor.Tree) andxor.Update {
	alts := tr.LeafAlternatives()
	a := alts[rng.Intn(len(alts))]
	switch rng.Intn(7) {
	case 0:
		return andxor.Update{Kind: andxor.UpdateSetProb, Key: a.Key, Score: a.Score, Prob: rng.Float64()}
	case 1:
		return andxor.Update{Kind: andxor.UpdateSetProb, Key: a.Key, Score: a.Score, Prob: rng.Float64(), Renormalize: true}
	case 2:
		return andxor.Update{Kind: andxor.UpdateInsert, Key: a.Key, Score: 1000 + rng.Float64()*1000, Prob: rng.Float64() * 0.2, Label: "inserted"}
	case 3:
		return andxor.Update{Kind: andxor.UpdateDelete, Key: a.Key, Score: a.Score}
	case 4:
		return andxor.Update{Kind: andxor.EvidencePresent, Key: a.Key}
	case 5:
		return andxor.Update{Kind: andxor.EvidenceAbsent, Key: a.Key}
	default:
		return andxor.Update{Kind: andxor.EvidenceChoose, Key: a.Key, Score: a.Score}
	}
}

// TestApplyFixedDeltas walks a hand-picked update sequence over a small
// BID tree, checking bit-identity with a cold compile after every step.
func TestApplyFixedDeltas(t *testing.T) {
	tr, err := andxor.BID([]andxor.Block{
		{Alternatives: []types.Leaf{{Key: "t1", Score: 8}, {Key: "t1", Score: 2}}, Probs: []float64{0.5, 0.3}},
		{Alternatives: []types.Leaf{{Key: "t2", Score: 6}}, Probs: []float64{0.6}},
		{Alternatives: []types.Leaf{{Key: "t3", Score: 4}, {Key: "t3", Score: 1}}, Probs: []float64{0.25, 0.25}},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := Compile(tr)
	steps := []andxor.Update{
		{Kind: andxor.UpdateSetProb, Key: "t1", Score: 8, Prob: 0.1},
		{Kind: andxor.UpdateSetProb, Key: "t1", Score: 2, Prob: 0.8, Renormalize: true},
		{Kind: andxor.EvidencePresent, Key: "t3"},
		{Kind: andxor.EvidenceAbsent, Key: "t2"},
		{Kind: andxor.UpdateInsert, Key: "t2", Score: 9, Prob: 0.5, Label: "late"},
		{Kind: andxor.EvidenceChoose, Key: "t3", Score: 4},
		{Kind: andxor.UpdateDelete, Key: "t1", Score: 2},
	}
	for i, u := range steps {
		d, err := tr.Apply(u)
		if err != nil {
			t.Fatalf("step %d (%s %s): %v", i, u.Kind, u.Key, err)
		}
		np, patched, _ := p.Apply(tr, d)
		if patched != !d.Structural {
			t.Fatalf("step %d: patched = %v for structural = %v", i, patched, d.Structural)
		}
		if patched && np != p {
			t.Fatalf("step %d: weight-only delta returned a different program", i)
		}
		p = np
		assertProgramsAgree(t, tr, p, fmt.Sprintf("step %d (%s %s)", i, u.Kind, u.Key))
	}
}

// TestApplyRandomUpdateStreams drives long random update streams over the
// workload families (independent, block-disjoint, nested correlations),
// maintaining one program through Apply and differencing it against cold
// compiles along the way.
func TestApplyRandomUpdateStreams(t *testing.T) {
	for shape := 0; shape < 3; shape++ {
		for _, n := range []int{3, 8, 20} {
			seed := int64(1000*shape + n)
			rng := rand.New(rand.NewSource(seed))
			tr := testTree(shape, int(seed), n, 3)
			p := Compile(tr)
			applied := 0
			for step := 0; step < 40; step++ {
				u := randomUpdate(rng, tr)
				d, err := tr.Apply(u)
				if err != nil {
					continue // invalid draw; tree untouched by contract
				}
				applied++
				p, _, _ = p.Apply(tr, d)
				if applied%7 == 0 {
					assertProgramsAgree(t, tr, p, fmt.Sprintf("shape %d n %d step %d", shape, n, step))
				}
			}
			if applied == 0 {
				t.Fatalf("shape %d n %d: no update applied", shape, n)
			}
			assertProgramsAgree(t, tr, p, fmt.Sprintf("shape %d n %d final", shape, n))
		}
	}
}

// TestApplyPatchesPooledArenas warms every arena shape the kernels pool
// (rank (k-1,1), expected-rank (1,1), precedence (0,1), validation (2,0),
// world-size scratch), then mutates and checks the recycled arenas produce
// bit-identical results — the pooled snapshots must be re-evaluated under
// the new weights, not merely the instruction array.
func TestApplyPatchesPooledArenas(t *testing.T) {
	tr := testTree(1, 7, 12, 3)
	p := Compile(tr)
	keys := tr.Keys()
	warm := func() {
		if _, err := p.Ranks(4); err != nil {
			t.Fatal(err)
		}
		if _, err := p.ExpectedRank(); err != nil {
			t.Fatal(err)
		}
		p.WorldSizeDist()
		p.Precedence(keys[0], keys[1])
	}
	warm()
	alts := tr.LeafAlternatives()
	d, err := tr.Apply(andxor.Update{Kind: andxor.UpdateSetProb, Key: alts[0].Key, Score: alts[0].Score, Prob: 0.9, Renormalize: true})
	if err != nil {
		t.Fatal(err)
	}
	if p, _, _ = p.Apply(tr, d); p == nil {
		t.Fatal("nil program")
	}
	assertProgramsAgree(t, tr, p, "first patch with warm pools")

	// Patch again on the already-patched pools: the re-snapshotted arenas
	// must keep tracking the instruction array through repeated mutations.
	warm()
	d, err = tr.Apply(andxor.Update{Kind: andxor.EvidenceAbsent, Key: alts[0].Key})
	if err != nil {
		t.Fatal(err)
	}
	p, _, _ = p.Apply(tr, d)
	assertProgramsAgree(t, tr, p, "second patch with warm pools")
}

// TestApplyPatchesArenasParkedOnOtherPs pins the lazy arena catch-up:
// arenas released by goroutines running on other Ps sit in those Ps'
// private pool slots, where no drain by the patching goroutine reaches
// them, and must never be handed out again under the old weights.  Each
// round parks arenas from concurrent evaluations, patches the weights, and
// checks concurrent evaluations against a cold compile float for float.
func TestApplyPatchesArenasParkedOnOtherPs(t *testing.T) {
	tr := testTree(1, 9, 24, 3)
	p := Compile(tr)
	rng := rand.New(rand.NewSource(9))
	g := 2 * runtime.GOMAXPROCS(0)
	concurrently := func(f func() error) {
		var wg sync.WaitGroup
		errs := make(chan error, g)
		for i := 0; i < g; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs <- f()
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	for round := 0; round < 20; round++ {
		concurrently(func() error {
			_, err := p.Ranks(4)
			return err
		})
		alts := tr.LeafAlternatives()
		a := alts[rng.Intn(len(alts))]
		d, err := tr.Apply(andxor.Update{Kind: andxor.UpdateSetProb, Key: a.Key, Score: a.Score, Prob: 0.05 + 0.9*rng.Float64(), Renormalize: true})
		if err != nil {
			t.Fatal(err)
		}
		p, _, _ = p.Apply(tr, d)
		want, err := Compile(tr).Ranks(4)
		if err != nil {
			t.Fatal(err)
		}
		concurrently(func() error {
			got, err := p.Ranks(4)
			if err != nil {
				return err
			}
			if !reflect.DeepEqual(got.eq, want.eq) {
				return fmt.Errorf("round %d: Ranks on a patched program differs from a cold compile", round)
			}
			return nil
		})
	}
}

// TestApplyResetsScoreValidation pins the ValidateScores cache reset: a
// cross-key tie is harmless while the tied alternatives cannot co-occur
// (one has probability 0), and must start failing once a weight update
// gives the pair positive co-occurrence probability.
func TestApplyResetsScoreValidation(t *testing.T) {
	tr, err := andxor.BID([]andxor.Block{
		{Alternatives: []types.Leaf{{Key: "a", Score: 5}}, Probs: []float64{0.5}},
		{Alternatives: []types.Leaf{{Key: "b", Score: 5}}, Probs: []float64{0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := Compile(tr)
	if err := p.ValidateScores(); err != nil {
		t.Fatalf("zero-probability tie rejected: %v", err)
	}
	d, err := tr.Apply(andxor.Update{Kind: andxor.UpdateSetProb, Key: "b", Score: 5, Prob: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	p, _, _ = p.Apply(tr, d)
	if err := p.ValidateScores(); err == nil {
		t.Fatal("co-occurring cross-key tie accepted after weight patch")
	}
	// And back: conditioning the tie away must clear the verdict again.
	d, err = tr.Apply(andxor.Update{Kind: andxor.EvidenceAbsent, Key: "b"})
	if err != nil {
		t.Fatal(err)
	}
	p, _, _ = p.Apply(tr, d)
	if err := p.ValidateScores(); err != nil {
		t.Fatalf("tie still rejected after conditioning it away: %v", err)
	}
}

// TestApplyAllMatchesSequential pins the batched program patch to the
// sequential one: one ApplyAll over a batch of weight-only deltas must
// leave the program in exactly the state the per-delta Apply loop reaches,
// and both bit-identical to a cold compile of the final tree.
func TestApplyAllMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	tr := testTree(1, 9, 10, 3)
	ctrl := tr.Clone()
	p := Compile(tr)
	cp := Compile(ctrl)

	var us []andxor.Update
	alts := tr.LeafAlternatives()
	for i := 0; i < 12; i++ {
		a := alts[rng.Intn(len(alts))]
		us = append(us, andxor.Update{Kind: andxor.UpdateSetProb, Key: a.Key, Score: a.Score, Prob: rng.Float64(), Renormalize: true})
	}

	ds, err := tr.ApplyAll(us)
	if err != nil {
		t.Fatal(err)
	}
	np, patched, changed := p.ApplyAll(tr, ds)
	if !patched || np != p {
		t.Fatalf("weight-only batch: patched=%v, new program=%v", patched, np != p)
	}
	if len(changed) == 0 {
		t.Fatal("weight-only batch reported no changed instructions")
	}

	for i, u := range us {
		d, err := ctrl.Apply(u)
		if err != nil {
			t.Fatalf("control step %d: %v", i, err)
		}
		cp, _, _ = cp.Apply(ctrl, d)
	}
	if !reflect.DeepEqual(p.insts, cp.insts) {
		t.Fatal("batched and sequential patches leave different instruction arrays")
	}
	assertProgramsAgree(t, tr, p, "ApplyAll batch")
}

// TestApplyAllStructuralRecompiles pins the batch fallback: any structural
// delta in the batch recompiles once against the final tree.
func TestApplyAllStructuralRecompiles(t *testing.T) {
	tr := testTree(1, 5, 8, 3)
	p := Compile(tr)
	alts := tr.LeafAlternatives()
	ds, err := tr.ApplyAll([]andxor.Update{
		{Kind: andxor.UpdateSetProb, Key: alts[0].Key, Score: alts[0].Score, Prob: 0.4},
		{Kind: andxor.UpdateInsert, Key: alts[1].Key, Score: 2000, Prob: 0.1, Label: "late"},
	})
	if err != nil {
		t.Fatal(err)
	}
	np, patched, changed := p.ApplyAll(tr, ds)
	if patched {
		t.Fatal("structural batch reported patched")
	}
	if changed != nil {
		t.Fatalf("structural batch reported changed instructions %v", changed)
	}
	assertProgramsAgree(t, tr, np, "structural batch recompile")
}

// TestRepairReusesResultsOnNoOp pins the cheap half of the repair
// contract: an empty dirty set means the instruction array is bitwise
// unchanged, so RepairRanks hands back the original distribution without
// recomputation (pointer identity, not just value equality).
func TestRepairReusesResultsOnNoOp(t *testing.T) {
	tr := testTree(0, 3, 6, 3)
	p := Compile(tr)
	alts := tr.LeafAlternatives()
	set := andxor.Update{Kind: andxor.UpdateSetProb, Key: alts[0].Key, Score: alts[0].Score, Prob: 0.37}
	if d, err := tr.Apply(set); err != nil {
		t.Fatal(err)
	} else {
		p, _, _ = p.Apply(tr, d)
	}
	old, err := p.Ranks(4)
	if err != nil {
		t.Fatal(err)
	}

	// Re-assert the probability the alternative already has: a no-op.
	d, err := tr.Apply(set)
	if err != nil {
		t.Fatal(err)
	}
	_, patched, changed := p.Apply(tr, d)
	if !patched || len(changed) != 0 {
		t.Fatalf("no-op update: patched=%v changed=%v", patched, changed)
	}
	got, err := p.RepairRanks(old, changed, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got != old {
		t.Fatal("RepairRanks recomputed on an empty dirty set")
	}
}

// TestRepairMatchesCold pins the expensive half: after a genuine weight
// change, the repaired rank distribution and the incremental world-size
// distribution (the persistent size buffer, evaluated before the patch
// and re-derived along the dirty paths after it) equal a cold compile of
// the mutated tree float for float, across all three workload shapes and
// both worker counts.
func TestRepairMatchesCold(t *testing.T) {
	for shape := 0; shape < 3; shape++ {
		tr := testTree(shape, 17+shape, 12, 3)
		p := Compile(tr)
		alts := tr.LeafAlternatives()
		old, err := p.Ranks(5)
		if err != nil {
			t.Fatal(err)
		}
		p.WorldSizeDist()
		d, err := tr.Apply(andxor.Update{Kind: andxor.UpdateSetProb, Key: alts[0].Key, Score: alts[0].Score, Prob: 0.31, Renormalize: true})
		if err != nil {
			t.Fatal(err)
		}
		_, patched, changed := p.Apply(tr, d)
		if !patched || len(changed) == 0 {
			t.Fatalf("shape %d: patched=%v changed=%v", shape, patched, changed)
		}
		cold := Compile(tr)
		for _, workers := range []int{1, 4} {
			got, err := p.RepairRanks(old, changed, workers)
			if err != nil {
				t.Fatal(err)
			}
			want, err := cold.Ranks(old.K)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.eq, want.eq) || !reflect.DeepEqual(got.le, want.le) {
				t.Fatalf("shape %d workers %d: repaired RankDist differs from cold compile", shape, workers)
			}
		}
		if got, want := p.WorldSizeDist(), cold.WorldSizeDist(); !reflect.DeepEqual(got, want) {
			t.Fatalf("shape %d: incremental WorldSizeDist differs from cold compile", shape)
		}
	}
}

// FuzzApplyDelta fuzzes (seed, shape, stream length) over the workload
// families, differencing the maintained program against a cold compile at
// the end of each stream.
func FuzzApplyDelta(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(5))
	f.Add(int64(42), uint8(1), uint8(12))
	f.Add(int64(7), uint8(2), uint8(25))
	f.Fuzz(func(t *testing.T, seed int64, shape, steps uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(uint64(seed)%17)
		tr := testTree(int(shape%3), int(uint64(seed)%1000), n, 3)
		p := Compile(tr)
		for i := 0; i < int(steps%32); i++ {
			d, err := tr.Apply(randomUpdate(rng, tr))
			if err != nil {
				continue
			}
			p, _, _ = p.Apply(tr, d)
		}
		assertProgramsAgree(t, tr, p, "fuzz stream end")
	})
}
