package genfunc

// This file is the compiled kernel's half of the mutation path.  A
// Tree.Apply produces an andxor.Delta; Program.Apply consumes it, either
// patching the instruction weights in place, with pooled arenas catching
// up on their next acquisition — weight-only deltas: probability updates
// and evidence conditioning — or recompiling when the leaf set changed
// (insert/delete).
//
// The weight patch is bit-identical to a cold recompile by construction:
// the Delta carries the exact float64 values a cold Compile of the mutated
// tree would read back from the nodes, and compile.go records where each
// leaf-adjacent edge weight (leafEdge/leafEdgeB) and each group's stop
// constant (leafGroup) landed in the instruction array.  Writing those
// slots makes the instruction array bitwise identical to the cold one, and
// since every instruction's arena value is a pure function of its
// children, re-evaluating the changed instructions and their ancestors
// lands every arena on the cold program's state too.

import (
	"slices"

	"consensus/internal/andxor"
)

// Apply brings p up to date with a mutation already applied to t (the tree
// p was compiled from) and returns the current program; it is ApplyAll of
// the one delta.
func (p *Program) Apply(t *andxor.Tree, d *andxor.Delta) (*Program, bool, []int32) {
	return p.ApplyAll(t, []*andxor.Delta{d})
}

// ApplyAll brings p up to date with a batch of mutations already applied
// to t (in order) and returns the current program.  Weight-only deltas
// patch p in place and return (p, true, changed), where changed is the
// dirty instruction set — the ids whose fields actually moved, the union
// over the batch; RepairRanks keys on it.  The batch amortizes the
// per-delta costs: the score-validation verdict resets once and the
// weight generation advances once (so each pooled arena catches up in one
// pass), instead of per update.  A nil or structural delta anywhere in
// the batch recompiles once, covering the whole batch (the tree already
// carries every update), and returns (Compile(t), false, nil).  ApplyAll
// requires exclusive access to p: no evaluation may run concurrently (the
// engine serializes mutations against queries per tree).
func (p *Program) ApplyAll(t *andxor.Tree, ds []*andxor.Delta) (*Program, bool, []int32) {
	for _, d := range ds {
		if d == nil || d.Structural {
			return Compile(t), false, nil
		}
	}
	if len(ds) == 0 {
		return p, true, nil
	}
	var changed []int32
	for _, d := range ds {
		changed = p.patchWeights(d, changed)
	}
	// Weight changes can flip the score-validity verdict: whether two tied
	// alternatives of different keys co-occur with positive probability
	// depends on the edge weights.
	p.valMu.Lock()
	p.valDone = false
	p.valErr = nil
	p.valMu.Unlock()
	if len(changed) > 0 {
		p.markPatched(changed)
	}
	return p, true, changed
}

// RepairRanks brings a previously computed rank distribution up to date
// after Apply/ApplyAll reported changed as the dirty instruction set; its
// caller is perfbench's genfunc layer, which times it against a cold
// sweep (the engine's carry-over calls RanksParallel directly).  An
// empty changed set means the instruction array is bitwise unchanged, so
// old is still exact and returned as-is.  Otherwise every row must be
// re-derived: the root polynomial is multilinear in the mutated block's
// edge weights, so a genuine weight change moves every key's rank row, and
// the delta path's bit-identity contract (repaired results == cold
// recomputation, float for float) rules out per-row shortcuts.  The
// re-derivation runs the standard incremental descending-score sweep on
// the patched program — whose instruction array is bitwise identical to a
// cold compile of the mutated tree — so the repaired distribution equals
// the cold one exactly.
func (p *Program) RepairRanks(old *RankDist, changed []int32, workers int) (*RankDist, error) {
	if len(changed) == 0 {
		return old, nil
	}
	return p.RanksParallel(old.K, workers)
}

// patchWeights writes the delta's edge probabilities and stop mass into
// the instruction array and adds the ids of the instructions whose fields
// actually changed to changed, once each.  Values are written
// unconditionally (the Delta holds exactly the floats a cold compile
// reads), but unchanged instructions are not reported so arenas skip
// re-evaluation entirely for no-op updates.
func (p *Program) patchWeights(d *andxor.Delta, changed []int32) []int32 {
	mark := func(id int32) {
		if !slices.Contains(changed, id) {
			changed = append(changed, id)
		}
	}
	for i, li := range d.Leaves {
		id := p.leafEdge[li]
		if id < 0 {
			// Weight deltas only describe leaf-adjacent or-edges
			// (andxor.Tree.Apply enforces it), so every listed leaf has a
			// recorded placement.
			panic("genfunc: weight delta for a leaf without an or-edge")
		}
		in := &p.insts[id]
		if p.leafEdgeB[li] {
			if in.wb != d.Probs[i] {
				mark(id)
			}
			in.wb = d.Probs[i]
		} else {
			if in.wa != d.Probs[i] {
				mark(id)
			}
			in.wa = d.Probs[i]
		}
	}
	if len(d.Leaves) > 0 {
		gid := p.leafGroup[d.Leaves[0]]
		in := &p.insts[gid]
		if in.c != d.Stop {
			mark(gid)
		}
		in.c = d.Stop
	}
	return changed
}

// markPatched records a weight patch: it advances the program's weight
// generation and stamps the changed instructions with it.  Pooled arenas
// are not touched here; each catches up on its next acquisition
// (catchUp), re-evaluating only the instructions stamped after its own
// generation.  An eager pass over the pools cannot do this job:
// sync.Pool.Get never reaches an arena parked in another P's private slot
// (where a RanksParallel worker's release lands), so a drain would leave
// arenas evaluated under the old weights behind, to corrupt a later
// shard of a rank sweep.
func (p *Program) markPatched(changed []int32) {
	p.poolMu.Lock()
	defer p.poolMu.Unlock()
	if p.instGen == nil {
		p.instGen = make([]uint64, len(p.insts))
	}
	p.wgen++
	for _, id := range changed {
		p.instGen[id] = p.wgen
	}
}

// catchUp brings a pooled arena up to the current weights: it resets the
// arena to the all-zero assignment, re-evaluates the instructions changed
// since the arena's generation along their root paths, and re-snapshots.
// Instructions outside those paths have values identical under old and
// new weights (pure functions of unchanged inputs), so the caught-up arena
// is bit-identical to a freshly built one, however many patches it missed.
func (p *Program) catchUp(ar *arena) {
	p.poolMu.Lock()
	if ar.gen == p.wgen {
		p.poolMu.Unlock()
		return
	}
	var stale []int32
	for id, g := range p.instGen {
		if g > ar.gen {
			stale = append(stale, int32(id))
		}
	}
	ar.gen = p.wgen
	p.poolMu.Unlock()
	ar.patchWeights(stale)
}
