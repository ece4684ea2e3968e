package engine

// This file serves OpMutate and OpCondition: in-place updates and evidence
// conditioning of registered trees as first-class engine operations.  The
// delta path has three layers, each bit-identical to the cold alternative
// (re-registering the mutated tree):
//
//   - andxor.Tree.Apply/ApplyAll validates and patches the tree, returning
//     Deltas (ApplyAll is all-or-nothing: a failing batch leaves the tree
//     untouched);
//   - genfunc.Program.Apply/ApplyAll consumes the Deltas, patching the
//     compiled instruction weights and every pooled arena (weight-only
//     deltas) or recompiling (structural deltas), and reports the dirty
//     instruction set;
//   - the engine bumps the entry's mutation epoch, which retargets every
//     cache key, and carries one cached intermediate over: after
//     weight-only deltas against a resident program, a resident indexed
//     rank distribution (the entry's one cutoff, rankK) is re-derived
//     into the new epoch's namespace by the call a read's cache miss
//     makes.  Everything else — the rank entry after structural deltas or
//     a rank error, the world-size distribution, the membership map, the
//     other intermediates — is purged with the old epoch and rebuilds on
//     its next read.
//
// A batched request (Request.Mutations / Request.Evidences) applies N
// updates under one entry write lock with a single epoch bump and one
// repair pass, amortizing the per-mutation costs (arena patching, epoch
// purge, the rank repair sweep) across the whole batch.
//
// Ordering discipline: the mutation holds the entry's write lock across
// all three layers, so a query (which holds the read lock across its
// whole dispatch) sees either the complete old state or the complete new
// state, never a tree newer than its program or cache keys.  The reply
// leaves before the cache repair: once the tree, the compiled program
// and the epoch are settled, mutate hands the repair of the cached
// intermediates to a goroutine that inherits the write lock, the pool
// slot and the admission cost, and keeps the lock until the repair ends.
// A reader therefore waits exactly as long, and sees exactly the bits,
// it would if the writer had repaired before answering; only the writer
// hears back earlier.  A mutation with no rank distribution to repair
// finishes inline.

import (
	"fmt"
	"log"
	"runtime/debug"

	"consensus/internal/andxor"
)

// Method values reported by mutation responses.
const (
	// MethodPatched: the compiled program was updated in place (weight-only
	// delta against a resident program) — the cheap path.
	MethodPatched = "patched"
	// MethodRecompiled: the compiled program was rebuilt (structural delta)
	// or was not resident yet and will compile lazily on the next query.
	MethodRecompiled = "recompiled"
)

// Updates translates the payload of an OpMutate or OpCondition request —
// singular or batched form — into the andxor updates.  Validate vetted
// the payload shape, so unknown kinds cannot reach the default branches.
// The engine and the cluster coordinator both apply exactly these
// updates, the coordinator to its own copy of the tree.
func (r *Request) Updates() []andxor.Update {
	if r.Op == OpMutate {
		ms := r.Mutations
		if r.Mutation != nil {
			ms = []MutationRequest{*r.Mutation}
		}
		us := make([]andxor.Update, len(ms))
		for i, m := range ms {
			us[i] = andxor.Update{
				Kind:        andxor.UpdateKind(m.Kind),
				Key:         m.Key,
				Score:       m.Score,
				Prob:        m.Prob,
				Label:       m.Label,
				Renormalize: m.Renormalize,
			}
		}
		return us
	}
	evs := r.Evidences
	if r.Evidence != nil {
		evs = []EvidenceRequest{*r.Evidence}
	}
	us := make([]andxor.Update, len(evs))
	for i, ev := range evs {
		us[i] = andxor.Update{Kind: andxor.UpdateKind(ev.Kind), Key: ev.Key, Score: ev.Score}
	}
	return us
}

// mutate applies one mutation/evidence assertion — or a whole batch —
// to the entry under a single write lock and epoch bump.  On success the
// response reports the new epoch, whether the compiled kernel was patched
// or recompiled, and the new marginals of the affected keys.
//
// When the old epoch's rank distribution needs carrying over, mutate
// returns that work as repair, with the entry's write lock still held:
// the caller answers first and then runs repair, which releases the lock
// when the cache is settled.  A nil repair means the mutation finished
// (or failed) inline and the lock is already released.
func (e *Engine) mutate(resp *Response, te *treeEntry, req Request) (repair func(), err error) {
	us := req.Updates()
	te.rw.Lock()
	defer func() {
		if repair == nil {
			te.rw.Unlock()
		}
	}()
	if te.retired.Load() {
		// The entry lost a race with Register/Unregister; applying the
		// mutation here would silently drop it on the floor.
		return nil, errf(CodeRetiredEpoch, "engine: tree %q was replaced or removed concurrently; re-issue the mutation", req.Tree)
	}
	if !te.owned {
		// Clone-on-first-mutate: the registered tree belongs to the caller
		// of Register and must never be mutated behind their back.
		te.tree = te.tree.Clone()
		te.owned = true
	}
	ds, err := te.tree.ApplyAll(us)
	if err != nil {
		return nil, err
	}

	// Bring the compiled kernel up to date.  A resident program takes the
	// delta path (weight patch or recompile); an absent one stays absent
	// and compiles lazily against the mutated tree on the next query.
	// The reported method is a pure function of the deltas — weight-only
	// batches are "patched", structural ones "recompiled" — never of
	// kernel residency, so identical mutations answer identically
	// whatever queries happened to warm the kernel first (the distributed
	// tier relies on this: replicas with different read histories must
	// return byte-identical mutation responses).
	method := MethodPatched
	for _, d := range ds {
		if d.Structural {
			method = MethodRecompiled
			break
		}
	}
	patched := false
	te.progMu.Lock()
	prog := te.prog
	if prog != nil {
		prog, patched, _ = prog.ApplyAll(te.tree, ds)
		te.prog = prog
	}
	rankK := te.rankK
	te.progMu.Unlock()

	// Merge the batch's deltas against the final tree state: affected keys
	// report their new marginals; a key counts as removed only if it is
	// absent from the final tree (a delete-then-reinsert within one batch
	// is not a removal).
	var affected, removedRaw []string
	seen := make(map[string]bool, len(ds))
	seenRm := make(map[string]bool)
	for _, d := range ds {
		for _, k := range d.Keys {
			if !seen[k] {
				seen[k] = true
				affected = append(affected, k)
			}
		}
		for _, k := range d.Removed {
			if !seenRm[k] {
				seenRm[k] = true
				removedRaw = append(removedRaw, k)
			}
		}
	}
	resp.Probs = make(map[string]float64, len(affected))
	for _, k := range affected {
		if m, ok := te.tree.KeyMarginal(k); ok {
			resp.Probs[k] = m
		}
	}
	for _, k := range removedRaw {
		if _, ok := te.tree.KeyMarginal(k); !ok {
			resp.Removed = append(resp.Removed, k)
		}
	}

	// Epoch bump with the rank carry-over.  After a weight-only batch
	// against a resident program (a structural batch recompiled it), a
	// rank distribution still resident at the indexed cutoff is carried
	// into the new epoch's namespace, re-derived with the function a
	// read's cache miss calls, on the patched program, so the carried
	// entry is the one a cold read would compute.  Only residency is
	// checked here; the returned repair does the work.  Every other
	// intermediate is purged with the old epoch and rebuilds on its next
	// read.
	old := te.epoch.Load()
	oldPrefix := epochPrefix(req.Tree, te.gen, old)
	newPrefix := epochPrefix(req.Tree, te.gen, old+1)
	ranksKey := fmt.Sprintf("ranks/%d", rankK)
	_, resident := e.cache.peek(oldPrefix + ranksKey)
	te.epoch.Store(old + 1)
	resp.Epoch = old + 1
	resp.Method = method
	if !patched || e.repairDisabled || !resident {
		e.settleEpoch(te, req.Tree, oldPrefix)
		return nil, nil
	}
	return func() {
		defer te.rw.Unlock()
		// The reply has already left, so a panic on this goroutine has no
		// caller to reach: it is logged and takes the path a repair error
		// takes, the purge (nothing this repair added is kept).
		defer func() {
			if r := recover(); r != nil {
				log.Printf("engine: cache repair of tree %q panicked, purging its intermediates: %v\n%s", req.Tree, r, debug.Stack())
				e.cache.removePrefix(newPrefix)
				e.settleEpoch(te, req.Tree, oldPrefix)
			}
		}()
		if e.repairStart != nil {
			e.repairStart()
		}
		// An error (e.g. the mutation created a co-occurring cross-key
		// score tie) leaves the entry to the purge; the next rank query
		// surfaces the error itself.
		if rd, err := prog.RanksParallel(rankK, e.rankWorkers); err == nil {
			e.cache.add(newPrefix+ranksKey, rd)
		}
		e.settleEpoch(te, req.Tree, oldPrefix)
	}, nil
}

// settleEpoch ends a mutation's cache carry-over: it purges the old epoch
// and re-purges the whole generation if the tree was replaced or removed
// meanwhile (the same check exec makes after a read), so nothing the
// carry-over inserted outlives its generation.  rankK needs no reset: if
// its distribution was not carried over, the next rank read finds nothing
// resident and re-indexes.
func (e *Engine) settleEpoch(te *treeEntry, name, oldPrefix string) {
	e.cache.removePrefix(oldPrefix)
	if te.retired.Load() {
		e.cache.removePrefix(genPrefix(name, te.gen))
	}
}
