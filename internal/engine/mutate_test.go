package engine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"

	"consensus/internal/andxor"
	"consensus/internal/types"
	"consensus/internal/workload"
)

// mutTree builds the small BID fixture the mutation tests share.
func mutTree(t testing.TB) *andxor.Tree {
	t.Helper()
	tr, err := andxor.BID([]andxor.Block{
		{Alternatives: []types.Leaf{{Key: "t1", Score: 8}, {Key: "t1", Score: 2}}, Probs: []float64{0.5, 0.3}},
		{Alternatives: []types.Leaf{{Key: "t2", Score: 6}}, Probs: []float64{0.6}},
		{Alternatives: []types.Leaf{{Key: "t3", Score: 4}, {Key: "t3", Score: 1}}, Probs: []float64{0.25, 0.25}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestMutateSetProb(t *testing.T) {
	e := New(Options{})
	if err := e.Register("db", mutTree(t)); err != nil {
		t.Fatal(err)
	}
	// Compile the kernel so the mutation exercises the patch path.
	mustOk(t, e.Query(Request{Tree: "db", Op: OpRankDist, K: 2}))

	resp := mustOk(t, e.Query(Request{Tree: "db", Op: OpMutate, Mutation: &MutationRequest{
		Kind: "set-prob", Key: "t1", Score: 8, Prob: 0.1,
	}}))
	if resp.Epoch != 1 {
		t.Fatalf("epoch = %d, want 1", resp.Epoch)
	}
	if resp.Method != MethodPatched {
		t.Fatalf("method = %q, want %q", resp.Method, MethodPatched)
	}
	if got := resp.Probs["t1"]; got != 0.4 {
		t.Fatalf("reported t1 marginal = %v, want 0.4", got)
	}
	q := mustOk(t, e.Query(Request{Tree: "db", Op: OpMembership, Keys: []string{"t1"}}))
	if q.Probs["t1"] != 0.4 {
		t.Fatalf("queried t1 marginal = %v, want 0.4", q.Probs["t1"])
	}
	if q.Epoch != 1 {
		t.Fatalf("query epoch = %d, want 1", q.Epoch)
	}

	// The caller's tree must be untouched (clone-on-first-mutate).
	tr := mutTree(t)
	e2 := New(Options{})
	if err := e2.Register("db", tr); err != nil {
		t.Fatal(err)
	}
	mustOk(t, e2.Query(Request{Tree: "db", Op: OpMutate, Mutation: &MutationRequest{
		Kind: "set-prob", Key: "t1", Score: 8, Prob: 0.1,
	}}))
	if m, _ := tr.KeyMarginal("t1"); m != 0.8 {
		t.Fatalf("caller's tree was mutated: t1 marginal = %v, want 0.8", m)
	}
}

func TestMutateStructuralAndCondition(t *testing.T) {
	e := New(Options{})
	if err := e.Register("db", mutTree(t)); err != nil {
		t.Fatal(err)
	}
	mustOk(t, e.Query(Request{Tree: "db", Op: OpRankDist, K: 2}))

	resp := mustOk(t, e.Query(Request{Tree: "db", Op: OpMutate, Mutation: &MutationRequest{
		Kind: "insert", Key: "t2", Score: 9, Prob: 0.3, Label: "late",
	}}))
	if resp.Method != MethodRecompiled {
		t.Fatalf("insert method = %q, want %q", resp.Method, MethodRecompiled)
	}
	probs := []float64{0.6, 0.3}
	if got, want := resp.Probs["t2"], probs[0]+probs[1]; got != want {
		t.Fatalf("t2 marginal after insert = %v, want %v", got, want)
	}

	resp = mustOk(t, e.Query(Request{Tree: "db", Op: OpCondition, Evidence: &EvidenceRequest{
		Kind: "absent", Key: "t3",
	}}))
	if resp.Method != MethodPatched {
		t.Fatalf("condition method = %q, want %q", resp.Method, MethodPatched)
	}
	if got := resp.Probs["t3"]; got != 0 {
		t.Fatalf("t3 marginal after absent evidence = %v, want 0", got)
	}
	if resp.Epoch != 2 {
		t.Fatalf("epoch = %d, want 2", resp.Epoch)
	}

	// Deleting a key's last alternative (possible only in a shared x-tuple
	// block, where the block survives) reports the key as removed and
	// drops it from membership answers.
	xe := New(Options{})
	xt := andxor.MustNew(andxor.NewOr(
		[]*andxor.Node{
			andxor.NewLeaf(types.Leaf{Key: "a", Score: 3}),
			andxor.NewLeaf(types.Leaf{Key: "b", Score: 1}),
		},
		[]float64{0.4, 0.5},
	))
	if err := xe.Register("db", xt); err != nil {
		t.Fatal(err)
	}
	mustOk(t, xe.Query(Request{Tree: "db", Op: OpMembership}))
	resp = mustOk(t, xe.Query(Request{Tree: "db", Op: OpMutate, Mutation: &MutationRequest{
		Kind: "delete", Key: "b", Score: 1,
	}}))
	if len(resp.Removed) != 1 || resp.Removed[0] != "b" {
		t.Fatalf("removed = %v, want [b]", resp.Removed)
	}
	q := mustOk(t, xe.Query(Request{Tree: "db", Op: OpMembership}))
	if _, ok := q.Probs["b"]; ok {
		t.Fatalf("membership still lists removed key b: %v", q.Probs)
	}
	if q.Probs["a"] != 0.4 {
		t.Fatalf("surviving key a marginal = %v, want 0.4", q.Probs["a"])
	}
}

func TestMutateValidation(t *testing.T) {
	e := New(Options{})
	if err := e.Register("db", mutTree(t)); err != nil {
		t.Fatal(err)
	}
	bad := []Request{
		{Tree: "db", Op: OpMutate},
		{Tree: "db", Op: OpMutate, Mutation: &MutationRequest{Kind: "frob", Key: "t1"}},
		{Tree: "db", Op: OpMutate, Mutation: &MutationRequest{Kind: "set-prob"}},
		{Tree: "db", Op: OpMutate, Mutation: &MutationRequest{Kind: "set-prob", Key: "t1", Score: 8, Prob: 1.5}},
		{Tree: "db", Op: OpCondition},
		{Tree: "db", Op: OpCondition, Evidence: &EvidenceRequest{Kind: "maybe", Key: "t1"}},
		{Tree: "db", Op: OpCondition, Evidence: &EvidenceRequest{Kind: "present"}},
		{Tree: "missing", Op: OpMutate, Mutation: &MutationRequest{Kind: "set-prob", Key: "t1", Score: 8, Prob: 0.5}},
		// Domain-level rejections surfaced from andxor.
		{Tree: "db", Op: OpMutate, Mutation: &MutationRequest{Kind: "set-prob", Key: "nope", Score: 8, Prob: 0.5}},
		{Tree: "db", Op: OpMutate, Mutation: &MutationRequest{Kind: "set-prob", Key: "t1", Score: 8, Prob: 0.9}},
		{Tree: "db", Op: OpCondition, Evidence: &EvidenceRequest{Kind: "choose", Key: "t1", Score: 99}},
	}
	for i, req := range bad {
		if resp := e.Query(req); resp.Ok() {
			t.Fatalf("bad request %d accepted: %+v", i, req)
		}
	}
	// A failed mutation leaves the tree untouched and the epoch unmoved.
	q := mustOk(t, e.Query(Request{Tree: "db", Op: OpMembership, Keys: []string{"t1"}}))
	if q.Probs["t1"] != 0.8 || q.Epoch != 0 {
		t.Fatalf("tree disturbed by rejected mutations: marginal %v epoch %d", q.Probs["t1"], q.Epoch)
	}
}

// applyAll is the re-registration reference: clone the pristine tree and
// apply the whole update sequence cold.
func applyAll(t *testing.T, tr *andxor.Tree, ups []andxor.Update) *andxor.Tree {
	t.Helper()
	nt := tr.Clone()
	for _, u := range ups {
		if _, err := nt.Apply(u); err != nil {
			t.Fatal(err)
		}
	}
	return nt
}

// TestMutateMatchesReregister is the engine-level differential suite: a
// mutated-in-place tree must answer every query family bit-identically to
// a cold re-registration of an identically mutated tree.
func TestMutateMatchesReregister(t *testing.T) {
	for shape := 0; shape < 3; shape++ {
		rng := rand.New(rand.NewSource(int64(40 + shape)))
		var tr *andxor.Tree
		switch shape {
		case 0:
			tr = workload.Independent(rng, 12)
		case 1:
			tr = workload.BID(rng, 12, 3)
		default:
			tr = workload.Nested(rng, 12, 3)
		}
		alts := tr.LeafAlternatives()
		ups := []andxor.Update{
			{Kind: andxor.UpdateSetProb, Key: alts[0].Key, Score: alts[0].Score, Prob: 0.9, Renormalize: true},
			// Probability 0 keeps the insert valid whatever mass the block
			// already holds; the structural recompile is what's under test.
			{Kind: andxor.UpdateInsert, Key: alts[1].Key, Score: 5000, Prob: 0, Label: "x"},
			{Kind: andxor.EvidenceAbsent, Key: alts[2].Key},
			{Kind: andxor.UpdateSetProb, Key: alts[0].Key, Score: alts[0].Score, Prob: 0.2},
		}

		hot := New(Options{})
		if err := hot.Register("db", tr.Clone()); err != nil {
			t.Fatal(err)
		}
		// Warm every family before mutating, so the epoch switch and the
		// kernel patch (not a cold cache) are what is under test.
		warm := []Request{
			{Tree: "db", Op: OpRankDist, K: 4},
			{Tree: "db", Op: OpTopKMean, K: 3},
			{Tree: "db", Op: OpSizeDist},
			{Tree: "db", Op: OpMembership},
			{Tree: "db", Op: OpMeanWorld},
		}
		for _, req := range warm {
			mustOk(t, hot.Query(req))
		}
		// Updates the engine legitimately rejects for this tree shape (e.g.
		// conditioning a nested block under an or-ancestor) are skipped on
		// BOTH sides, so hot and cold see the same sequence.
		var applied []andxor.Update
		for _, u := range ups {
			var req Request
			switch u.Kind {
			case andxor.UpdateSetProb, andxor.UpdateInsert, andxor.UpdateDelete:
				req = Request{Tree: "db", Op: OpMutate, Mutation: &MutationRequest{
					Kind: string(u.Kind), Key: u.Key, Score: u.Score, Prob: u.Prob,
					Label: u.Label, Renormalize: u.Renormalize,
				}}
			default:
				req = Request{Tree: "db", Op: OpCondition, Evidence: &EvidenceRequest{
					Kind: string(u.Kind), Key: u.Key, Score: u.Score,
				}}
			}
			if resp := hot.Query(req); resp.Ok() {
				applied = append(applied, u)
			}
		}
		if len(applied) < 2 {
			t.Fatalf("shape %d: only %d of %d updates applied", shape, len(applied), len(ups))
		}

		cold := New(Options{})
		if err := cold.Register("db", applyAll(t, tr, applied)); err != nil {
			t.Fatal(err)
		}
		for _, req := range warm {
			got := mustOk(t, hot.Query(req))
			want := mustOk(t, cold.Query(req))
			// The answers must agree EXACTLY; only the epoch discriminates
			// a mutated tree from a re-registered one.
			got.Epoch = 0
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("shape %d op %s: mutated %+v != re-registered %+v", shape, req.Op, got, want)
			}
		}
	}
}

// TestMembershipRebuildsAfterMutation pins the lazy rebuild of the
// membership map: a mutation carries no membership entry into the new
// epoch, so the next membership query computes the map once, on the
// mutated tree, and its values are exactly what a cold engine computes.
func TestMembershipRebuildsAfterMutation(t *testing.T) {
	e := New(Options{})
	if err := e.Register("db", mutTree(t)); err != nil {
		t.Fatal(err)
	}
	mustOk(t, e.Query(Request{Tree: "db", Op: OpMembership}))
	computes := e.Stats().Computes
	mustOk(t, e.Query(Request{Tree: "db", Op: OpCondition, Evidence: &EvidenceRequest{Kind: "present", Key: "t1"}}))
	q := mustOk(t, e.Query(Request{Tree: "db", Op: OpMembership}))
	if got := e.Stats().Computes; got != computes+1 {
		t.Fatalf("membership read after mutation: computes %d -> %d, want one rebuild", computes, got)
	}
	if q.Probs["t1"] != 1 {
		t.Fatalf("t1 marginal after present evidence = %v, want 1", q.Probs["t1"])
	}
	// And the rebuilt values must be exactly what a cold recompute yields.
	cold := New(Options{})
	nt := mutTree(t)
	if _, err := nt.Apply(andxor.Update{Kind: andxor.EvidencePresent, Key: "t1"}); err != nil {
		t.Fatal(err)
	}
	if err := cold.Register("db", nt); err != nil {
		t.Fatal(err)
	}
	want := mustOk(t, cold.Query(Request{Tree: "db", Op: OpMembership}))
	if !reflect.DeepEqual(q.Probs, want.Probs) {
		t.Fatalf("rebuilt membership %v != cold %v", q.Probs, want.Probs)
	}
}

// TestConcurrentQueriesDuringMutation hammers one tree with queries from
// many goroutines while a mutator rewrites probabilities; run under the
// race detector this doubles as the torn-state check.  Every response
// must be internally consistent: an answer computed half under the old
// weights and half under the new ones would produce marginals outside
// [0, 1] or rank rows disagreeing with their own cumulative row.
func TestConcurrentQueriesDuringMutation(t *testing.T) {
	e := New(Options{Workers: 8})
	tr := workload.BID(rand.New(rand.NewSource(99)), 40, 2)
	if err := e.Register("db", tr); err != nil {
		t.Fatal(err)
	}
	alts := tr.LeafAlternatives()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan string, 64)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ops := []Request{
				{Tree: "db", Op: OpMembership},
				{Tree: "db", Op: OpRankDist, K: 3},
				{Tree: "db", Op: OpSizeDist},
			}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				resp := e.Query(ops[i%len(ops)])
				if !resp.Ok() {
					select {
					case errs <- resp.Error:
					default:
					}
					return
				}
				for k, p := range resp.Probs {
					if p < -1e-12 || p > 1+1e-9 {
						select {
						case errs <- fmt.Sprintf("torn marginal %v for %s", p, k):
						default:
						}
						return
					}
				}
			}
		}(g)
	}
	for i := 0; i < 200; i++ {
		a := alts[i%len(alts)]
		resp := e.Query(Request{Tree: "db", Op: OpMutate, Mutation: &MutationRequest{
			Kind: "set-prob", Key: a.Key, Score: a.Score,
			Prob: 0.05 + float64(i%9)*0.1, Renormalize: true,
		}})
		if !resp.Ok() {
			t.Fatalf("mutation %d failed: %s", i, resp.Error)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
	if got := e.Query(Request{Tree: "db", Op: OpMembership}); !got.Ok() || got.Epoch != 200 {
		t.Fatalf("final epoch = %d (err %q), want 200", got.Epoch, got.Error)
	}
}

// TestMutateAfterReplaceRejected pins the retire race: a mutation that
// lost a lookup race with Register must fail loudly rather than silently
// update an unregistered tree.
func TestMutateAfterReplaceRejected(t *testing.T) {
	e := New(Options{})
	if err := e.Register("db", mutTree(t)); err != nil {
		t.Fatal(err)
	}
	e.mu.RLock()
	te := e.trees["db"]
	e.mu.RUnlock()
	if err := e.Register("db", mutTree(t)); err != nil {
		t.Fatal(err)
	}
	var resp Response
	_, err := e.mutate(&resp, te, Request{Tree: "db", Op: OpMutate, Mutation: &MutationRequest{
		Kind: "set-prob", Key: "t1", Score: 8, Prob: 0.1,
	}})
	if err == nil {
		t.Fatal("mutation against a retired entry accepted")
	}
	// The batched form hits the same guard.
	_, err = e.mutate(&resp, te, Request{Tree: "db", Op: OpMutate, Mutations: []MutationRequest{
		{Kind: "set-prob", Key: "t1", Score: 8, Prob: 0.1},
		{Kind: "set-prob", Key: "t3", Score: 4, Prob: 0.2},
	}})
	if err == nil {
		t.Fatal("batched mutation against a retired entry accepted")
	}
}

// validRenormBatch builds up to n renormalizing set-prob updates that the
// tree is guaranteed to accept as one sequence, by vetting each candidate
// against a scratch clone.  Returns both request and andxor forms.
func validRenormBatch(t *testing.T, tr *andxor.Tree, n int) ([]MutationRequest, []andxor.Update) {
	t.Helper()
	scratch := tr.Clone()
	alts := tr.LeafAlternatives()
	var ms []MutationRequest
	var ups []andxor.Update
	for i := 0; len(ms) < n && i < 4*len(alts); i++ {
		a := alts[i%len(alts)]
		u := andxor.Update{
			Kind: andxor.UpdateSetProb, Key: a.Key, Score: a.Score,
			Prob: 0.05 + float64(i%9)*0.1, Renormalize: true,
		}
		if _, err := scratch.Apply(u); err != nil {
			continue
		}
		ups = append(ups, u)
		ms = append(ms, MutationRequest{
			Kind: string(u.Kind), Key: u.Key, Score: u.Score,
			Prob: u.Prob, Renormalize: true,
		})
	}
	return ms, ups
}

// TestBatchedMutateMatchesReregister is the batched half of the
// differential suite: one Mutations batch must leave every query family
// bit-identical to a cold re-registration of the sequentially updated
// tree, across the three workload shapes, with the cached intermediates
// carried warm through the single epoch bump.
func TestBatchedMutateMatchesReregister(t *testing.T) {
	for shape := 0; shape < 3; shape++ {
		rng := rand.New(rand.NewSource(int64(70 + shape)))
		var tr *andxor.Tree
		switch shape {
		case 0:
			tr = workload.Independent(rng, 12)
		case 1:
			tr = workload.BID(rng, 12, 3)
		default:
			tr = workload.Nested(rng, 12, 3)
		}
		ms, ups := validRenormBatch(t, tr, 6)
		if len(ms) < 2 {
			t.Fatalf("shape %d: only %d valid updates", shape, len(ms))
		}

		hot := New(Options{})
		if err := hot.Register("db", tr.Clone()); err != nil {
			t.Fatal(err)
		}
		warm := []Request{
			{Tree: "db", Op: OpRankDist, K: 4},
			{Tree: "db", Op: OpTopKMean, K: 3},
			{Tree: "db", Op: OpSizeDist},
			{Tree: "db", Op: OpMembership},
			{Tree: "db", Op: OpMeanWorld},
		}
		for _, req := range warm {
			mustOk(t, hot.Query(req))
		}
		resp := mustOk(t, hot.Query(Request{Tree: "db", Op: OpMutate, Mutations: ms}))
		if resp.Epoch != 1 {
			t.Fatalf("shape %d: epoch after one batch = %d, want exactly 1 bump", shape, resp.Epoch)
		}
		if resp.Method != MethodPatched {
			t.Fatalf("shape %d: method = %q, want %q", shape, resp.Method, MethodPatched)
		}

		cold := New(Options{})
		if err := cold.Register("db", applyAll(t, tr, ups)); err != nil {
			t.Fatal(err)
		}
		for _, req := range warm {
			got := mustOk(t, hot.Query(req))
			want := mustOk(t, cold.Query(req))
			got.Epoch = 0
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("shape %d op %s: batched %+v != re-registered %+v", shape, req.Op, got, want)
			}
		}
	}
}

// TestMutatedFamiliesMatchFreshEngine interleaves renormalizing set-prob
// writes with reads of the Jaccard and clustering families, whose kernels
// run on the package-level program memo (keyed on the tree pointer, which
// the engine keeps stable across in-place mutations).  After the last
// write every family must answer byte-identically to a fresh engine
// registered from the mutated tree: a memo that missed a mutation would
// serve the answer of an earlier epoch.
func TestMutatedFamiliesMatchFreshEngine(t *testing.T) {
	trees := []*andxor.Tree{
		workload.BID(rand.New(rand.NewSource(90)), 8, 2),
		workload.Labeled(rand.New(rand.NewSource(91)), 7, 2, 3),
		workload.Independent(rand.New(rand.NewSource(92)), 8),
	}
	reads := []Request{
		{Tree: "db", Op: OpMeanWorldJaccard},
		{Tree: "db", Op: OpMedianWorldJaccard},
		{Tree: "db", Op: OpClusteringMean},
	}
	for shape, tr := range trees {
		ms, _ := validRenormBatch(t, tr, 4)
		if len(ms) < 3 {
			t.Fatalf("shape %d: only %d valid updates", shape, len(ms))
		}
		e := New(Options{})
		if err := e.Register("db", tr.Clone()); err != nil {
			t.Fatal(err)
		}
		for i := range ms {
			for _, req := range reads {
				e.Query(req)
			}
			mustOk(t, e.Query(Request{Tree: "db", Op: OpMutate, Mutation: &ms[i]}))
		}
		mutated, ok := e.Tree("db")
		if !ok {
			t.Fatal("tree vanished")
		}
		fresh := New(Options{})
		if err := fresh.Register("db", mutated); err != nil {
			t.Fatal(err)
		}
		for _, req := range reads {
			got, want := e.Query(req), fresh.Query(req)
			got.Epoch = 0
			gb, err := json.Marshal(got)
			if err != nil {
				t.Fatal(err)
			}
			wb, err := json.Marshal(want)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gb, wb) {
				t.Fatalf("shape %d op %s after %d writes:\n mutated %s\n fresh   %s", shape, req.Op, len(ms), gb, wb)
			}
		}
	}
}

// TestBatchedConditionMatchesReregister does the same for the Evidences
// batch form: two evidence assertions under one epoch bump.
func TestBatchedConditionMatchesReregister(t *testing.T) {
	e := New(Options{})
	if err := e.Register("db", mutTree(t)); err != nil {
		t.Fatal(err)
	}
	warm := []Request{
		{Tree: "db", Op: OpRankDist, K: 2},
		{Tree: "db", Op: OpSizeDist},
		{Tree: "db", Op: OpMembership},
	}
	for _, req := range warm {
		mustOk(t, e.Query(req))
	}
	resp := mustOk(t, e.Query(Request{Tree: "db", Op: OpCondition, Evidences: []EvidenceRequest{
		{Kind: "present", Key: "t1"},
		{Kind: "absent", Key: "t3"},
	}}))
	if resp.Epoch != 1 {
		t.Fatalf("epoch after evidence batch = %d, want 1", resp.Epoch)
	}

	nt := mutTree(t)
	for _, u := range []andxor.Update{
		{Kind: andxor.EvidencePresent, Key: "t1"},
		{Kind: andxor.EvidenceAbsent, Key: "t3"},
	} {
		if _, err := nt.Apply(u); err != nil {
			t.Fatal(err)
		}
	}
	cold := New(Options{})
	if err := cold.Register("db", nt); err != nil {
		t.Fatal(err)
	}
	for _, req := range warm {
		got := mustOk(t, e.Query(req))
		want := mustOk(t, cold.Query(req))
		got.Epoch = 0
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("op %s: batched evidence %+v != re-registered %+v", req.Op, got, want)
		}
	}
}

// TestBatchMutateSingleEpochBump pins the headline batch contract: a
// 64-update batch performs exactly one epoch bump, and the repair pass
// re-seeds the rank distribution so the follow-up rank query is a cache
// hit, while the world-size distribution and the membership map rebuild
// once each on their reads; every answer is bit-identical to a cold
// re-registration.
func TestBatchMutateSingleEpochBump(t *testing.T) {
	tr := workload.BID(rand.New(rand.NewSource(77)), 64, 2)
	e := New(Options{})
	if err := e.Register("db", tr.Clone()); err != nil {
		t.Fatal(err)
	}
	warm := []Request{
		{Tree: "db", Op: OpRankDist, K: 5},
		{Tree: "db", Op: OpSizeDist},
		{Tree: "db", Op: OpMembership},
	}
	for _, req := range warm {
		mustOk(t, e.Query(req))
	}
	ms, ups := validRenormBatch(t, tr, 64)
	if len(ms) != 64 {
		t.Fatalf("built %d valid updates, want 64", len(ms))
	}

	resp := mustOk(t, e.Query(Request{Tree: "db", Op: OpMutate, Mutations: ms}))
	if resp.Epoch != 1 {
		t.Fatalf("epoch after 64-update batch = %d, want exactly 1", resp.Epoch)
	}
	// The rank distribution was carried over; the other two rebuild.
	for _, req := range warm {
		computes := e.Stats().Computes
		if got := mustOk(t, e.Query(req)); got.Epoch != 1 {
			t.Fatalf("op %s answered from epoch %d, want 1", req.Op, got.Epoch)
		}
		want := int64(1)
		if req.Op == OpRankDist {
			want = 0
		}
		if got := e.Stats().Computes - computes; got != want {
			t.Fatalf("op %s after batch computed %d intermediates, want %d", req.Op, got, want)
		}
	}

	cold := New(Options{})
	if err := cold.Register("db", applyAll(t, tr, ups)); err != nil {
		t.Fatal(err)
	}
	for _, req := range warm {
		got := mustOk(t, e.Query(req))
		want := mustOk(t, cold.Query(req))
		got.Epoch = 0
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("op %s: repaired %+v != re-registered %+v", req.Op, got, want)
		}
	}
}

// TestBatchMutateAtomic pins all-or-nothing batch semantics at the engine
// level: a batch whose middle update fails must leave the tree, the epoch
// and the caches exactly as they were.
func TestBatchMutateAtomic(t *testing.T) {
	e := New(Options{})
	if err := e.Register("db", mutTree(t)); err != nil {
		t.Fatal(err)
	}
	mustOk(t, e.Query(Request{Tree: "db", Op: OpRankDist, K: 2}))
	mustOk(t, e.Query(Request{Tree: "db", Op: OpMembership}))
	computes := e.Stats().Computes

	resp := e.Query(Request{Tree: "db", Op: OpMutate, Mutations: []MutationRequest{
		{Kind: "set-prob", Key: "t1", Score: 8, Prob: 0.1},
		{Kind: "set-prob", Key: "nope", Score: 1, Prob: 0.5}, // unknown key: domain rejection
		{Kind: "set-prob", Key: "t3", Score: 4, Prob: 0.2},
	}})
	if resp.Ok() {
		t.Fatal("batch with a failing middle update accepted")
	}
	if !strings.Contains(resp.Error, "batch update 1") {
		t.Fatalf("error %q does not locate the failing update", resp.Error)
	}
	q := mustOk(t, e.Query(Request{Tree: "db", Op: OpMembership, Keys: []string{"t1"}}))
	if q.Probs["t1"] != 0.8 || q.Epoch != 0 {
		t.Fatalf("failed batch disturbed the tree: marginal %v epoch %d", q.Probs["t1"], q.Epoch)
	}
	mustOk(t, e.Query(Request{Tree: "db", Op: OpRankDist, K: 2}))
	if got := e.Stats().Computes; got != computes {
		t.Fatalf("failed batch invalidated caches: computes %d -> %d", computes, got)
	}
}

// TestRankStaysWarmAcrossMutation pins the tentpole repair path: after a
// weight-only mutation the indexed rank distribution (k=7, which also
// serves k=3) is carried into the new epoch by the repair pass, so
// follow-up rank queries are cache hits, while the world-size
// distribution rebuilds once on its read — and every answer is
// bit-identical to a cold recompute.
func TestRankStaysWarmAcrossMutation(t *testing.T) {
	tr := workload.BID(rand.New(rand.NewSource(55)), 24, 2)
	e := New(Options{})
	if err := e.Register("db", tr.Clone()); err != nil {
		t.Fatal(err)
	}
	reqs := []Request{
		{Tree: "db", Op: OpRankDist, K: 3},
		{Tree: "db", Op: OpRankDist, K: 7},
		{Tree: "db", Op: OpSizeDist},
	}
	for _, req := range reqs {
		mustOk(t, e.Query(req))
	}
	computes := e.Stats().Computes

	alt := tr.LeafAlternatives()[0]
	u := andxor.Update{Kind: andxor.UpdateSetProb, Key: alt.Key, Score: alt.Score, Prob: 0.42, Renormalize: true}
	mustOk(t, e.Query(Request{Tree: "db", Op: OpMutate, Mutation: &MutationRequest{
		Kind: string(u.Kind), Key: u.Key, Score: u.Score, Prob: u.Prob, Renormalize: true,
	}}))
	for _, req := range reqs {
		mustOk(t, e.Query(req))
	}
	if got := e.Stats().Computes; got != computes+1 {
		t.Fatalf("reads after weight-only mutation: computes %d -> %d, want one (the size rebuild; ranks are hits)", computes, got)
	}

	cold := New(Options{})
	if err := cold.Register("db", applyAll(t, tr, []andxor.Update{u})); err != nil {
		t.Fatal(err)
	}
	for _, req := range reqs {
		got := mustOk(t, e.Query(req))
		want := mustOk(t, cold.Query(req))
		got.Epoch = 0
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("op %s k=%d: repaired %+v != cold %+v", req.Op, req.K, got, want)
		}
	}

	// A structural mutation keeps the purge: the next queries recompute.
	mustOk(t, e.Query(Request{Tree: "db", Op: OpMutate, Mutation: &MutationRequest{
		Kind: "insert", Key: alt.Key, Score: 5000, Prob: 0, Label: "x",
	}}))
	computes = e.Stats().Computes
	for _, req := range reqs {
		mustOk(t, e.Query(req))
	}
	if got := e.Stats().Computes; got == computes {
		t.Fatal("structural mutation did not invalidate rank/size intermediates")
	}
}

// TestMutateForeignTypedCacheEntries is the regression for the unchecked
// membership assertion: wrongly-typed values planted under the old
// epoch's rank, size and membership keys never reach an answer — the
// rank carry-over re-derives its entry without reading the old value,
// the other two are purged with the old epoch — so there is no panic
// while holding the entry write lock, and the answers afterwards are
// correct.
func TestMutateForeignTypedCacheEntries(t *testing.T) {
	e := New(Options{})
	if err := e.Register("db", mutTree(t)); err != nil {
		t.Fatal(err)
	}
	reqs := []Request{
		{Tree: "db", Op: OpRankDist, K: 2},
		{Tree: "db", Op: OpSizeDist},
		{Tree: "db", Op: OpMembership},
	}
	for _, req := range reqs {
		mustOk(t, e.Query(req))
	}
	e.mu.RLock()
	te := e.trees["db"]
	e.mu.RUnlock()
	prefix := epochPrefix("db", te.gen, te.epoch.Load())
	for _, suffix := range []string{"ranks/2", "size-dist", "membership"} {
		e.cache.add(prefix+suffix, struct{ bogus int }{41})
	}

	resp := mustOk(t, e.Query(Request{Tree: "db", Op: OpMutate, Mutation: &MutationRequest{
		Kind: "set-prob", Key: "t1", Score: 8, Prob: 0.1,
	}}))
	if resp.Epoch != 1 {
		t.Fatalf("epoch = %d, want 1", resp.Epoch)
	}
	cold := New(Options{})
	if err := cold.Register("db", applyAll(t, mutTree(t), []andxor.Update{
		{Kind: andxor.UpdateSetProb, Key: "t1", Score: 8, Prob: 0.1},
	})); err != nil {
		t.Fatal(err)
	}
	for _, req := range reqs {
		got := mustOk(t, e.Query(req))
		want := mustOk(t, cold.Query(req))
		got.Epoch = 0
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("op %s after foreign-typed entries: %+v != cold %+v", req.Op, got, want)
		}
	}
}

// TestBatchDeleteThenRenormalize covers the awkward batch shape: deleting
// a key's last alternative (emptying its slot in a shared x-tuple block)
// followed by a renormalizing set-prob on the survivor, in one atomic
// batch.  The removal must be reported, membership must drop the key,
// and everything must match the cold reference.
func TestBatchDeleteThenRenormalize(t *testing.T) {
	mk := func() *andxor.Tree {
		return andxor.MustNew(andxor.NewOr(
			[]*andxor.Node{
				andxor.NewLeaf(types.Leaf{Key: "a", Score: 3}),
				andxor.NewLeaf(types.Leaf{Key: "b", Score: 1}),
			},
			[]float64{0.4, 0.5},
		))
	}
	e := New(Options{})
	if err := e.Register("db", mk()); err != nil {
		t.Fatal(err)
	}
	mustOk(t, e.Query(Request{Tree: "db", Op: OpMembership}))
	resp := mustOk(t, e.Query(Request{Tree: "db", Op: OpMutate, Mutations: []MutationRequest{
		{Kind: "delete", Key: "b", Score: 1},
		{Kind: "set-prob", Key: "a", Score: 3, Prob: 0.7, Renormalize: true},
	}}))
	if len(resp.Removed) != 1 || resp.Removed[0] != "b" {
		t.Fatalf("removed = %v, want [b]", resp.Removed)
	}
	if got := resp.Probs["a"]; got != 0.7 {
		t.Fatalf("a marginal = %v, want 0.7", got)
	}
	q := mustOk(t, e.Query(Request{Tree: "db", Op: OpMembership}))
	if _, ok := q.Probs["b"]; ok {
		t.Fatalf("membership still lists removed key b: %v", q.Probs)
	}

	cold := New(Options{})
	if err := cold.Register("db", applyAll(t, mk(), []andxor.Update{
		{Kind: andxor.UpdateDelete, Key: "b", Score: 1},
		{Kind: andxor.UpdateSetProb, Key: "a", Score: 3, Prob: 0.7, Renormalize: true},
	})); err != nil {
		t.Fatal(err)
	}
	want := mustOk(t, cold.Query(Request{Tree: "db", Op: OpMembership}))
	q.Epoch = 0
	if !reflect.DeepEqual(q, want) {
		t.Fatalf("batched %+v != re-registered %+v", q, want)
	}
}

// TestBatchValidation pins the request-shape rules for the batched forms.
func TestBatchValidation(t *testing.T) {
	e := New(Options{})
	if err := e.Register("db", mutTree(t)); err != nil {
		t.Fatal(err)
	}
	big := make([]MutationRequest, maxBatchUpdates+1)
	for i := range big {
		big[i] = MutationRequest{Kind: "set-prob", Key: "t1", Score: 8, Prob: 0.5}
	}
	bad := []Request{
		{Tree: "db", Op: OpMutate, Mutations: []MutationRequest{}},
		{Tree: "db", Op: OpMutate, Mutation: &MutationRequest{Kind: "set-prob", Key: "t1", Score: 8, Prob: 0.5},
			Mutations: []MutationRequest{{Kind: "set-prob", Key: "t1", Score: 8, Prob: 0.5}}},
		{Tree: "db", Op: OpMutate, Mutations: []MutationRequest{{Kind: "frob", Key: "t1"}}},
		{Tree: "db", Op: OpMutate, Mutations: []MutationRequest{{Kind: "set-prob", Key: "t1", Score: 8, Prob: 2}}},
		{Tree: "db", Op: OpMutate, Mutations: big},
		{Tree: "db", Op: OpCondition, Evidences: []EvidenceRequest{}},
		{Tree: "db", Op: OpCondition, Evidence: &EvidenceRequest{Kind: "present", Key: "t1"},
			Evidences: []EvidenceRequest{{Kind: "present", Key: "t1"}}},
		{Tree: "db", Op: OpCondition, Evidences: []EvidenceRequest{{Kind: "maybe", Key: "t1"}}},
		{Tree: "db", Op: OpCondition, Evidences: []EvidenceRequest{{Kind: "present"}}},
	}
	for i, req := range bad {
		if resp := e.Query(req); resp.Ok() {
			t.Fatalf("bad batch request %d accepted: %+v", i, req)
		}
	}
	// The index of the offending entry is reported.
	resp := e.Query(Request{Tree: "db", Op: OpMutate, Mutations: []MutationRequest{
		{Kind: "set-prob", Key: "t1", Score: 8, Prob: 0.5},
		{Kind: "frob", Key: "t1"},
	}})
	if !strings.Contains(resp.Error, "mutations[1]") {
		t.Fatalf("error %q does not name mutations[1]", resp.Error)
	}
	q := mustOk(t, e.Query(Request{Tree: "db", Op: OpMembership, Keys: []string{"t1"}}))
	if q.Probs["t1"] != 0.8 || q.Epoch != 0 {
		t.Fatalf("tree disturbed by rejected batches: marginal %v epoch %d", q.Probs["t1"], q.Epoch)
	}
}

// TestHandlerMutateRemovedJSON pins the wire shape of Response.Removed: a
// mutation removing nothing omits the field entirely (nil and empty both
// marshal as absent), a real removal lists the keys.
func TestHandlerMutateRemovedJSON(t *testing.T) {
	e := New(Options{})
	xt := andxor.MustNew(andxor.NewOr(
		[]*andxor.Node{
			andxor.NewLeaf(types.Leaf{Key: "a", Score: 3}),
			andxor.NewLeaf(types.Leaf{Key: "b", Score: 1}),
		},
		[]float64{0.4, 0.5},
	))
	if err := e.Register("db", xt); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(e.Handler())
	defer srv.Close()
	post := func(body string) []byte {
		t.Helper()
		resp, err := srv.Client().Post(srv.URL+"/v1/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("POST %s: status %d (%s)", body, resp.StatusCode, raw)
		}
		return raw
	}

	raw := post(`{"tree":"db","op":"mutate","mutation":{"kind":"set-prob","key":"a","score":3,"prob":0.2}}`)
	if bytes.Contains(raw, []byte(`"removed"`)) {
		t.Fatalf("no-removal mutation response carries a removed field: %s", raw)
	}
	raw = post(`{"tree":"db","op":"mutate","mutations":[{"kind":"delete","key":"b","score":1}]}`)
	var resp Response
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resp.Removed, []string{"b"}) {
		t.Fatalf("removed = %v, want [b] (%s)", resp.Removed, raw)
	}
	if !bytes.Contains(raw, []byte(`"removed":["b"]`)) {
		t.Fatalf("removal not serialized: %s", raw)
	}
}

// gateRepairs makes every handed-off cache repair of e signal started
// and then wait for the returned release function.
func gateRepairs(e *Engine) (started <-chan struct{}, release func()) {
	st := make(chan struct{}, 1)
	gate := make(chan struct{})
	e.repairStart = func() {
		st <- struct{}{}
		<-gate
	}
	return st, func() { close(gate) }
}

// waitRepairs blocks until every pool slot is free, i.e. until no
// handed-off repair still holds the slot it inherited.
func waitRepairs(e *Engine) {
	for i := 0; i < cap(e.sem); i++ {
		e.sem <- struct{}{}
	}
	for i := 0; i < cap(e.sem); i++ {
		<-e.sem
	}
}

// warmMutTree registers mutTree under "db" and warms a rank
// distribution, the world-size distribution and the membership map; the
// rank distribution gives the next weight-only mutation a repair to hand
// off, the other two a purge.
func warmMutTree(t *testing.T, e *Engine) *treeEntry {
	t.Helper()
	if err := e.Register("db", mutTree(t)); err != nil {
		t.Fatal(err)
	}
	mustOk(t, e.Query(Request{Tree: "db", Op: OpRankDist, K: 2}))
	mustOk(t, e.Query(Request{Tree: "db", Op: OpSizeDist}))
	mustOk(t, e.Query(Request{Tree: "db", Op: OpMembership}))
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.trees["db"]
}

var handOffMutation = Request{Tree: "db", Op: OpMutate, Mutation: &MutationRequest{
	Kind: "set-prob", Key: "t1", Score: 8, Prob: 0.2,
}}

// TestMutationAnswersBeforeRepair pins the hand-off: the mutation answers
// while its cache repair is still held, the repair keeps the entry's
// write lock, the pool slot and the admission cost until it ends, and a
// rank read sent right after the answer waits for the repair and then
// hits the repaired entry without computing anything (the membership
// read sent with it rebuilds the map, once).
func TestMutationAnswersBeforeRepair(t *testing.T) {
	e := New(Options{Workers: 2, AdmissionCapacity: 64})
	te := warmMutTree(t, e)
	started, release := gateRepairs(e)

	resp := mustOk(t, e.Query(handOffMutation))
	<-started
	if resp.Epoch != 1 || resp.Method != MethodPatched {
		t.Fatalf("mutation answered epoch %d method %q, want 1 %q", resp.Epoch, resp.Method, MethodPatched)
	}
	if te.rw.TryRLock() {
		t.Fatal("entry readable while its repair is in flight")
	}
	if got := e.adm.InFlight(); got != CostMutation {
		t.Fatalf("admission in flight = %d during the repair, want %d", got, CostMutation)
	}
	if got := len(e.sem); got != 1 {
		t.Fatalf("pool slots held = %d during the repair, want 1", got)
	}
	resp.Probs["t1"] = -1 // the caller owns the response; the repair must not read it

	computes := e.Stats().Computes
	reads := make(chan [2]Response, 1)
	go func() {
		reads <- [2]Response{
			e.Query(Request{Tree: "db", Op: OpRankDist, K: 2}),
			e.Query(Request{Tree: "db", Op: OpMembership}),
		}
	}()
	release()
	got := <-reads
	if c := e.Stats().Computes; c != computes+1 {
		t.Fatalf("reads after the mutation: computes %d -> %d, want one (the membership rebuild; the rank read is a hit)", computes, c)
	}
	waitRepairs(e)
	if got := e.adm.InFlight(); got != 0 {
		t.Fatalf("admission in flight = %d after the repair, want 0", got)
	}

	cold := New(Options{})
	nt := mutTree(t)
	if _, err := nt.ApplyAll(handOffMutation.Updates()); err != nil {
		t.Fatal(err)
	}
	if err := cold.Register("db", nt); err != nil {
		t.Fatal(err)
	}
	for i, req := range []Request{{Tree: "db", Op: OpRankDist, K: 2}, {Tree: "db", Op: OpMembership}} {
		want := mustOk(t, cold.Query(req))
		want.Epoch = 1
		if !reflect.DeepEqual(mustOk(t, got[i]), want) {
			t.Fatalf("%s after the hand-off differs from a cold engine:\n got  %+v\n want %+v", req.Op, got[i], want)
		}
	}
}

// TestReregisterDuringRepairLeavesNoStaleEntries pins the retired re-purge
// at the end of a handed-off repair: a tree re-registered while the
// repair of its previous generation is in flight ends up with no cache
// entry under the old generation.
func TestReregisterDuringRepairLeavesNoStaleEntries(t *testing.T) {
	e := New(Options{Workers: 1})
	te := warmMutTree(t, e)
	started, release := gateRepairs(e)

	mustOk(t, e.Query(handOffMutation))
	<-started
	if err := e.Register("db", mutTree(t)); err != nil {
		t.Fatal(err)
	}
	release()
	waitRepairs(e)

	prefix := genPrefix("db", te.gen)
	e.cache.mu.Lock()
	defer e.cache.mu.Unlock()
	for key := range e.cache.items {
		if strings.HasPrefix(key, prefix) {
			t.Errorf("cache entry %q of the replaced generation survived the repair", key)
		}
	}
}

// TestRepairPanicFallsBackToPurge pins the repair's panic path: the
// panic is logged with its stack, the inherited lock, pool slot and
// admission cost are released, the new epoch's cache is purged, and the
// next read recomputes the cold answer.
func TestRepairPanicFallsBackToPurge(t *testing.T) {
	var logged bytes.Buffer
	log.SetOutput(&logged)
	defer log.SetOutput(os.Stderr)
	e := New(Options{Workers: 1, AdmissionCapacity: 64})
	warmMutTree(t, e)
	e.repairStart = func() { panic("repair failed") }

	mustOk(t, e.Query(handOffMutation))
	waitRepairs(e)
	if msg := logged.String(); !strings.Contains(msg, "repair failed") || !strings.Contains(msg, "goroutine") {
		t.Fatalf("panicked repair logged %q; want the panic value and its stack", msg)
	}
	if got := e.adm.InFlight(); got != 0 {
		t.Fatalf("admission in flight = %d after a panicked repair, want 0", got)
	}
	computes := e.Stats().Computes
	got := mustOk(t, e.Query(Request{Tree: "db", Op: OpRankDist, K: 2}))
	if c := e.Stats().Computes; c == computes {
		t.Fatal("read after a panicked repair hit a cached entry; want a recompute")
	}

	cold := New(Options{})
	nt := mutTree(t)
	if _, err := nt.ApplyAll(handOffMutation.Updates()); err != nil {
		t.Fatal(err)
	}
	if err := cold.Register("db", nt); err != nil {
		t.Fatal(err)
	}
	want := mustOk(t, cold.Query(Request{Tree: "db", Op: OpRankDist, K: 2}))
	want.Epoch = 1
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rank-dist after a panicked repair differs from a cold engine:\n got  %+v\n want %+v", got, want)
	}
}

// TestMutationCountsNoHits pins the hit accounting across a mutation: the
// carry-over's residency check of the old epoch's rank entry is not a
// lookup, so Stats().Hits stays put, while a rank read that the indexed
// distribution serves through the index still counts its hit.
func TestMutationCountsNoHits(t *testing.T) {
	e := New(Options{})
	warmMutTree(t, e)
	before := e.Stats()
	mustOk(t, e.Query(handOffMutation))
	waitRepairs(e)
	if got := e.Stats().Hits; got != before.Hits {
		t.Fatalf("mutation counted hits: %d -> %d", before.Hits, got)
	}
	mustOk(t, e.Query(Request{Tree: "db", Op: OpRankDist, K: 1}))
	after := e.Stats()
	if after.Hits != before.Hits+1 || after.Computes != before.Computes {
		t.Fatalf("k=1 read served by the indexed ranks/2: hits %d -> %d, computes %d -> %d; want one hit, no compute",
			before.Hits, after.Hits, before.Computes, after.Computes)
	}
}
