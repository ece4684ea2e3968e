package distrib

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"consensus/internal/andxor"
	"consensus/internal/engine"
	"consensus/internal/types"
)

// writeTree is a small BID fixture on which every mutation and evidence
// kind applies.
func writeTree(t *testing.T) *andxor.Tree {
	t.Helper()
	tr, err := andxor.BID([]andxor.Block{
		{Alternatives: []types.Leaf{{Key: "t1", Score: 8}, {Key: "t1", Score: 2}}, Probs: []float64{0.5, 0.3}},
		{Alternatives: []types.Leaf{{Key: "t2", Score: 6}}, Probs: []float64{0.6}},
		{Alternatives: []types.Leaf{{Key: "t3", Score: 4}, {Key: "t3", Score: 1}}, Probs: []float64{0.25, 0.25}},
		{Alternatives: []types.Leaf{{Key: "t4", Score: 5}, {Key: "t4", Score: 3}}, Probs: []float64{0.4, 0.2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// startCountingWorkers is startWorkers with a count of the PUT requests
// (snapshot pushes) the workers receive.
func startCountingWorkers(t *testing.T, n int, puts *atomic.Int64) []*httptest.Server {
	t.Helper()
	out := make([]*httptest.Server, n)
	for i := range out {
		h := engine.FencedHandler(engine.New(engine.Options{}).Handler(), &engine.Fence{})
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPut {
				puts.Add(1)
			}
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(srv.Close)
		out[i] = srv
	}
	return out
}

// replicaSnapshots returns the coordinator's snapshot and epoch of the
// shard together with every replica's download of it.
func replicaSnapshots(t *testing.T, c *Coordinator, name string) (snap []byte, epoch uint64, held map[string][]byte) {
	t.Helper()
	c.mu.RLock()
	sh := c.shards[name]
	c.mu.RUnlock()
	sh.rw.RLock()
	defer sh.rw.RUnlock()
	st := sh.state.Load()
	snap, epoch = st.Tree, st.Epoch
	held = make(map[string][]byte, len(sh.replicas))
	for _, addr := range sh.replicas {
		status, body := get(t, http.DefaultClient, addr+"/v1/trees/"+name)
		if status != http.StatusOK {
			t.Fatalf("replica %s: download status %d (%s)", addr, status, body)
		}
		held[addr] = body
	}
	return snap, epoch, held
}

// requireReplicasMatch asserts every replica holds the coordinator's
// snapshot (the worker's HTTP encoder adds a trailing newline) and
// returns that snapshot and its epoch.
func requireReplicasMatch(t *testing.T, c *Coordinator, name, step string) ([]byte, uint64) {
	t.Helper()
	snap, epoch, held := replicaSnapshots(t, c, name)
	for addr, body := range held {
		if !bytes.Equal(bytes.TrimSpace(body), snap) {
			t.Fatalf("%s: replica %s holds\n %s\nthe coordinator built\n %s", step, addr, body, snap)
		}
	}
	return snap, epoch
}

// TestCoordinatorSnapshotMatchesReplicas pins the coordinator-built
// snapshot: after every kind of mutation, accepted or rejected, the bytes
// the coordinator applied and serialized itself equal each replica's own
// download, and a coordinator restarted from its write-ahead log finds
// nothing to re-push.
func TestCoordinatorSnapshotMatchesReplicas(t *testing.T) {
	var puts atomic.Int64
	workers := startCountingWorkers(t, 3, &puts)
	dir := t.TempDir()
	c1 := newTestCoordinator(t, workers, Options{DataDir: dir})
	if err := c1.Register("db", writeTree(t)); err != nil {
		t.Fatal(err)
	}
	requireReplicasMatch(t, c1, "db", "register")

	steps := []struct {
		name   string
		req    engine.Request
		reject bool
	}{
		{"set-prob", engine.Request{Op: engine.OpMutate, Mutation: &engine.MutationRequest{Kind: "set-prob", Key: "t1", Score: 8, Prob: 0.4}}, false},
		{"set-prob renormalize", engine.Request{Op: engine.OpMutate, Mutation: &engine.MutationRequest{Kind: "set-prob", Key: "t3", Score: 4, Prob: 0.5, Renormalize: true}}, false},
		{"insert", engine.Request{Op: engine.OpMutate, Mutation: &engine.MutationRequest{Kind: "insert", Key: "t2", Score: 9, Prob: 0.3, Label: "late"}}, false},
		{"delete", engine.Request{Op: engine.OpMutate, Mutation: &engine.MutationRequest{Kind: "delete", Key: "t1", Score: 2}}, false},
		{"present evidence", engine.Request{Op: engine.OpCondition, Evidence: &engine.EvidenceRequest{Kind: "present", Key: "t4"}}, false},
		{"absent evidence", engine.Request{Op: engine.OpCondition, Evidence: &engine.EvidenceRequest{Kind: "absent", Key: "t3"}}, false},
		{"batch", engine.Request{Op: engine.OpMutate, Mutations: []engine.MutationRequest{
			{Kind: "set-prob", Key: "t2", Score: 6, Prob: 0.2},
			{Kind: "delete", Key: "t2", Score: 9},
		}}, false},
		{"rejected", engine.Request{Op: engine.OpMutate, Mutation: &engine.MutationRequest{Kind: "set-prob", Key: "t9", Score: 1, Prob: 0.1}}, true},
	}
	var wantEpoch uint64
	for _, st := range steps {
		st.req.Tree = "db"
		before, _, _ := replicaSnapshots(t, c1, "db")
		resp := c1.Query(st.req)
		if st.reject {
			if resp.Code != engine.CodeFailed {
				t.Fatalf("%s: answered code %q (%s), want %q", st.name, resp.Code, resp.Error, engine.CodeFailed)
			}
		} else {
			wantEpoch++
			if !resp.Ok() || resp.Epoch != wantEpoch {
				t.Fatalf("%s: answered epoch %d error %q, want epoch %d", st.name, resp.Epoch, resp.Error, wantEpoch)
			}
		}
		snap, epoch := requireReplicasMatch(t, c1, "db", st.name)
		if epoch != wantEpoch {
			t.Fatalf("%s: snapshot epoch %d, want %d", st.name, epoch, wantEpoch)
		}
		if st.reject != bytes.Equal(snap, before) {
			t.Fatalf("%s: snapshot changed = %v, want %v", st.name, !bytes.Equal(snap, before), !st.reject)
		}
	}
	final, _, _ := replicaSnapshots(t, c1, "db")
	c1.Close()

	puts.Store(0)
	c2 := newTestCoordinator(t, workers, Options{DataDir: dir})
	if n := puts.Load(); n != 0 {
		t.Fatalf("reconcile after a restart pushed %d snapshots, want 0", n)
	}
	if snap, _ := requireReplicasMatch(t, c2, "db", "restart"); !bytes.Equal(snap, final) {
		t.Fatalf("recovered snapshot\n %s\nwant\n %s", snap, final)
	}
	tr, ok := c2.Tree("db")
	if !ok {
		t.Fatal("recovered coordinator lost the tree")
	}
	if got := mustMarshal(t, tr); !bytes.Equal(got, final) {
		t.Fatalf("recovered tree download\n %s\nwant\n %s", got, final)
	}
}

// TestWriteDivergedReplicaRollsBack pins the divergence branch: when a
// replica's verdict on a mutation differs from the coordinator's own
// apply, the write answers unavailable, every replica that answered is
// rolled back to the last acknowledged snapshot, and a retry succeeds.
func TestWriteDivergedReplicaRollsBack(t *testing.T) {
	workers := startWorkers(t, 3)
	c := newTestCoordinator(t, workers, Options{})
	if err := c.Register("db", writeTree(t)); err != nil {
		t.Fatal(err)
	}
	c.mu.RLock()
	replicas := append([]string(nil), c.shards["db"].replicas...)
	c.mu.RUnlock()

	for _, tc := range []struct {
		name      string
		diverge   string         // applied behind the coordinator's back on the last replica
		req       engine.Request // the local copy and that replica disagree on it
		retryCode engine.Code    // the agreed verdict once the copies agree again
	}{
		// Local accepts, the diverged replica rejects.  The retry only
		// succeeds if the coordinator also dropped its own changed copy.
		{"replica rejects", `{"tree":"db","op":"mutate","mutation":{"kind":"delete","key":"t1","score":2}}`,
			engine.Request{Tree: "db", Op: engine.OpMutate, Mutation: &engine.MutationRequest{Kind: "delete", Key: "t1", Score: 2}}, ""},
		// Local rejects, the diverged replica accepts.
		{"replica accepts", `{"tree":"db","op":"mutate","mutation":{"kind":"insert","key":"t2","score":9,"prob":0.3}}`,
			engine.Request{Tree: "db", Op: engine.OpMutate, Mutation: &engine.MutationRequest{Kind: "delete", Key: "t2", Score: 9}}, engine.CodeFailed},
	} {
		last := replicas[len(replicas)-1]
		if status, body := post(t, http.DefaultClient, last+"/v1/query", tc.diverge); status != http.StatusOK || bytes.Contains(body, []byte(`"error"`)) {
			t.Fatalf("%s: diverging the replica failed: (%d) %s", tc.name, status, body)
		}
		before, epoch, _ := replicaSnapshots(t, c, "db")
		resp := c.Query(tc.req)
		if resp.Code != engine.CodeUnavailable {
			t.Fatalf("%s: diverged write answered code %q (%s), want %q", tc.name, resp.Code, resp.Error, engine.CodeUnavailable)
		}
		if snap, e := requireReplicasMatch(t, c, "db", tc.name); !bytes.Equal(snap, before) || e != epoch {
			t.Fatalf("%s: the diverged write moved the coordinator's snapshot", tc.name)
		}
		// The copies agree again, so the same request now gets one verdict.
		if retry := c.Query(tc.req); retry.Code != tc.retryCode {
			t.Fatalf("%s: retry after the rollback answered code %q (%s), want %q", tc.name, retry.Code, retry.Error, tc.retryCode)
		}
		requireReplicasMatch(t, c, "db", tc.name+" retry")
	}
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
