package distrib

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"consensus/internal/engine"
	"consensus/internal/workload"
)

// syncUntilCaughtUp drives the standby until one records round returns
// it level with the primary (tests drive the tail deterministically).
func syncUntilCaughtUp(t *testing.T, s *Standby) {
	t.Helper()
	for i := 0; i < 10; i++ {
		if err := s.syncOnce(context.Background()); err != nil {
			t.Fatalf("standby sync round %d: %v", i, err)
		}
		if s.Status().Synced {
			return
		}
	}
	t.Fatal("standby never caught up")
}

// TestWALShippingEndpoint pins the replication wire: from=0 bootstraps
// with a checkpoint of the live registry, a caught-up follower streams
// raw frames from its head, and a malformed from is a 400.
func TestWALShippingEndpoint(t *testing.T) {
	workers := startWorkers(t, 3)
	dir := t.TempDir()
	c := newTestCoordinator(t, workers, Options{DataDir: dir, LeaseInterval: -1})
	front := httptest.NewServer(c.Handler())
	defer front.Close()
	rng := rand.New(rand.NewSource(41))
	if err := c.Register("db", workload.Independent(rng, 6)); err != nil {
		t.Fatal(err)
	}

	wc := wireClient{hc: front.Client()}
	kind, body, next, err := wc.fetchWAL(context.Background(), front.URL, 0)
	if err != nil {
		t.Fatal(err)
	}
	if kind != walKindCheckpoint {
		t.Fatalf("from=0 answered kind %q, want checkpoint", kind)
	}
	st := newDurableState()
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("bootstrap checkpoint does not decode: %v", err)
	}
	if _, ok := st.Shards["db"]; !ok {
		t.Fatalf("bootstrap checkpoint is missing the registered shard: %+v", st)
	}

	// A registry event after the bootstrap streams back as raw frames.
	if err := c.Register("db2", workload.Independent(rng, 5)); err != nil {
		t.Fatal(err)
	}
	kind, body, next2, err := wc.fetchWAL(context.Background(), front.URL, next)
	if err != nil {
		t.Fatal(err)
	}
	if kind != walKindRecords {
		t.Fatalf("tail fetch answered kind %q, want records", kind)
	}
	recs, _, valid := replayFrames(body)
	if valid != len(body) || len(recs) == 0 {
		t.Fatalf("streamed body is not whole frames: %d records, %d/%d bytes", len(recs), valid, len(body))
	}
	if recs[0].Seq != next {
		t.Errorf("first streamed seq = %d, want %d", recs[0].Seq, next)
	}
	if next2 != recs[len(recs)-1].Seq+1 {
		t.Errorf("next header = %d, want %d", next2, recs[len(recs)-1].Seq+1)
	}
	found := false
	for _, rec := range recs {
		if rec.Kind == recRegister && rec.Name == "db2" {
			found = true
		}
	}
	if !found {
		t.Error("the post-bootstrap registration is not in the streamed records")
	}

	status, errBody := get(t, front.Client(), front.URL+"/cluster/wal?from=bogus")
	if status != 400 || !bytes.Contains(errBody, []byte("bad_request")) {
		t.Errorf("malformed from: status %d body %s, want 400 bad_request", status, errBody)
	}
}

// TestStandbyTailsAndTakesOver is the tentpole acceptance check: a hot
// standby tails the primary's WAL; the primary is killed after a
// mutation reached one replica but before the fan-out completed (and
// before the WAL acknowledged it); the promoted standby serves all six
// query families — and the tree downloads — byte-identical to an
// uninterrupted single process that never saw the unacknowledged
// mutation, and the half-applied replica is rolled back.
func TestStandbyTailsAndTakesOver(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	indep, err := json.Marshal(workload.Independent(rng, 8))
	if err != nil {
		t.Fatal(err)
	}
	labeled, err := json.Marshal(workload.Labeled(rng, 7, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	single := httptest.NewServer(engine.New(engine.Options{}).Handler())
	defer single.Close()
	workers := startWorkers(t, 3)
	primaryDir, standbyDir := t.TempDir(), t.TempDir()

	primary := newTestCoordinator(t, workers, Options{DataDir: primaryDir, LeaseInterval: -1})
	front := httptest.NewServer(primary.Handler())
	hc := single.Client()

	// Acknowledged history: two registrations and one mutation, applied
	// to both the cluster and the single-process reference.
	for _, reg := range []struct {
		name string
		body []byte
	}{{"indep", indep}, {"labeled", labeled}} {
		s1, b1 := put(t, hc, single.URL+"/v1/trees/"+reg.name, reg.body)
		s2, b2 := put(t, hc, front.URL+"/v1/trees/"+reg.name, reg.body)
		if s1 != 200 || s2 != 200 || !bytes.Equal(b1, b2) {
			t.Fatalf("register %s: (%d) %s vs (%d) %s", reg.name, s1, b1, s2, b2)
		}
	}
	acked := `{"tree":"indep","op":"condition","evidence":{"kind":"absent","key":"t3"}}`
	s1, b1 := post(t, hc, single.URL+"/v1/query", acked)
	s2, b2 := post(t, hc, front.URL+"/v1/query", acked)
	if s1 != s2 || !bytes.Equal(b1, b2) {
		t.Fatalf("acknowledged mutation diverged: %s vs %s", b1, b2)
	}

	// The standby tails the primary's log into its own directory and
	// catches up with everything acknowledged so far.
	stb, err := NewStandby(StandbyOptions{
		Primary: front.URL,
		DataDir: standbyDir,
		Coordinator: Options{
			Workers:       addrsOf(workers),
			ProbeInterval: -1,
			LeaseInterval: -1,
		},
		Client: front.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer stb.Close()
	syncUntilCaughtUp(t, stb)
	if info := stb.Status(); info.Role != "following" || info.Trees != 2 {
		t.Fatalf("synced standby status = %+v, want role following with 2 trees", info)
	}

	// The torn fan-out: the next mutation reaches ONE replica directly
	// and is never acknowledged, never logged, never shipped — exactly
	// what a primary crash mid-fan-out leaves behind.
	var holder *httptest.Server
	for _, w := range workers {
		if status, _ := get(t, w.Client(), w.URL+"/v1/trees/indep"); status == 200 {
			holder = w
			break
		}
	}
	if holder == nil {
		t.Fatal("no worker holds the shard")
	}
	status, body := post(t, holder.Client(), holder.URL+"/v1/query",
		`{"tree":"indep","op":"condition","evidence":{"kind":"absent","key":"t5"}}`)
	if status != 200 || !strings.Contains(string(body), `"epoch":2`) {
		t.Fatalf("direct worker mutation failed: (%d) %s", status, body)
	}

	// kill -9 the primary: front gone, process gone.  The standby's
	// directory is all the takeover gets.
	front.Close()
	primary.Close()

	promoted, err := stb.Promote()
	if err != nil {
		t.Fatalf("standby promotion: %v", err)
	}
	defer promoted.Close()
	if promoted.FencingEpoch() <= primary.FencingEpoch() {
		t.Fatalf("takeover did not bump the fencing epoch past the primary's: %d -> %d",
			primary.FencingEpoch(), promoted.FencingEpoch())
	}
	front2 := httptest.NewServer(promoted.Handler())
	defer front2.Close()

	// Byte-identity across the takeover, cycling every replica.
	queries := append([]string(nil), sixFamilyRequests...)
	queries = append(queries, `{"tree":"indep","op":"rank-dist","k":2}`)
	for _, req := range queries {
		sS, bS := post(t, hc, single.URL+"/v1/query", req)
		for i := 0; i < 6; i++ {
			sC, bC := post(t, hc, front2.URL+"/v1/query", req)
			if sS != sC || !bytes.Equal(bS, bC) {
				t.Fatalf("%s after takeover diverged on ask %d:\n single:  %s\n standby: %s", req, i, bS, bC)
			}
		}
	}
	for _, name := range []string{"indep", "labeled"} {
		sS, bS := get(t, hc, single.URL+"/v1/trees/"+name)
		sC, bC := get(t, hc, front2.URL+"/v1/trees/"+name)
		if sS != sC || !bytes.Equal(bS, bC) {
			t.Fatalf("download %s after takeover diverged:\n single:  %s\n standby: %s", name, bS, bC)
		}
	}
	// The half-applied replica was rolled back by the takeover
	// reconciliation.
	_, held := get(t, holder.Client(), holder.URL+"/v1/trees/indep")
	_, want := get(t, hc, single.URL+"/v1/trees/indep")
	if !bytes.Equal(held, want) {
		t.Fatalf("half-mutated replica was not rolled back:\n held: %s\n want: %s", held, want)
	}
	// Life goes on under the new leader.
	sS, bS := post(t, hc, single.URL+"/v1/query", `{"tree":"indep","op":"condition","evidence":{"kind":"absent","key":"t6"}}`)
	sC, bC := post(t, hc, front2.URL+"/v1/query", `{"tree":"indep","op":"condition","evidence":{"kind":"absent","key":"t6"}}`)
	if sS != sC || !bytes.Equal(bS, bC) {
		t.Fatalf("post-takeover mutation diverged: %s vs %s", bS, bC)
	}
}

// TestPartitionedPrimaryExactlyOneWriter pins the split-brain defense
// for the hang/partition case: the old primary is NOT dead — it just
// stopped renewing from the standby's point of view.  After the standby
// takes over, exactly one coordinator can write: the old primary's
// mutations bounce off every worker with the non-retryable `fenced`
// code, it observes its own demotion, and the cluster's answers track
// the new leader's history alone.
func TestPartitionedPrimaryExactlyOneWriter(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	tree, err := json.Marshal(workload.Independent(rng, 8))
	if err != nil {
		t.Fatal(err)
	}
	single := httptest.NewServer(engine.New(engine.Options{}).Handler())
	defer single.Close()
	workers := startWorkers(t, 3)
	primaryDir, standbyDir := t.TempDir(), t.TempDir()

	primary := newTestCoordinator(t, workers, Options{DataDir: primaryDir, LeaseInterval: -1})
	front := httptest.NewServer(primary.Handler())
	defer front.Close()
	hc := single.Client()
	if s, _ := put(t, hc, single.URL+"/v1/trees/db", tree); s != 200 {
		t.Fatal("single-process registration failed")
	}
	if s, _ := put(t, hc, front.URL+"/v1/trees/db", tree); s != 200 {
		t.Fatal("cluster registration failed")
	}

	stb, err := NewStandby(StandbyOptions{
		Primary: front.URL,
		DataDir: standbyDir,
		Coordinator: Options{
			Workers:       addrsOf(workers),
			ProbeInterval: -1,
			LeaseInterval: -1,
		},
		Client: front.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer stb.Close()
	syncUntilCaughtUp(t, stb)

	// The standby's view says the lease expired; the primary is in fact
	// still running.  Promotion bumps the epoch and re-stamps every
	// worker.
	promoted, err := stb.Promote()
	if err != nil {
		t.Fatal(err)
	}
	defer promoted.Close()

	// The old primary tries to keep writing: every replica answers
	// `fenced`, the mutation applies nowhere, and the primary learns it
	// has been superseded.
	resp := primary.Query(engine.Request{Tree: "db", Op: engine.OpCondition,
		Evidence: &engine.EvidenceRequest{Kind: "absent", Key: "t2"}})
	if resp.Code != engine.CodeFenced {
		t.Fatalf("stale primary write answered code %q (%s), want fenced", resp.Code, resp.Error)
	}
	if !primary.IsDemoted() {
		t.Fatal("stale primary did not observe its demotion from the fenced response")
	}
	select {
	case <-primary.Demoted():
	default:
		t.Fatal("Demoted channel is not closed after a fenced response")
	}
	if got := primary.Status().Role; got != "demoted" {
		t.Fatalf("stale primary role = %q, want demoted", got)
	}

	// Exactly one writer: the new leader's mutation applies and the
	// cluster tracks the single process fed the same (new-leader-only)
	// history — the old primary's attempt left no trace.
	mut := `{"tree":"db","op":"condition","evidence":{"kind":"absent","key":"t4"}}`
	sS, bS := post(t, hc, single.URL+"/v1/query", mut)
	newFront := httptest.NewServer(promoted.Handler())
	defer newFront.Close()
	sC, bC := post(t, hc, newFront.URL+"/v1/query", mut)
	if sS != sC || !bytes.Equal(bS, bC) {
		t.Fatalf("new leader's mutation diverged: %s vs %s", bS, bC)
	}
	for _, req := range []string{
		`{"tree":"db","op":"topk-mean","k":3}`,
		`{"tree":"db","op":"rank-dist","k":2}`,
		`{"tree":"db","op":"membership"}`,
	} {
		sS, bS := post(t, hc, single.URL+"/v1/query", req)
		for i := 0; i < 6; i++ {
			sC, bC := post(t, hc, newFront.URL+"/v1/query", req)
			if sS != sC || !bytes.Equal(bS, bC) {
				t.Fatalf("%s diverged on ask %d:\n single: %s\n leader: %s", req, i, bS, bC)
			}
		}
	}
}

// TestResurrectedPrimaryDemotes pins the boot rule: a dead primary
// restarted from its stale directory while its old standby is leading
// must come back as a follower — its log would otherwise mint the same
// fencing epoch the new leader owns — and it re-syncs through the new
// leader's checkpoint.
func TestResurrectedPrimaryDemotes(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	workers := startWorkers(t, 3)
	primaryDir, standbyDir := t.TempDir(), t.TempDir()

	primary := newTestCoordinator(t, workers, Options{DataDir: primaryDir, LeaseInterval: -1})
	front := httptest.NewServer(primary.Handler())
	if err := primary.Register("db", workload.Independent(rng, 8)); err != nil {
		t.Fatal(err)
	}
	stb, err := NewStandby(StandbyOptions{
		Primary: front.URL,
		DataDir: standbyDir,
		Coordinator: Options{
			Workers:       addrsOf(workers),
			ProbeInterval: -1,
			LeaseInterval: -1,
		},
		Client: front.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer stb.Close()
	syncUntilCaughtUp(t, stb)

	// Primary dies; standby takes over and serves.
	front.Close()
	primary.Close()
	promoted, err := stb.Promote()
	if err != nil {
		t.Fatal(err)
	}
	defer promoted.Close()
	newFront := httptest.NewServer(promoted.Handler())
	defer newFront.Close()

	// The old primary comes back from its stale directory, configured
	// exactly as before (a leader), with the new leader as its peer.
	node, err := StartNode(NodeOptions{
		Peer: newFront.URL,
		Coordinator: Options{
			Workers:       addrsOf(workers),
			ProbeInterval: -1,
			LeaseInterval: -1,
			DataDir:       primaryDir,
		},
		PollInterval: 20 * time.Millisecond,
		LeaseTimeout: time.Hour, // never take over from a healthy leader in this test
		Client:       newFront.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	if got := node.Role(); got != "following" {
		t.Fatalf("resurrected primary role = %q, want following (peer is leading)", got)
	}

	// Its surface says so too: health reports the role, queries are 503.
	nodeFront := httptest.NewServer(node.Handler())
	defer nodeFront.Close()
	status, body := get(t, nodeFront.Client(), nodeFront.URL+"/healthz")
	if status != 200 || !bytes.Contains(body, []byte(`"role":"following"`)) {
		t.Errorf("resurrected primary healthz: (%d) %s, want role following", status, body)
	}
	status, body = post(t, nodeFront.Client(), nodeFront.URL+"/v1/query", `{"tree":"db","op":"size-dist"}`)
	if status != 503 || !bytes.Contains(body, []byte("unavailable")) {
		t.Errorf("resurrected primary serves queries: (%d) %s, want 503 unavailable", status, body)
	}

	// And it actually catches up with the new leader's log: the fencing
	// epoch it shadows converges on the new leader's.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var info StatusInfo
		_, b := get(t, nodeFront.Client(), nodeFront.URL+"/cluster/status")
		if err := json.Unmarshal(b, &info); err == nil &&
			info.Synced && info.FencingEpoch == promoted.FencingEpoch() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("resurrected primary never synced to the new leader: %s", b)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestNodeFailoverRoundTrip runs the whole supervisor machinery on real
// timers: a leading node and a following node; the leader's front dies;
// the follower's lease expires and it takes over with no operator
// action; the old leader — still running — touches a worker, observes
// `fenced`, and demotes itself back to a follower of the new leader.
func TestNodeFailoverRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	workers := startWorkers(t, 3)
	dirA, dirB := t.TempDir(), t.TempDir()

	// B's front exists before either node so A can name it as its peer
	// from the start (production config: each coordinator points at the
	// other); it 404s until nodeB is running behind it.
	var handlerB atomic.Value
	handlerB.Store(http.Handler(http.NotFoundHandler()))
	frontB := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handlerB.Load().(http.Handler).ServeHTTP(w, r)
	}))
	defer frontB.Close()

	nodeA, err := StartNode(NodeOptions{
		Peer: frontB.URL,
		Coordinator: Options{
			Workers:       addrsOf(workers),
			ProbeInterval: -1,
			LeaseInterval: 25 * time.Millisecond,
			DataDir:       dirA,
		},
		PollInterval: 20 * time.Millisecond,
		LeaseTimeout: 250 * time.Millisecond,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nodeA.Close()
	frontA := httptest.NewServer(nodeA.Handler())
	defer frontA.Close()
	if err := nodeA.Coordinator().Register("db", workload.Independent(rng, 8)); err != nil {
		t.Fatal(err)
	}

	nodeB, err := StartNode(NodeOptions{
		Standby: true,
		Peer:    frontA.URL,
		Coordinator: Options{
			Workers:       addrsOf(workers),
			ProbeInterval: -1,
			LeaseInterval: 25 * time.Millisecond,
			DataDir:       dirB,
		},
		PollInterval: 20 * time.Millisecond,
		LeaseTimeout: 250 * time.Millisecond,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nodeB.Close()
	handlerB.Store(nodeB.Handler())

	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s (A=%s B=%s)", what, nodeA.Role(), nodeB.Role())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	waitFor("standby to sync", func() bool {
		_, b := get(t, frontB.Client(), frontB.URL+"/cluster/status")
		var info StatusInfo
		return json.Unmarshal(b, &info) == nil && info.Synced
	})
	if nodeA.Role() != "leading" || nodeB.Role() != "following" {
		t.Fatalf("initial roles A=%s B=%s, want leading/following", nodeA.Role(), nodeB.Role())
	}

	// The leader's front vanishes (partition from the standby's view;
	// the process itself keeps running).  The standby's lease expires
	// and it takes over on its own.
	frontA.Close()
	waitFor("standby takeover", func() bool { return nodeB.Role() == "leading" })

	// The new leader serves: same registry, writable.
	status, body := post(t, frontB.Client(), frontB.URL+"/v1/query", `{"tree":"db","op":"topk-mean","k":3}`)
	if status != 200 || bytes.Contains(body, []byte(`"error"`)) {
		t.Fatalf("new leader query: (%d) %s", status, body)
	}

	// The old leader is still running and eventually touches a worker
	// (its own lease appends don't reach workers, so force a write) —
	// it must observe `fenced` and demote to following the new leader.
	coordA := nodeA.Coordinator()
	if coordA == nil {
		t.Fatal("old leader's coordinator vanished before demotion")
	}
	resp := coordA.Query(engine.Request{Tree: "db", Op: engine.OpCondition,
		Evidence: &engine.EvidenceRequest{Kind: "absent", Key: "t1"}})
	if resp.Code != engine.CodeFenced {
		t.Fatalf("old leader write answered %q (%s), want fenced", resp.Code, resp.Error)
	}
	waitFor("old leader demotion", func() bool { return nodeA.Role() == "following" })
}
