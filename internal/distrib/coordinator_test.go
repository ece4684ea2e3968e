package distrib

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"consensus/internal/engine"
	"consensus/internal/workload"
)

// startWorkers boots n single-process engine servers — the worker role
// is nothing more than engine.NewHandler over an Engine, wrapped with
// the fencing check exactly as `consensusctl worker` wraps it (unstamped
// requests pass untouched, so non-durable tests never notice).
func startWorkers(t *testing.T, n int) []*httptest.Server {
	t.Helper()
	out := make([]*httptest.Server, n)
	for i := range out {
		srv := httptest.NewServer(engine.FencedHandler(engine.New(engine.Options{}).Handler(), &engine.Fence{}))
		t.Cleanup(srv.Close)
		out[i] = srv
	}
	return out
}

func addrsOf(workers []*httptest.Server) []string {
	out := make([]string, len(workers))
	for i, w := range workers {
		out[i] = w.URL
	}
	return out
}

func newTestCoordinator(t *testing.T, workers []*httptest.Server, opts Options) *Coordinator {
	t.Helper()
	opts.Workers = addrsOf(workers)
	if opts.ProbeInterval == 0 {
		opts.ProbeInterval = -1 // tests drive probes explicitly
	}
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// post posts a JSON body and returns (status, body).
func post(t *testing.T, client *http.Client, url, body string) (int, []byte) {
	t.Helper()
	resp, err := client.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

func get(t *testing.T, client *http.Client, url string) (int, []byte) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

func put(t *testing.T, client *http.Client, url string, body []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// sixFamilyRequests mirrors the E16 experiment's cross-check list: one
// query per consensus family of the paper.
var sixFamilyRequests = []string{
	`{"tree":"indep","op":"topk-mean","k":3}`,
	`{"tree":"indep","op":"mean-world-jaccard"}`,
	`{"tree":"indep","op":"ranking-consensus"}`,
	`{"tree":"labeled","op":"clustering-mean"}`,
	`{"tree":"labeled","op":"aggregate-mean","k":3}`,
	`{"op":"spj-eval","spj":{"query":[{"relation":"R","args":[{"var":"x"}]},{"relation":"S","args":[{"var":"x"},{"var":"y"}]}],"tables":{"R":[{"vals":["a"],"prob":0.5},{"vals":["b"],"prob":0.25}],"S":[{"vals":["a","u"],"prob":0.4},{"vals":["b","v"],"prob":0.8}]}}}`,
}

// TestCoordinatorMatchesSingleProcess is the tentpole acceptance check:
// the same trees registered and the same six-family query list posted
// against a single-process server and against a 3-worker cluster behind
// the coordinator must produce byte-identical HTTP response bodies —
// registration echoes, query answers, batches, tree downloads, listings
// and unknown-tree failures alike.
func TestCoordinatorMatchesSingleProcess(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
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
	coord := newTestCoordinator(t, workers, Options{})
	coordSrv := httptest.NewServer(coord.Handler())
	defer coordSrv.Close()
	hc := coordSrv.Client()

	both := func(method func(*testing.T, *http.Client, string, string) (int, []byte), path, body, label string) {
		t.Helper()
		s1, b1 := method(t, hc, single.URL+path, body)
		s2, b2 := method(t, hc, coordSrv.URL+path, body)
		if s1 != s2 {
			t.Fatalf("%s: single-process status %d, coordinator status %d (%s vs %s)", label, s1, s2, b1, b2)
		}
		if !bytes.Equal(b1, b2) {
			t.Errorf("%s: responses differ\n single:      %s\n coordinator: %s", label, b1, b2)
		}
	}

	// Register through both fronts; the registration echo must match.
	for _, reg := range []struct {
		name string
		body []byte
	}{{"indep", indep}, {"labeled", labeled}} {
		s1, b1 := put(t, hc, single.URL+"/v1/trees/"+reg.name, reg.body)
		s2, b2 := put(t, hc, coordSrv.URL+"/v1/trees/"+reg.name, reg.body)
		if s1 != 200 || s2 != 200 || !bytes.Equal(b1, b2) {
			t.Fatalf("register %s: (%d) %s vs (%d) %s", reg.name, s1, b1, s2, b2)
		}
	}

	for _, req := range sixFamilyRequests {
		both(post, "/v1/query", req, req)
	}

	// A mutation must answer identically (including the epoch it reports)
	// and leave both sides answering follow-up queries identically.
	both(post, "/v1/query", `{"tree":"indep","op":"condition","evidence":{"kind":"absent","key":"t3"}}`, "condition")
	both(post, "/v1/query", `{"tree":"indep","op":"topk-mean","k":3}`, "post-mutation topk")
	both(post, "/v1/query", `{"tree":"indep","op":"rank-dist","k":2}`, "post-mutation rank-dist")

	// Batches, listings, downloads and failures.
	batch := `{"requests":[{"tree":"indep","op":"size-dist"},{"tree":"labeled","op":"membership"},{"tree":"ghost","op":"size-dist"}]}`
	both(post, "/v1/batch", batch, "batch")
	bothGet := func(path, label string) {
		t.Helper()
		s1, b1 := get(t, hc, single.URL+path)
		s2, b2 := get(t, hc, coordSrv.URL+path)
		if s1 != s2 || !bytes.Equal(b1, b2) {
			t.Errorf("%s: (%d) %s vs (%d) %s", label, s1, b1, s2, b2)
		}
	}
	bothGet("/v1/trees", "tree listing")
	bothGet("/v1/trees/indep", "indep download")
	bothGet("/v1/trees/labeled", "labeled download")
	bothGet("/v1/trees/ghost", "missing-tree download")
	both(post, "/v1/query", `{"tree":"ghost","op":"size-dist"}`, "unknown tree query")

	// Structurally invalid batch entries are bad_request before any tree
	// lookup on both fronts, whether or not the tree exists.
	both(post, "/v1/batch", `{"requests":[{"tree":"ghost","op":"topk-mean","k":0}]}`, "invalid k on unknown tree")
	both(post, "/v1/batch", `{"requests":[{"tree":"ghost","op":"mutate"},{"tree":"indep","op":"mutate"}]}`, "empty mutations")

	// A field outside the Request schema is the same 400 through both
	// fronts.
	unknownField := `{"v":1,"tree":"indep","op":"topk-mean","topk":{"k":3}}`
	if s, b := post(t, hc, coordSrv.URL+"/v1/query", unknownField); s != http.StatusBadRequest {
		t.Errorf("unknown field: coordinator status %d (%s), want 400", s, b)
	}
	both(post, "/v1/query", unknownField, "unknown field")
}

// TestPlacementSpread pins the consistent-hash placement: with replica
// fan-out 2 on a 3-worker cluster, every registered tree lives on
// exactly two distinct workers, and the load spreads (no worker holds
// everything).
func TestPlacementSpread(t *testing.T) {
	workers := startWorkers(t, 3)
	coord := newTestCoordinator(t, workers, Options{})
	rng := rand.New(rand.NewSource(5))
	// Worker ports are random (httptest), so placement varies per run:
	// enough trees that a worker riding every replica set by honest
	// hashing chance (p = (2/3)^trees per worker) is out of reach.
	// TestRingSpread pins the spread deterministically at the ring layer.
	const trees = 36
	for i := 0; i < trees; i++ {
		if err := coord.Register(fmt.Sprintf("tree%d", i), workload.Independent(rng, 4)); err != nil {
			t.Fatal(err)
		}
	}
	holders := make(map[string]int) // tree -> worker count
	perWorker := make([]int, len(workers))
	for wi, w := range workers {
		_, body := get(t, w.Client(), w.URL+"/v1/trees")
		var listing struct {
			Trees []string `json:"trees"`
		}
		if err := json.Unmarshal(body, &listing); err != nil {
			t.Fatal(err)
		}
		perWorker[wi] = len(listing.Trees)
		for _, name := range listing.Trees {
			holders[name]++
		}
	}
	for i := 0; i < trees; i++ {
		name := fmt.Sprintf("tree%d", i)
		if holders[name] != 2 {
			t.Errorf("tree %s is held by %d workers, want 2 (fan-out)", name, holders[name])
		}
	}
	for wi, n := range perWorker {
		if n == 0 || n == trees {
			t.Errorf("worker %d holds %d/%d trees: placement is not spreading", wi, n, trees)
		}
	}
}

// TestJoinRebalances pins the join path: a worker added via the admin
// endpoint takes over its ring share, receiving snapshots for the shards
// it now holds, and the placement epoch bumps.
func TestJoinRebalances(t *testing.T) {
	workers := startWorkers(t, 2)
	coord := newTestCoordinator(t, workers, Options{})
	coordSrv := httptest.NewServer(coord.Handler())
	defer coordSrv.Close()
	hc := coordSrv.Client()

	rng := rand.New(rand.NewSource(9))
	const trees = 10
	for i := 0; i < trees; i++ {
		if err := coord.Register(fmt.Sprintf("tree%d", i), workload.Independent(rng, 4)); err != nil {
			t.Fatal(err)
		}
	}
	epoch0 := coord.PlacementEpoch()

	joiner := httptest.NewServer(engine.New(engine.Options{}).Handler())
	defer joiner.Close()
	status, body := post(t, hc, coordSrv.URL+"/cluster/join", `{"addr":"`+joiner.URL+`"}`)
	if status != 200 {
		t.Fatalf("join: status %d (%s)", status, body)
	}
	if coord.PlacementEpoch() != epoch0+1 {
		t.Errorf("placement epoch %d after join, want %d", coord.PlacementEpoch(), epoch0+1)
	}

	_, listing := get(t, joiner.Client(), joiner.URL+"/v1/trees")
	var joined struct {
		Trees []string `json:"trees"`
	}
	if err := json.Unmarshal(listing, &joined); err != nil {
		t.Fatal(err)
	}
	if len(joined.Trees) == 0 {
		t.Fatalf("joined worker received no shards; rebalance did not move anything")
	}
	// Every moved shard must be queryable through the coordinator.
	for _, name := range joined.Trees {
		resp := coord.Query(engine.Request{Tree: name, Op: engine.OpSizeDist})
		if !resp.Ok() {
			t.Errorf("post-join query %s: %s (%s)", name, resp.Error, resp.Code)
		}
	}

	status, body = get(t, hc, coordSrv.URL+"/cluster/members")
	if status != 200 || !bytes.Contains(body, []byte(joiner.URL)) {
		t.Errorf("members listing after join: status %d body %s", status, body)
	}
}

// TestCoordinatorStats pins the aggregate: Trees counts shards, the
// cache counters sum over workers.
func TestCoordinatorStats(t *testing.T) {
	workers := startWorkers(t, 3)
	coord := newTestCoordinator(t, workers, Options{})
	rng := rand.New(rand.NewSource(11))
	if err := coord.Register("db", workload.Independent(rng, 5)); err != nil {
		t.Fatal(err)
	}
	if resp := coord.Query(engine.Request{Tree: "db", Op: engine.OpRankDist, K: 2}); !resp.Ok() {
		t.Fatal(resp.Error)
	}
	s := coord.Stats()
	if s.Trees != 1 {
		t.Errorf("Stats.Trees = %d, want 1", s.Trees)
	}
	if s.Computes == 0 {
		t.Errorf("Stats.Computes = 0, want the workers' compute counters summed")
	}
}

// TestProbeRefreshesBeatAge pins /cluster/members' beat age in probe
// mode: a successful probe counts as the worker checking in, so the age
// restarts from it instead of growing from when the member was added.
func TestProbeRefreshesBeatAge(t *testing.T) {
	workers := startWorkers(t, 1)
	c := newTestCoordinator(t, workers, Options{})
	m := c.memberOf(workers[0].URL)
	m.lastBeat.Store(time.Now().Add(-time.Hour).UnixNano())
	c.ProbeOnce(context.Background())
	for _, info := range c.Members() {
		if info.BeatAgeMS > 60_000 {
			t.Fatalf("member %s beat age %d ms after a successful probe; want the time since the probe", info.Addr, info.BeatAgeMS)
		}
	}
}
