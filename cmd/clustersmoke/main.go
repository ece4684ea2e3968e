// Command clustersmoke is the distributed-tier smoke test CI runs: it
// boots one durable coordinator over three loopback workers plus a plain
// single-process server, registers the same trees on both fronts, and
// requires byte-identical HTTP response bodies across the six consensus
// query families of the paper (the E16 cross-check list) plus the
// world-size distribution and the membership map, a mutation, and the
// post-mutation re-queries.  It then kills the coordinator and
// restarts it from its write-ahead log, requiring the recovered front to
// keep answering byte-identically (queries and tree downloads alike).
// Next a hot standby tails the recovered coordinator's WAL over the
// wire; the primary's front is partitioned away and the standby must
// notice the stale leadership lease, bump the fencing epoch and take
// over serving — six families, a mutation, and the tree downloads all
// byte-identical, with no operator action — while the partitioned
// ex-primary is fenced by the workers and demotes itself.  Finally it
// kills one worker mid-stream and requires a run of mixed reads against
// the new leader to finish with zero client-visible failures.  Any
// divergence or failure exits non-zero.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"time"

	"consensus/internal/distrib"
	"consensus/internal/engine"
	"consensus/internal/workload"
)

// sixFamilyQueries mirrors the E16 experiment's cross-check list: one
// query per consensus family.
var sixFamilyQueries = []string{
	`{"tree":"indep","op":"topk-mean","k":3}`,
	`{"tree":"indep","op":"mean-world-jaccard"}`,
	`{"tree":"indep","op":"ranking-consensus"}`,
	`{"tree":"labeled","op":"clustering-mean"}`,
	`{"tree":"labeled","op":"aggregate-mean","k":3}`,
	`{"op":"spj-eval","spj":{"query":[{"relation":"R","args":[{"var":"x"}]},{"relation":"S","args":[{"var":"x"},{"var":"y"}]}],"tables":{"R":[{"vals":["a"],"prob":0.5},{"vals":["b"],"prob":0.25}],"S":[{"vals":["a","u"],"prob":0.4},{"vals":["b","v"],"prob":0.8}]}}}`,
}

// server is one loopback HTTP server the smoke can kill.
type server struct {
	url string
	srv *http.Server
}

func start(handler http.Handler) (*server, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{url: "http://" + l.Addr().String(), srv: &http.Server{Handler: handler}}
	go func() { _ = s.srv.Serve(l) }()
	return s, nil
}

func (s *server) close() { _ = s.srv.Close() }

func main() {
	log.SetFlags(0)
	if err := run(); err != nil {
		log.Fatalf("clustersmoke: FAIL: %v", err)
	}
	log.Printf("clustersmoke: PASS")
}

func run() error {
	// Three workers: exactly what `consensusctl worker` serves — an
	// engine behind a fencing guard, so a superseded coordinator's RPCs
	// bounce.
	var workers []*server
	var addrs []string
	for i := 0; i < 3; i++ {
		w, err := start(engine.FencedHandler(engine.New(engine.Options{}).Handler(), &engine.Fence{}))
		if err != nil {
			return err
		}
		defer w.close()
		workers = append(workers, w)
		addrs = append(addrs, w.url)
	}

	// The coordinator is durable from the start, exactly what
	// `consensusctl coordinator -data-dir` runs: the restart phase below
	// reboots it from this directory.
	dataDir, err := os.MkdirTemp("", "clustersmoke-wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dataDir)
	coord, err := distrib.New(distrib.Options{Workers: addrs, HedgeDelay: 20 * time.Millisecond, DataDir: dataDir})
	if err != nil {
		return err
	}
	defer coord.Close()
	front, err := start(coord.Handler())
	if err != nil {
		return err
	}
	defer front.close()

	single, err := start(engine.New(engine.Options{}).Handler())
	if err != nil {
		return err
	}
	defer single.close()

	// Same trees on both fronts, registered over the wire.
	rng := rand.New(rand.NewSource(16))
	indep, err := json.Marshal(workload.Independent(rng, 8))
	if err != nil {
		return err
	}
	labeled, err := json.Marshal(workload.Labeled(rng, 7, 2, 3))
	if err != nil {
		return err
	}
	for name, tree := range map[string][]byte{"indep": indep, "labeled": labeled} {
		if err := compare("PUT /v1/trees/"+name, func(base string) ([]byte, error) {
			return do(http.MethodPut, base+"/v1/trees/"+name, tree)
		}, front.url, single.url); err != nil {
			return err
		}
	}

	// Six families and the two intermediates a write purges, a mutation,
	// and all of them again after it: the post-write reads rebuild the
	// world-size distribution and the membership map on the mutated tree.
	checks := append([]string(nil), sixFamilyQueries...)
	checks = append(checks, `{"tree":"indep","op":"size-dist"}`, `{"tree":"indep","op":"membership"}`)
	queries := append([]string(nil), checks...)
	queries = append(queries, `{"tree":"indep","op":"condition","evidence":{"kind":"absent","key":"t3"}}`)
	queries = append(queries, checks...)
	for i, q := range queries {
		if err := compare(fmt.Sprintf("query %d %s", i, opOf(q)), func(base string) ([]byte, error) {
			return do(http.MethodPost, base+"/v1/query", []byte(q))
		}, front.url, single.url); err != nil {
			return err
		}
	}
	log.Printf("clustersmoke: %d responses byte-identical across cluster and single process", len(queries)+2)

	// Kill the coordinator — process gone, front gone — and restart it
	// from the write-ahead log alone.  The recovered front must keep
	// serving the full pre-crash registry byte-identically: the six
	// families, a rank distribution, and the tree downloads themselves.
	front.close()
	coord.Close()
	// The short lease interval feeds the failover phase below: the hot
	// standby watches these renewals through the shipped log.
	coord2, err := distrib.New(distrib.Options{
		Workers: addrs, HedgeDelay: 20 * time.Millisecond, DataDir: dataDir,
		LeaseInterval: 50 * time.Millisecond,
	})
	if err != nil {
		return fmt.Errorf("coordinator restart from WAL: %w", err)
	}
	defer coord2.Close()
	front, err = start(coord2.Handler())
	if err != nil {
		return err
	}
	defer front.close()

	afterRestart := append([]string(nil), sixFamilyQueries...)
	afterRestart = append(afterRestart, `{"tree":"indep","op":"rank-dist","k":3}`)
	for i, q := range afterRestart {
		if err := compare(fmt.Sprintf("post-restart query %d %s", i, opOf(q)), func(base string) ([]byte, error) {
			return do(http.MethodPost, base+"/v1/query", []byte(q))
		}, front.url, single.url); err != nil {
			return err
		}
	}
	for _, name := range []string{"indep", "labeled"} {
		if err := compare("post-restart GET /v1/trees/"+name, func(base string) ([]byte, error) {
			return do(http.MethodGet, base+"/v1/trees/"+name, nil)
		}, front.url, single.url); err != nil {
			return err
		}
	}
	log.Printf("clustersmoke: %d responses byte-identical after coordinator kill-and-restart from the WAL (fencing epoch %d)",
		len(afterRestart)+2, coord2.FencingEpoch())

	// Hot-standby failover: a second coordinator node tails coord2's WAL
	// over GET /cluster/wal into its own data dir — exactly what
	// `consensusctl coordinator -standby -primary <url>` runs.
	standbyDir, err := os.MkdirTemp("", "clustersmoke-standby-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(standbyDir)
	node, err := distrib.StartNode(distrib.NodeOptions{
		Standby: true,
		Peer:    front.url,
		Coordinator: distrib.Options{
			Workers: addrs, HedgeDelay: 20 * time.Millisecond,
			DataDir: standbyDir, LeaseInterval: 50 * time.Millisecond,
		},
		PollInterval: 25 * time.Millisecond,
		LeaseTimeout: 400 * time.Millisecond,
		Logf:         log.Printf,
	})
	if err != nil {
		return err
	}
	defer node.Close()
	nodeFront, err := start(node.Handler())
	if err != nil {
		return err
	}
	defer nodeFront.close()
	if err := waitStatus(nodeFront.url, func(st distrib.StatusInfo) bool { return st.Synced }); err != nil {
		return fmt.Errorf("standby never caught up with the primary's WAL: %w", err)
	}

	// Partition the primary away: its front goes dark, taking the lease
	// stream with it.  Nobody touches anything from here on — the
	// standby must promote itself.
	epochBefore := coord2.FencingEpoch()
	front.close()
	if err := waitStatus(nodeFront.url, func(st distrib.StatusInfo) bool { return st.Role == "leading" }); err != nil {
		return fmt.Errorf("standby never took over leadership: %w", err)
	}
	if got := node.Coordinator().FencingEpoch(); got <= epochBefore {
		return fmt.Errorf("takeover kept fencing epoch %d (ex-primary had %d); the old incarnation is not fenced out", got, epochBefore)
	}

	failover := append([]string(nil), sixFamilyQueries...)
	failover = append(failover, `{"tree":"indep","op":"condition","evidence":{"kind":"present","key":"t5"}}`)
	failover = append(failover, sixFamilyQueries...)
	for i, q := range failover {
		if err := compare(fmt.Sprintf("post-failover query %d %s", i, opOf(q)), func(base string) ([]byte, error) {
			return do(http.MethodPost, base+"/v1/query", []byte(q))
		}, nodeFront.url, single.url); err != nil {
			return err
		}
	}
	for _, name := range []string{"indep", "labeled"} {
		if err := compare("post-failover GET /v1/trees/"+name, func(base string) ([]byte, error) {
			return do(http.MethodGet, base+"/v1/trees/"+name, nil)
		}, nodeFront.url, single.url); err != nil {
			return err
		}
	}

	// The partitioned ex-primary must be locked out on first contact:
	// its next write carries the stale epoch, every replica answers
	// "fenced", and it demotes itself rather than dual-serving.
	resp := coord2.Query(engine.Request{
		Tree: "indep", Op: engine.OpCondition,
		Evidence: &engine.EvidenceRequest{Kind: "absent", Key: "t6"},
	})
	if resp.Code != engine.CodeFenced {
		return fmt.Errorf("ex-primary write after failover answered code %q, want %q", resp.Code, engine.CodeFenced)
	}
	if !coord2.IsDemoted() {
		return fmt.Errorf("ex-primary saw %q yet did not demote", engine.CodeFenced)
	}
	log.Printf("clustersmoke: %d responses byte-identical after zero-operator standby takeover (fencing epoch %d -> %d); ex-primary fenced and demoted",
		len(failover)+2, epochBefore, node.Coordinator().FencingEpoch())
	front = nodeFront

	// Kill one worker, then demand a clean run of mixed reads.
	workers[1].close()
	reads := []string{
		`{"tree":"indep","op":"size-dist"}`,
		`{"tree":"labeled","op":"membership"}`,
		`{"tree":"indep","op":"topk-mean","k":2}`,
		`{"tree":"labeled","op":"rank-dist","k":2}`,
	}
	for i := 0; i < 40; i++ {
		body, err := do(http.MethodPost, front.url+"/v1/query", []byte(reads[i%len(reads)]))
		if err != nil {
			return fmt.Errorf("read %d after worker kill: %w", i, err)
		}
		var resp engine.Response
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("read %d after worker kill: undecodable response %s", i, body)
		}
		if resp.Error != "" {
			return fmt.Errorf("read %d after worker kill failed: %s (%s)", i, resp.Error, resp.Code)
		}
	}
	log.Printf("clustersmoke: 40/40 mixed reads succeeded with one worker down")
	return nil
}

// compare runs the same request against both fronts and demands
// byte-identical bodies.
func compare(label string, req func(base string) ([]byte, error), cluster, single string) error {
	got, err := req(cluster)
	if err != nil {
		return fmt.Errorf("%s against cluster: %w", label, err)
	}
	want, err := req(single)
	if err != nil {
		return fmt.Errorf("%s against single process: %w", label, err)
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s diverged:\n cluster: %s\n single:  %s", label, got, want)
	}
	return nil
}

func do(method, url string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// waitStatus polls base's /cluster/status until cond holds on the
// decoded StatusInfo.
func waitStatus(base string, cond func(distrib.StatusInfo) bool) error {
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		body, err := do(http.MethodGet, base+"/cluster/status", nil)
		if err == nil {
			var st distrib.StatusInfo
			if json.Unmarshal(body, &st) == nil && cond(st) {
				return nil
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	return fmt.Errorf("condition not reached within 15s")
}

// opOf extracts the op field for progress labels.
func opOf(q string) string {
	var r struct {
		Op string `json:"op"`
	}
	if json.Unmarshal([]byte(q), &r) != nil {
		return "?"
	}
	return r.Op
}
