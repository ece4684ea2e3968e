package engine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"consensus/internal/andxor"
	"consensus/internal/workload"
)

// TestMutationStreamMatchesFreshEngine drives a long set-prob stream
// through one engine the way the serving benchmark's spill workload does:
// a 128-block BID tree, renormalizing probability updates interleaved with
// reads at random cutoffs, so the indexed rank distribution is repaired
// at whatever width it has grown to and k-answers are served from wider
// distributions' prefixes, and every step reads the world-size
// distribution and the membership map, which each write purges and the
// next read rebuilds.  Afterwards the footrule and symmetric-difference
// mean answers and the rank distributions at every k = 1..32, the
// world-size distribution and the membership map must be byte-identical
// (epoch aside) to those of a fresh engine registered from the tree's
// JSON download.
func TestMutationStreamMatchesFreshEngine(t *testing.T) {
	for _, seed := range []int64{38, 1401} {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			tr := workload.BID(rng, 128, 2)
			hot := New(Options{})
			if err := hot.Register("db", tr); err != nil {
				t.Fatal(err)
			}
			hotSrv := httptest.NewServer(hot.Handler())
			defer hotSrv.Close()

			readAt := func(k int) []Request {
				return []Request{
					{Tree: "db", Op: OpTopKMean, Metric: MetricFootrule, K: k},
					{Tree: "db", Op: OpTopKMean, Metric: MetricSymDiff, K: k},
					{Tree: "db", Op: OpRankDist, K: k},
				}
			}
			uncut := []Request{{Tree: "db", Op: OpSizeDist}, {Tree: "db", Op: OpMembership}}
			const mutations = 60
			for m := 0; m < mutations; m++ {
				for _, req := range readAt(1 + rng.Intn(32))[:1+rng.Intn(3)] {
					spillQuery(t, hotSrv, req)
				}
				for _, req := range uncut {
					spillQuery(t, hotSrv, req)
				}
				cur, _ := hot.Tree("db")
				alts := cur.LeafAlternatives()
				a := alts[rng.Intn(len(alts))]
				var resp Response
				if err := json.Unmarshal(spillQuery(t, hotSrv, Request{Tree: "db", Op: OpMutate, Mutation: &MutationRequest{
					Kind: string(andxor.UpdateSetProb), Key: a.Key, Score: a.Score,
					Prob: 0.05 + 0.9*rng.Float64(), Renormalize: true,
				}}), &resp); err != nil {
					t.Fatal(err)
				}
				if resp.Error != "" {
					t.Fatalf("mutation %d rejected: %s", m, resp.Error)
				}
			}

			var doc json.RawMessage
			doJSON(t, hotSrv, http.MethodGet, "/v1/trees/db", nil, http.StatusOK, &doc)
			freshSrv := httptest.NewServer(New(Options{}).Handler())
			defer freshSrv.Close()
			doJSON(t, freshSrv, http.MethodPut, "/v1/trees/db", doc, http.StatusOK, nil)

			reads := uncut
			for k := 1; k <= 32; k++ {
				reads = append(reads, readAt(k)...)
			}
			for _, req := range reads {
				got := withoutEpoch(t, spillQuery(t, hotSrv, req))
				want := withoutEpoch(t, spillQuery(t, freshSrv, req))
				if !bytes.Equal(got, want) {
					t.Fatalf("%s/%s k=%d after %d mutations:\nmutated %s\nfresh   %s", req.Op, req.Metric, req.K, mutations, got, want)
				}
			}
		})
	}
}

// spillQuery posts one request and returns the raw response body.
func spillQuery(t *testing.T, srv *httptest.Server, req Request) []byte {
	t.Helper()
	var raw json.RawMessage
	doJSON(t, srv, http.MethodPost, "/v1/query", req, http.StatusOK, &raw)
	return raw
}

// withoutEpoch drops the epoch field from a response body and re-encodes
// the rest; every other value keeps its served bytes.
func withoutEpoch(t *testing.T, raw []byte) []byte {
	t.Helper()
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatalf("decoding %s: %v", raw, err)
	}
	if _, ok := fields["error"]; ok {
		t.Fatalf("query failed: %s", raw)
	}
	delete(fields, "epoch")
	out, err := json.Marshal(fields)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
