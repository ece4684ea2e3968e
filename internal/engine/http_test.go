package engine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"consensus/internal/topk"
	"consensus/internal/workload"
)

func doJSON(t *testing.T, srv *httptest.Server, method, path string, body any, wantStatus int, out any) {
	t.Helper()
	var buf io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		buf = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, srv.URL+path, buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("%s %s: status %d, want %d (body %s)", method, path, resp.StatusCode, wantStatus, raw)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, path, raw, err)
		}
	}
}

func TestHTTPLifecycle(t *testing.T) {
	e := New(Options{})
	srv := httptest.NewServer(e.Handler())
	defer srv.Close()

	tr := workload.BID(rand.New(rand.NewSource(3)), 30, 2)
	treeJSON, err := tr.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}

	// Health and empty listing.
	doJSON(t, srv, http.MethodGet, "/healthz", nil, http.StatusOK, nil)
	var listing struct {
		Trees []string `json:"trees"`
	}
	doJSON(t, srv, http.MethodGet, "/v1/trees", nil, http.StatusOK, &listing)
	if len(listing.Trees) != 0 {
		t.Fatalf("fresh engine lists trees %v", listing.Trees)
	}

	// Register via raw body (not doJSON: the body is already JSON).
	req, _ := http.NewRequest(http.MethodPut, srv.URL+"/v1/trees/db", bytes.NewReader(treeJSON))
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register status %d", resp.StatusCode)
	}
	doJSON(t, srv, http.MethodGet, "/v1/trees", nil, http.StatusOK, &listing)
	if !reflect.DeepEqual(listing.Trees, []string{"db"}) {
		t.Fatalf("listing %v, want [db]", listing.Trees)
	}

	// Tree download round-trips.
	var fetched json.RawMessage
	doJSON(t, srv, http.MethodGet, "/v1/trees/db", nil, http.StatusOK, &fetched)
	var a, b any
	if err := json.Unmarshal(treeJSON, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(fetched, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("downloaded tree differs from the uploaded document")
	}

	// Single query matches the library.
	want, _, err := topk.MeanSymDiff(tr, 5)
	if err != nil {
		t.Fatal(err)
	}
	var qr Response
	doJSON(t, srv, http.MethodPost, "/v1/query",
		Request{Tree: "db", Op: OpTopKMean, K: 5}, http.StatusOK, &qr)
	if qr.Error != "" || !reflect.DeepEqual(qr.TopK, []string(want)) {
		t.Fatalf("query answer %v (err %q), want %v", qr.TopK, qr.Error, want)
	}

	// Batch: valid + invalid stay independent.
	var batch struct {
		Responses []Response `json:"responses"`
	}
	doJSON(t, srv, http.MethodPost, "/v1/batch", map[string]any{
		"requests": []Request{
			{Tree: "db", Op: OpSizeDist},
			{Tree: "ghost", Op: OpSizeDist},
		},
	}, http.StatusOK, &batch)
	if len(batch.Responses) != 2 {
		t.Fatalf("batch returned %d responses", len(batch.Responses))
	}
	if batch.Responses[0].Error != "" || batch.Responses[1].Error == "" {
		t.Fatalf("batch errors: %q, %q", batch.Responses[0].Error, batch.Responses[1].Error)
	}

	// Stats reflect the traffic.
	var stats Stats
	doJSON(t, srv, http.MethodGet, "/v1/stats", nil, http.StatusOK, &stats)
	if stats.Trees != 1 || stats.Computes == 0 {
		t.Errorf("stats = %+v, want 1 tree and nonzero computes", stats)
	}

	// Delete, then queries 404 at the resource level and error per-request.
	doJSON(t, srv, http.MethodDelete, "/v1/trees/db", nil, http.StatusOK, nil)
	doJSON(t, srv, http.MethodGet, "/v1/trees/db", nil, http.StatusNotFound, nil)
	doJSON(t, srv, http.MethodDelete, "/v1/trees/db", nil, http.StatusNotFound, nil)
	doJSON(t, srv, http.MethodPost, "/v1/query",
		Request{Tree: "db", Op: OpSizeDist}, http.StatusOK, &qr)
	if qr.Error == "" {
		t.Error("query against a deleted tree must report an error")
	}
}

func TestHTTPBadInputs(t *testing.T) {
	e := New(Options{})
	srv := httptest.NewServer(e.Handler())
	defer srv.Close()

	for _, tc := range []struct {
		method, path, body string
		want               int
	}{
		{http.MethodPut, "/v1/trees/x", "not json", http.StatusBadRequest},
		{http.MethodPut, "/v1/trees/x", `{"kind":"wat"}`, http.StatusBadRequest},
		{http.MethodPost, "/v1/query", "not json", http.StatusBadRequest},
		{http.MethodPost, "/v1/batch", "not json", http.StatusBadRequest},
		{http.MethodGet, "/v1/nope", "", http.StatusNotFound},
		// A valid JSON prefix larger than the body limit must be reported
		// as too large, not bad syntax.
		{http.MethodPost, "/v1/query", `{"pad":"` + strings.Repeat("x", maxQueryBytes+1) + `"}`,
			http.StatusRequestEntityTooLarge},
	} {
		req, _ := http.NewRequest(tc.method, srv.URL+tc.path, bytes.NewReader([]byte(tc.body)))
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s %s: status %d, want %d", tc.method, tc.path, resp.StatusCode, tc.want)
		}
	}
}

// legacyPayloads is a representative sample of the flat request form,
// one per family knob.
var legacyPayloads = []string{
	`{"tree":"db","op":"topk-mean","k":3,"metric":"footrule"}`,
	`{"tree":"db","op":"topk-median","k":2}`,
	`{"tree":"db","op":"rank-dist","k":4,"keys":["t1","t2"]}`,
	`{"tree":"db","op":"aggregate-mean","group_by":"rank","k":2}`,
	`{"tree":"db","op":"aggregate-median","group_by":"label"}`,
	`{"tree":"db","op":"ranking-consensus","method":"borda"}`,
	`{"tree":"db","op":"clustering-mean","restarts":7,"seed":3}`,
	`{"tree":"db","op":"membership","keys":["t1"]}`,
	`{"tree":"db","op":"size-dist","mode":"auto","epsilon":0.1,"delta":0.01}`,
	`{"tree":"db","op":"mutate","mutation":{"kind":"set-prob","key":"t1","score":1,"prob":0.5}}`,
	`{"op":"spj-eval","spj":{"query":[{"relation":"R","args":[{"var":"x"}]}],"tables":{"R":[{"vals":["a"],"prob":0.5}]}}}`,
}

// TestHandlerRejectsUnknownFields pins strict decoding on both query
// endpoints: a field outside the Request schema, at any depth, is a 400
// bad_request naming the field — so a versioned-envelope payload or a
// misspelled knob is refused instead of silently answered with the
// defaults — while every flat payload is still accepted.
func TestHandlerRejectsUnknownFields(t *testing.T) {
	e := New(Options{})
	if err := e.Register("db", workload.Independent(rand.New(rand.NewSource(7)), 6)); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(e.Handler())
	defer srv.Close()

	post := func(path, body string) (int, []byte) {
		t.Helper()
		resp, err := srv.Client().Post(srv.URL+path, "application/json", strings.NewReader(body))
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
	// Each request body goes to /v1/query alone and to /v1/batch as a
	// one-entry batch.
	bodies := func(payload string) map[string]string {
		return map[string]string{
			"/v1/query": payload,
			"/v1/batch": `{"requests":[` + payload + `]}`,
		}
	}

	for _, tc := range []struct{ payload, field string }{
		{`{"v":1,"tree":"db","op":"topk-mean","topk":{"k":3,"metric":"footrule"}}`, "v"},
		{`{"v":1,"tree":"db","op":"rank-dist","rank":{"k":2,"keys":["t1"]}}`, "v"},
		{`{"tree":"db","op":"aggregate-mean","aggregate":{"group_by":"rank","k":2}}`, "aggregate"},
		{`{"tree":"db","op":"ranking-consensus","ranking":{"method":"borda"}}`, "ranking"},
		{`{"tree":"db","op":"clustering-mean","clustering":{"restarts":5,"seed":3}}`, "clustering"},
		{`{"tree":"db","op":"membership","membership":{"keys":["t1"]}}`, "membership"},
		{`{"tree":"db","op":"topk-mean","k":3,"topk":{"k":3}}`, "topk"},
		{`{"tree":"db","op":"rank-dist","k":2,"rank":{"k":2}}`, "rank"},
		{`{"tree":"db","op":"size-dist","v":2}`, "v"},
		{`{"tree":"db","op":"topk-mean","k":3,"metirc":"footrule"}`, "metirc"},
		{`{"tree":"db","op":"mutate","mutation":{"kind":"set-prob","key":"t1","score":1,"prob":0.5,"renormalise":true}}`, "renormalise"},
	} {
		for path, body := range bodies(tc.payload) {
			status, raw := post(path, body)
			var errBody map[string]string
			if err := json.Unmarshal(raw, &errBody); err != nil {
				t.Fatalf("POST %s %s: undecodable body %s", path, body, raw)
			}
			if status != http.StatusBadRequest || errBody["code"] != string(CodeBadRequest) ||
				!strings.Contains(errBody["error"], fmt.Sprintf("unknown field %q", tc.field)) {
				t.Errorf("POST %s %s: status %d body %s, want 400 bad_request naming %q", path, body, status, raw, tc.field)
			}
		}
	}

	for _, payload := range legacyPayloads {
		for path, body := range bodies(payload) {
			if status, raw := post(path, body); status != http.StatusOK {
				t.Errorf("POST %s %s: status %d (%s), want 200", path, body, status, raw)
			}
		}
	}
}

func TestHTTPConcurrentQueries(t *testing.T) {
	e := New(Options{})
	srv := httptest.NewServer(e.Handler())
	defer srv.Close()
	tr := workload.BID(rand.New(rand.NewSource(4)), 30, 2)
	if err := e.Register("db", tr); err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 16)
	for c := 0; c < 16; c++ {
		go func() {
			errc <- func() error {
				var qr Response
				for i := 0; i < 5; i++ {
					body, _ := json.Marshal(Request{Tree: "db", Op: OpTopKMean, K: 8})
					resp, err := srv.Client().Post(srv.URL+"/v1/query", "application/json", bytes.NewReader(body))
					if err != nil {
						return fmt.Errorf("post: %w", err)
					}
					err = json.NewDecoder(resp.Body).Decode(&qr)
					resp.Body.Close()
					if err != nil {
						return fmt.Errorf("decode: %w", err)
					}
					if qr.Error != "" {
						return fmt.Errorf("query: %s", qr.Error)
					}
				}
				return nil
			}()
		}()
	}
	for c := 0; c < 16; c++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	if e.Stats().Computes > 2 {
		t.Errorf("computes = %d, want <= 2 (ranks + answer) under identical concurrent HTTP load", e.Stats().Computes)
	}
}
