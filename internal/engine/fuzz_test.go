package engine

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"consensus/internal/workload"
)

// FuzzHandlerQuery feeds arbitrary bodies to POST /v1/query: the handler
// must never panic, must answer structurally invalid requests (malformed
// JSON, huge k, negative epsilon, unknown ops/modes) with a 4xx status,
// and must emit decodable JSON for every accepted request.
func FuzzHandlerQuery(f *testing.F) {
	e := New(Options{})
	if err := e.Register("db", workload.Independent(rand.New(rand.NewSource(1)), 6)); err != nil {
		f.Fatal(err)
	}
	h := e.Handler()

	for _, seed := range []string{
		`{"tree":"db","op":"topk-mean","k":3}`,
		`{"tree":"db","op":"rank-dist","k":2,"mode":"approx","epsilon":0.2,"delta":0.1}`,
		`{"tree":"db","op":"size-dist","mode":"auto"}`,
		`{"tree":"db","op":"membership","keys":["t1","t9"]}`,
		`{"tree":"db","op":"topk-mean","k":1073741824}`,
		`{"tree":"db","op":"rank-dist","k":2,"epsilon":-1}`,
		`{"tree":"db","op":"rank-dist","k":2,"delta":7}`,
		`{"tree":"db","op":"rank-dist","k":2,"mode":"psychic"}`,
		`{"tree":"db","op":"wat"}`,
		`{"op":"size-dist"}`,
		`{"tree":"ghost","op":"size-dist"}`,
		`{"tree":"db","op":"world-prob","world":[{"Key":"t1","Score":1}]}`,
		`{"tree":"db","op":"topk-mean","k":1e999}`,
		`not json at all`,
		`{"tree":`,
		``,
		`[]`,
		`{"tree":"db","op":"topk-mean","k":-5}`,
		// One well-formed and one malformed payload per query family op.
		`{"tree":"db","op":"mean-world-jaccard"}`,
		`{"tree":"db","op":"mean-world-jaccard","mode":"wat"}`,
		`{"tree":"db","op":"median-world-jaccard","epsilon":-2}`,
		`{"tree":"db","op":"clustering-mean","restarts":5,"seed":3}`,
		`{"tree":"db","op":"clustering-mean","restarts":-7}`,
		`{"tree":"db","op":"aggregate-mean","k":2}`,
		`{"tree":"db","op":"aggregate-mean","group_by":"vibes"}`,
		`{"tree":"db","op":"aggregate-median","k":-9}`,
		`{"tree":"db","op":"ranking-consensus","method":"borda"}`,
		`{"tree":"db","op":"ranking-consensus","method":"alchemy"}`,
		`{"op":"spj-eval","spj":{"query":[{"relation":"R","args":[{"var":"x"}]}],"tables":{"R":[{"vals":["a"],"prob":0.5}]}}}`,
		`{"op":"spj-eval","spj":{"query":[{"relation":"R","args":[{"var":"x","const":"a"}]}],"tables":{}}}`,
		`{"op":"spj-eval"}`,
		// Mutation and evidence payloads, singular and batched, well-formed
		// and malformed: exactly one of mutation/mutations must be set, every
		// batch entry is validated, and oversized batches are refused.
		`{"tree":"db","op":"mutate","mutation":{"kind":"set-prob","key":"t1","score":1,"prob":0.5,"renormalize":true}}`,
		`{"tree":"db","op":"mutate","mutations":[{"kind":"set-prob","key":"t1","score":1,"prob":0.3},{"kind":"insert","key":"t2","score":9,"prob":0},{"kind":"delete","key":"t3","score":2}]}`,
		`{"tree":"db","op":"mutate","mutation":{"kind":"set-prob","key":"t1","prob":0.3},"mutations":[{"kind":"delete","key":"t2","score":1}]}`,
		`{"tree":"db","op":"mutate","mutations":[]}`,
		`{"tree":"db","op":"mutate","mutations":[{"kind":"frob","key":"x"}]}`,
		`{"tree":"db","op":"mutate","mutations":[{"kind":"set-prob","key":"t1","prob":1e999}]}`,
		`{"tree":"db","op":"condition","evidences":[{"kind":"present","key":"t1"},{"kind":"absent","key":"t2"}]}`,
		`{"tree":"db","op":"condition","evidences":[{"kind":"choose","key":"t1","score":1}]}`,
		`{"tree":"db","op":"condition","evidence":{"kind":"present","key":"t1"},"evidences":[{"kind":"absent","key":"t2"}]}`,
		`{"tree":"db","op":"condition","evidences":[{"kind":"present"}]}`,
		// Fields outside the Request schema, top-level and nested (former
		// versioned-envelope groups, misspelled knobs): strict decoding
		// refuses each with a 400.
		`{"v":1,"tree":"db","op":"topk-mean","topk":{"k":3,"metric":"footrule"}}`,
		`{"tree":"db","op":"rank-dist","rank":{"k":2,"keys":["t1"]}}`,
		`{"tree":"db","op":"aggregate-mean","aggregate":{"group_by":"rank","k":2}}`,
		`{"tree":"db","op":"ranking-consensus","ranking":{"method":"borda"}}`,
		`{"tree":"db","op":"clustering-mean","clustering":{"restarts":5,"seed":3}}`,
		`{"tree":"db","op":"membership","membership":{"keys":["t1"]}}`,
		`{"tree":"db","op":"topk-mean","k":3,"metirc":"footrule"}`,
		`{"tree":"db","op":"size-dist","extra":null}`,
		`{"tree":"db","op":"mutate","mutation":{"kind":"set-prob","key":"t1","score":1,"prob":0.5,"renormalise":true}}`,
		`{"tree":"db","op":"condition","evidences":[{"kind":"present","key":"t1","label":"x"}]}`,
		`{"op":"spj-eval","spj":{"query":[],"tables":{},"limit":3}}`,
	} {
		f.Add([]byte(seed))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req) // must not panic
		code := rec.Code
		if code != http.StatusOK && (code < 400 || code >= 500) {
			t.Fatalf("body %q: status %d, want 200 or 4xx", body, code)
		}
		if code == http.StatusOK {
			var resp Response
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("body %q: 200 response is not a Response: %v (%s)", body, err, rec.Body.Bytes())
			}
		} else {
			var errResp map[string]string
			if err := json.Unmarshal(rec.Body.Bytes(), &errResp); err != nil || errResp["error"] == "" {
				t.Fatalf("body %q: %d response lacks an error message (%s)", body, code, rec.Body.Bytes())
			}
		}
	})
}

// TestHandlerQueryValidationStatuses pins the boundary the fuzz target
// relies on: structurally invalid requests are 400s, semantic failures
// stay 200-with-error.
func TestHandlerQueryValidationStatuses(t *testing.T) {
	e := New(Options{})
	if err := e.Register("db", workload.Independent(rand.New(rand.NewSource(2)), 5)); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(e.Handler())
	defer srv.Close()

	post := func(body string) int {
		t.Helper()
		resp, err := srv.Client().Post(srv.URL+"/v1/query", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	for _, tc := range []struct {
		body string
		want int
	}{
		{`{"tree":"db","op":"topk-mean","k":3}`, http.StatusOK},
		{`{"tree":"ghost","op":"size-dist"}`, http.StatusOK}, // unknown tree: semantic
		{`{"tree":"db","op":"topk-mean","k":0}`, http.StatusBadRequest},
		{`{"tree":"db","op":"topk-mean","k":1073741824}`, http.StatusBadRequest}, // huge k
		{`{"tree":"db","op":"rank-dist","k":2,"epsilon":-0.1}`, http.StatusBadRequest},
		{`{"tree":"db","op":"rank-dist","k":2,"delta":1}`, http.StatusBadRequest},
		{`{"tree":"db","op":"rank-dist","k":2,"mode":"maybe"}`, http.StatusBadRequest},
		{`{"tree":"db","op":"conjure"}`, http.StatusBadRequest},
		{`garbage`, http.StatusBadRequest},
	} {
		if got := post(tc.body); got != tc.want {
			t.Errorf("POST %s: status %d, want %d", tc.body, got, tc.want)
		}
	}
}
