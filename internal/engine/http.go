package engine

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"consensus/internal/andxor"
)

// maxTreeBytes bounds the accepted size of an uploaded tree document;
// maxQueryBytes bounds query and batch bodies, which are far smaller.
const (
	maxTreeBytes  = 64 << 20
	maxQueryBytes = 8 << 20
)

// NewHandler exposes a Service over HTTP/JSON using the and/xor tree
// codecs:
//
//	PUT    /v1/trees/{name}   register the tree in the request body
//	GET    /v1/trees/{name}   download a registered tree as JSON
//	DELETE /v1/trees/{name}   unregister a tree
//	GET    /v1/trees          list registered tree names
//	POST   /v1/query          execute one Request, returning its Response
//	POST   /v1/batch          execute {"requests": [...]} as one batch
//	GET    /v1/stats          service statistics
//	GET    /healthz           liveness probe
//
// Query and batch bodies are the flat Request JSON, decoded strictly: a
// field the schema does not define is rejected with status 400, like
// malformed JSON.  Structurally invalid single queries (unknown op or
// mode, k out of range, negative epsilon, delta outside [0, 1)) are
// rejected with status 400 too.  Semantic failures (unknown trees or tuple
// keys, infeasible budgets, computation errors) are reported in
// Response.Error — with their typed Response.Code — at status 200; other
// non-2xx statuses are reserved for transport-level problems (unknown
// routes, oversized bodies, missing trees on the tree resource
// endpoints).  Error bodies always carry {"error": ..., "code": ...}.
//
// Handler code is written against the Service interface, so the same
// HTTP surface fronts the single-process engine and the distributed
// coordinator.
func NewHandler(s Service) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})

	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})

	mux.HandleFunc("GET /v1/trees", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string][]string{"trees": s.Trees()})
	})

	registerTree := func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxTreeBytes))
		if err != nil {
			httpError(w, CodeBadRequest, fmt.Errorf("reading body: %w", err))
			return
		}
		tree, err := andxor.UnmarshalTree(body)
		if err != nil {
			httpError(w, CodeBadRequest, err)
			return
		}
		if err := s.Register(name, tree); err != nil {
			httpError(w, CodeOf(err), err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"tree":   name,
			"keys":   len(tree.Keys()),
			"leaves": tree.NumLeaves(),
		})
	}
	mux.HandleFunc("PUT /v1/trees/{name}", registerTree)
	mux.HandleFunc("POST /v1/trees/{name}", registerTree)

	mux.HandleFunc("GET /v1/trees/{name}", func(w http.ResponseWriter, r *http.Request) {
		tree, ok := s.Tree(r.PathValue("name"))
		if !ok {
			httpError(w, CodeUnknownTree, fmt.Errorf("engine: unknown tree %q", r.PathValue("name")))
			return
		}
		writeJSON(w, http.StatusOK, tree)
	})

	mux.HandleFunc("DELETE /v1/trees/{name}", func(w http.ResponseWriter, r *http.Request) {
		if !s.Unregister(r.PathValue("name")) {
			httpError(w, CodeUnknownTree, fmt.Errorf("engine: unknown tree %q", r.PathValue("name")))
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"deleted": r.PathValue("name")})
	})

	mux.HandleFunc("POST /v1/query", func(w http.ResponseWriter, r *http.Request) {
		var req Request
		if err := decodeStrict(w, r, &req); err != nil {
			httpError(w, CodeBadRequest, err)
			return
		}
		if err := req.Validate(); err != nil {
			// A structurally bad request (huge k, negative epsilon, bad
			// mode) is the client's bug: reject it at the transport level
			// instead of wrapping it in a 200 response.
			httpError(w, CodeBadRequest, err)
			return
		}
		writeJSON(w, http.StatusOK, s.QueryContext(r.Context(), req))
	})

	mux.HandleFunc("POST /v1/batch", func(w http.ResponseWriter, r *http.Request) {
		var batch struct {
			Requests []Request `json:"requests"`
		}
		if err := decodeStrict(w, r, &batch); err != nil {
			httpError(w, CodeBadRequest, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string][]Response{"responses": s.DoContext(r.Context(), batch.Requests)})
	})

	return mux
}

// Handler exposes the engine over HTTP/JSON; see NewHandler for the
// endpoint list.
func (e *Engine) Handler() http.Handler { return NewHandler(e) }

// decodeStrict decodes a query or batch body, refusing any field the
// Request schema does not define (at any depth), so a misspelled knob is
// a 400 naming the field rather than a silently ignored default.
func decodeStrict(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxQueryBytes))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// httpError writes a transport-level error body {"error", "code"}, with
// the status derived from the typed code.
func httpError(w http.ResponseWriter, code Code, err error) {
	status := code.HTTPStatus()
	// An over-limit body is a size problem, not a syntax problem; tell
	// the client so it does not retry the same payload as "bad JSON".
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		status = http.StatusRequestEntityTooLarge
	}
	writeJSON(w, status, map[string]string{"error": err.Error(), "code": string(code)})
}
