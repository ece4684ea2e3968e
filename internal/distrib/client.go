package distrib

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"

	"consensus/internal/engine"
)

// wireClient is the coordinator's side of the internal RPC boundary: the
// worker's public HTTP/JSON surface reused as the shard protocol.  Every
// failure comes back as a typed *engine.Error, so the routing layer
// branches on Code.Retryable without inspecting transports: connection
// failures are CodeUnavailable, deadline expiry is CodeTimeout, and
// non-2xx statuses carry the code the worker put in the error body.
//
// When the coordinator runs with a fencing epoch (durable mode), every
// request it issues is stamped with engine.FencingHeader: workers learn
// the newest epoch from any request that touches them and reject
// anything stamped older, so a superseded coordinator cannot mutate (or
// read) a shard.
type wireClient struct {
	hc    *http.Client
	fence *atomic.Uint64 // this coordinator's fencing epoch; nil or 0 = unfenced
}

// stamp attaches the coordinator's fencing epoch to an outgoing worker
// request.  Unfenced coordinators (no data dir) send no fencing header
// at all, so workers of a non-durable cluster see requests with no
// epoch and never answer "fenced".
func (w *wireClient) stamp(req *http.Request) {
	if w.fence == nil {
		return
	}
	if e := w.fence.Load(); e > 0 {
		req.Header.Set(engine.FencingHeader, strconv.FormatUint(e, 10))
	}
}

// query posts one request to the worker's /v1/query and decodes the
// Response.  A 200 always decodes (semantic failures ride inside the
// Response with their code); every other outcome is a typed error.
func (w *wireClient) query(ctx context.Context, base string, req engine.Request) (engine.Response, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return engine.Response{}, &engine.Error{Code: engine.CodeBadRequest, Msg: err.Error()}
	}
	data, err := w.post(ctx, base+"/v1/query", body)
	if err != nil {
		return engine.Response{}, err
	}
	var resp engine.Response
	if err := json.Unmarshal(data, &resp); err != nil {
		return engine.Response{}, &engine.Error{Code: engine.CodeUnavailable,
			Msg: fmt.Sprintf("distrib: worker %s answered undecodable response: %v", base, err)}
	}
	return resp, nil
}

// putTree registers (or replaces) a tree snapshot on the worker.
func (w *wireClient) putTree(ctx context.Context, base, name string, snapshot []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, base+"/v1/trees/"+name, bytes.NewReader(snapshot))
	if err != nil {
		return &engine.Error{Code: engine.CodeBadRequest, Msg: err.Error()}
	}
	_, err = w.do(req)
	return err
}

// getTree downloads the worker's current serialized form of a tree.
func (w *wireClient) getTree(ctx context.Context, base, name string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/trees/"+name, nil)
	if err != nil {
		return nil, &engine.Error{Code: engine.CodeBadRequest, Msg: err.Error()}
	}
	return w.do(req)
}

// deleteTree unregisters a tree on the worker.
func (w *wireClient) deleteTree(ctx context.Context, base, name string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, base+"/v1/trees/"+name, nil)
	if err != nil {
		return &engine.Error{Code: engine.CodeBadRequest, Msg: err.Error()}
	}
	_, err = w.do(req)
	return err
}

// health probes the worker's liveness endpoint.
func (w *wireClient) health(ctx context.Context, base string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
	if err != nil {
		return &engine.Error{Code: engine.CodeBadRequest, Msg: err.Error()}
	}
	_, err = w.do(req)
	return err
}

// listTrees fetches the worker's registered tree names (the
// reconciliation poll).
func (w *wireClient) listTrees(ctx context.Context, base string) ([]string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/trees", nil)
	if err != nil {
		return nil, &engine.Error{Code: engine.CodeBadRequest, Msg: err.Error()}
	}
	data, err := w.do(req)
	if err != nil {
		return nil, err
	}
	var listing struct {
		Trees []string `json:"trees"`
	}
	if err := json.Unmarshal(data, &listing); err != nil {
		return nil, &engine.Error{Code: engine.CodeUnavailable,
			Msg: fmt.Sprintf("distrib: worker %s answered undecodable listing: %v", base, err)}
	}
	return listing.Trees, nil
}

// stats fetches the worker's engine statistics.
func (w *wireClient) stats(ctx context.Context, base string) (engine.Stats, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/stats", nil)
	if err != nil {
		return engine.Stats{}, &engine.Error{Code: engine.CodeBadRequest, Msg: err.Error()}
	}
	data, err := w.do(req)
	if err != nil {
		return engine.Stats{}, err
	}
	var s engine.Stats
	if err := json.Unmarshal(data, &s); err != nil {
		return engine.Stats{}, &engine.Error{Code: engine.CodeUnavailable, Msg: err.Error()}
	}
	return s, nil
}

func (w *wireClient) post(ctx context.Context, url string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, &engine.Error{Code: engine.CodeBadRequest, Msg: err.Error()}
	}
	req.Header.Set("Content-Type", "application/json")
	return w.do(req)
}

// do runs the request and returns the body of a 2xx answer, or a typed
// error classifying the failure.
func (w *wireClient) do(req *http.Request) ([]byte, error) {
	w.stamp(req)
	resp, err := w.hc.Do(req)
	if err != nil {
		code := engine.CodeUnavailable
		if ctxErr := req.Context().Err(); ctxErr != nil {
			code = engine.CodeOf(ctxErr)
		}
		return nil, &engine.Error{Code: code,
			Msg: fmt.Sprintf("distrib: worker unreachable: %v", err)}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		code := engine.CodeUnavailable
		if ctxErr := req.Context().Err(); ctxErr != nil {
			code = engine.CodeOf(ctxErr)
		}
		return nil, &engine.Error{Code: code,
			Msg: fmt.Sprintf("distrib: reading worker response: %v", err)}
	}
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		return data, nil
	}
	return nil, decodeErrorBody(resp.StatusCode, data)
}

// decodeErrorBody turns a worker's non-2xx {"error","code"} body into a
// typed error, falling back to a status-derived code when the body is
// not the handler's error shape (a proxy answered, the body was cut).
func decodeErrorBody(status int, data []byte) *engine.Error {
	var body struct {
		Error string `json:"error"`
		Code  string `json:"code"`
	}
	if json.Unmarshal(data, &body) == nil && body.Code != "" {
		return &engine.Error{Code: engine.Code(body.Code), Msg: body.Error}
	}
	code := engine.CodeFailed
	switch {
	case status == http.StatusNotFound:
		code = engine.CodeUnknownTree
	case status == http.StatusTooManyRequests:
		code = engine.CodeOverloaded
	case status == http.StatusBadRequest || status == http.StatusRequestEntityTooLarge:
		code = engine.CodeBadRequest
	case status >= 500:
		code = engine.CodeUnavailable
	}
	return &engine.Error{Code: code,
		Msg: fmt.Sprintf("distrib: worker answered status %d: %s", status, bytes.TrimSpace(data))}
}
