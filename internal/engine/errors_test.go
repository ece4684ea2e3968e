package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"testing"
	"time"

	"consensus/internal/workload"
)

// TestResponseCodes pins the typed code each failure class carries: the
// coordinator's retry policy branches on these, so they are wire
// contract, not presentation.
func TestResponseCodes(t *testing.T) {
	e := New(Options{})
	if err := e.Register("db", workload.Independent(rand.New(rand.NewSource(3)), 5)); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		req  Request
		want Code
	}{
		{"bad op", Request{Tree: "db", Op: "conjure"}, CodeBadRequest},
		{"bad k", Request{Tree: "db", Op: OpTopKMean, K: -1}, CodeBadRequest},
		{"missing tree name", Request{Op: OpSizeDist}, CodeBadRequest},
		{"unknown tree", Request{Tree: "ghost", Op: OpSizeDist}, CodeUnknownTree},
		{"unknown key", Request{Tree: "db", Op: OpMembership, Keys: []string{"nope"}}, CodeUnknownKey},
		{"unknown rank key", Request{Tree: "db", Op: OpRankDist, K: 2, Keys: []string{"nope"}}, CodeUnknownKey},
		{"unknown approx key", Request{Tree: "db", Op: OpMembership, Mode: ModeApprox, Keys: []string{"nope"}}, CodeUnknownKey},
		{"unknown approx rank key", Request{Tree: "db", Op: OpRankDist, Mode: ModeApprox, K: 2, Keys: []string{"nope"}}, CodeUnknownKey},
		{"kemeny cap", Request{Tree: "db", Op: OpRankingConsensus, Method: MethodKemeny}, ""},
		{"ok", Request{Tree: "db", Op: OpSizeDist}, ""},
	} {
		resp := e.Query(tc.req)
		if tc.want == "" && tc.name != "kemeny cap" {
			if !resp.Ok() || resp.Code != "" {
				t.Errorf("%s: ok=%v code=%q, want success with empty code", tc.name, resp.Ok(), resp.Code)
			}
			continue
		}
		if tc.name == "kemeny cap" {
			// 5 tuples is within the exact-DP cap, so this succeeds; the
			// point is only that success carries no code.
			if resp.Code != "" && resp.Ok() {
				t.Errorf("%s: success carries code %q", tc.name, resp.Code)
			}
			continue
		}
		if resp.Ok() || resp.Code != tc.want {
			t.Errorf("%s: ok=%v code=%q error=%q, want code %q", tc.name, resp.Ok(), resp.Code, resp.Error, tc.want)
		}
	}
}

// TestCancellationCodes pins the context-expiry mapping: deadline expiry
// is a retryable timeout, explicit cancellation is not retryable.
func TestCancellationCodes(t *testing.T) {
	e := New(Options{Workers: 1})
	if err := e.Register("db", workload.Independent(rand.New(rand.NewSource(4)), 5)); err != nil {
		t.Fatal(err)
	}

	// Occupy the single worker slot so the probe request queues.
	block := make(chan struct{})
	release := make(chan struct{})
	go func() {
		e.sem <- struct{}{}
		close(block)
		<-release
		<-e.sem
	}()
	<-block
	defer close(release)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	resp := e.QueryContext(ctx, Request{Tree: "db", Op: OpSizeDist})
	if resp.Code != CodeTimeout {
		t.Errorf("deadline expiry: code %q, want %q", resp.Code, CodeTimeout)
	}
	if !CodeTimeout.Retryable() {
		t.Error("timeout must be retryable")
	}

	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	resp = e.QueryContext(ctx2, Request{Tree: "db", Op: OpSizeDist})
	if resp.Code != CodeCanceled {
		t.Errorf("cancellation: code %q, want %q", resp.Code, CodeCanceled)
	}
	if CodeCanceled.Retryable() {
		t.Error("canceled must not be retryable")
	}
}

// TestCodeOf pins the extraction rules CodeOf applies to arbitrary
// errors.
func TestCodeOf(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want Code
	}{
		{nil, ""},
		{errf(CodeOverloaded, "x"), CodeOverloaded},
		{fmt.Errorf("wrap: %w", errf(CodeUnknownTree, "y")), CodeUnknownTree},
		{context.DeadlineExceeded, CodeTimeout},
		{context.Canceled, CodeCanceled},
		{errors.New("anything else"), CodeFailed},
	} {
		if got := CodeOf(tc.err); got != tc.want {
			t.Errorf("CodeOf(%v) = %q, want %q", tc.err, got, tc.want)
		}
	}
}

// TestCodeHTTPStatuses pins the code -> status mapping the handler and
// the RPC boundary share.
func TestCodeHTTPStatuses(t *testing.T) {
	for _, tc := range []struct {
		code Code
		want int
	}{
		{CodeBadRequest, http.StatusBadRequest},
		{CodeUnknownTree, http.StatusNotFound},
		{CodeUnknownKey, http.StatusNotFound},
		{CodeOverloaded, http.StatusTooManyRequests},
		{CodeTimeout, http.StatusGatewayTimeout},
		{CodeUnavailable, http.StatusServiceUnavailable},
		{CodeRetiredEpoch, http.StatusConflict},
		{CodeFenced, http.StatusConflict},
		{CodeFailed, http.StatusInternalServerError},
	} {
		if got := tc.code.HTTPStatus(); got != tc.want {
			t.Errorf("%s.HTTPStatus() = %d, want %d", tc.code, got, tc.want)
		}
	}
	// Exactly the transient trio retries.
	for _, c := range Codes() {
		want := c == CodeOverloaded || c == CodeTimeout || c == CodeUnavailable
		if got := c.Retryable(); got != want {
			t.Errorf("%s.Retryable() = %v, want %v", c, got, want)
		}
	}
}
