package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"consensus/internal/engine"
)

// Spans are recorded only at layer boundaries this program owns: the load
// generator's round trip, a wrapper around the engine.Service that each
// HTTP handler serves, an http.RoundTripper handed to the coordinator as
// its worker client, and a wrapper around each worker's handler.  The
// request id rides the context inside a process and these headers
// between processes.
const (
	headerRequest = "X-Perfbench-Request"
	headerParent  = "X-Perfbench-Parent"
)

// Span names, one per boundary.
const (
	spanClient       = "client"        // load generator round trip
	spanEngine       = "engine"        // single-process Service.QueryContext
	spanCoordinator  = "coordinator"   // coordinator Service.QueryContext
	spanRPC          = "rpc"           // one coordinator -> worker HTTP exchange
	spanWorkerHTTP   = "worker.http"   // a worker's whole handler
	spanWorkerEngine = "worker.engine" // the worker engine's Service.QueryContext
)

// span is one timed call at a layer boundary.  Times are nanoseconds
// since the tracer was made.
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Write  bool   `json:"write,omitempty"` // a Service span of a mutation
	Kind   string `json:"kind,omitempty"`  // rpc: query, snapshot, put or other
	Bytes  int    `json:"bytes,omitempty"` // rpc: response body bytes
}

func (s span) interval() interval { return interval{s.Start, s.End} }
func (s span) dur() int64         { return s.End - s.Start }

// tracer keeps every span in memory until the run ends.
type tracer struct {
	base  time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64    { return int64(time.Since(t.base)) }
func (t *tracer) newID() uint64 { return t.ids.Add(1) }
func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write saves every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceCtx is the request id and the enclosing span, carried on the
// context within one process.
type traceCtx struct{ req, parent uint64 }

type ctxKey struct{}

func withTrace(ctx context.Context, tc traceCtx) context.Context {
	return context.WithValue(ctx, ctxKey{}, tc)
}

func traceFrom(ctx context.Context) (traceCtx, bool) {
	tc, ok := ctx.Value(ctxKey{}).(traceCtx)
	return tc, ok
}

func setTraceHeaders(h http.Header, tc traceCtx) {
	h.Set(headerRequest, strconv.FormatUint(tc.req, 10))
	h.Set(headerParent, strconv.FormatUint(tc.parent, 10))
}

// handler moves the request id from the headers onto the request context.
// With a name it also records the handler's own span around inner.
func (t *tracer) handler(name string, inner http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := strconv.ParseUint(r.Header.Get(headerRequest), 10, 64)
		if req == 0 {
			inner.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseUint(r.Header.Get(headerParent), 10, 64)
		if name == "" {
			inner.ServeHTTP(w, r.WithContext(withTrace(r.Context(), traceCtx{req, parent})))
			return
		}
		id, start := t.newID(), t.now()
		inner.ServeHTTP(w, r.WithContext(withTrace(r.Context(), traceCtx{req, id})))
		t.record(span{Name: name, ID: id, Parent: parent, Req: req, Start: start, End: t.now()})
	})
}

// tracedService records a span around every traced QueryContext call of
// the Service it wraps; every other method passes straight through.
type tracedService struct {
	engine.Service
	t    *tracer
	name string
}

func (s tracedService) QueryContext(ctx context.Context, req engine.Request) engine.Response {
	tc, ok := traceFrom(ctx)
	if !ok {
		return s.Service.QueryContext(ctx, req)
	}
	id, start := s.t.newID(), s.t.now()
	resp := s.Service.QueryContext(withTrace(ctx, traceCtx{tc.req, id}), req)
	s.t.record(span{Name: s.name, ID: id, Parent: tc.parent, Req: tc.req, Start: start, End: s.t.now(),
		Write: isWrite(req.Op)})
	return resp
}

func isWrite(op engine.Op) bool { return op == engine.OpMutate || op == engine.OpCondition }

// tracedTransport is the coordinator's worker client: it records one rpc
// span per traced exchange, ending when the coordinator closes the
// response body, and forwards the request id in headers.
type tracedTransport struct {
	t    *tracer
	base http.RoundTripper
}

func (tt *tracedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	tc, ok := traceFrom(r.Context())
	if !ok {
		return tt.base.RoundTrip(r)
	}
	sp := span{Name: spanRPC, ID: tt.t.newID(), Parent: tc.parent, Req: tc.req, Start: tt.t.now(), Kind: rpcKind(r)}
	out := r.Clone(r.Context())
	setTraceHeaders(out.Header, traceCtx{tc.req, sp.ID})
	resp, err := tt.base.RoundTrip(out)
	if err != nil {
		sp.End = tt.t.now()
		tt.t.record(sp)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, t: tt.t, sp: sp}
	return resp, nil
}

func rpcKind(r *http.Request) string {
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/v1/query":
		return "query"
	case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/trees/"):
		return "snapshot"
	case r.Method == http.MethodPut:
		return "put"
	}
	return "other"
}

// spanBody counts the response bytes and closes the rpc span on Close.
type spanBody struct {
	io.ReadCloser
	t    *tracer
	sp   span
	once sync.Once
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.sp.Bytes += n
	return n, err
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.sp.End = b.t.now()
		b.t.record(b.sp)
	})
	return err
}

// traceFile names the span dump of one traced run.
func traceFile(dir, workload string, seed int64) string {
	return fmt.Sprintf("%s/trace-%s-seed%d.jsonl", dir, workload, seed)
}
