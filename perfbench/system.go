package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"

	"consensus/internal/distrib"
	"consensus/internal/engine"
)

// system is the program under test, started in this process from its
// public constructors the way cmd/clustersmoke starts it, on loopback
// HTTP: one engine, or three fenced workers behind a durable coordinator.
type system struct {
	front   string           // base URL requests go to
	engines []*engine.Engine // every engine that answers queries
	coord   *distrib.Coordinator
	servers []*http.Server
	dataDir string
	client  *http.Client    // the load generator's, at most nproc connections
	rpc     *http.Transport // the coordinator's, to the workers
}

// startSystem starts the servers of spec.  With a tracer every layer
// boundary records spans for requests that carry a request id; without
// one the program runs unwrapped.  dataDir holds the coordinator's WAL.
func startSystem(spec workloadSpec, tr *tracer, dataDir string, conns int) (*system, error) {
	s := &system{client: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true,
	}}}
	serviceHandler := func(svc engine.Service, name string) http.Handler {
		if tr == nil {
			return engine.NewHandler(svc)
		}
		return engine.NewHandler(tracedService{Service: svc, t: tr, name: name})
	}
	if !spec.cluster {
		e := engine.New(engine.Options{})
		s.engines = append(s.engines, e)
		h := serviceHandler(e, spanEngine)
		if tr != nil {
			h = tr.handler("", h)
		}
		url, err := s.serve(h, anyPort)
		if err != nil {
			return nil, err
		}
		s.front = url
		return s, nil
	}

	// Workers run what `consensusctl worker` runs: an engine behind a
	// fencing guard.  They listen on fixed ports when they can: placement
	// hashes the worker URLs, so fixed URLs put the same trees on the same
	// workers in every run instead of a random, more or less even split.
	var addrs []string
	for i := 0; i < 3; i++ {
		e := engine.New(engine.Options{})
		s.engines = append(s.engines, e)
		h := engine.FencedHandler(serviceHandler(e, spanWorkerEngine), &engine.Fence{})
		if tr != nil {
			h = tr.handler(spanWorkerHTTP, h)
		}
		url, err := s.serve(h, fmt.Sprintf("127.0.0.1:%d", workerPort+i))
		if err != nil {
			s.close()
			return nil, err
		}
		addrs = append(addrs, url)
	}
	// The coordinator runs with the defaults `consensusctl coordinator
	// -data-dir` uses.  Its worker client has the default transport's
	// settings but a connection pool of its own, as a separate process
	// would: a pool shared with an earlier set-up would hand it idle
	// connections to servers that are gone.  Tracing wraps the transport.
	s.rpc = http.DefaultTransport.(*http.Transport).Clone()
	var rt http.RoundTripper = s.rpc
	if tr != nil {
		rt = &tracedTransport{t: tr, base: s.rpc}
	}
	coord, err := distrib.New(distrib.Options{Workers: addrs, DataDir: dataDir, Client: &http.Client{Transport: rt}})
	if err != nil {
		s.close()
		return nil, fmt.Errorf("starting coordinator: %w", err)
	}
	s.coord, s.dataDir = coord, dataDir
	h := serviceHandler(coord, spanCoordinator)
	if tr != nil {
		h = tr.handler("", h)
	}
	url, err := s.serve(h, anyPort)
	if err != nil {
		s.close()
		return nil, err
	}
	s.front = url
	return s, nil
}

// workerPort is the first of the three workers' fixed ports.
const workerPort = 41001

// anyPort asks serve for any free loopback port.
const anyPort = "127.0.0.1:0"

// serve starts h on addr, falling back to any loopback port when addr is
// taken.
func (s *system) serve(h http.Handler, addr string) (string, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil && addr != anyPort {
		fmt.Fprintf(os.Stderr, "perfbench: %v; using another port, so tree placement differs from other runs\n", err)
		l, err = net.Listen("tcp", anyPort)
	}
	if err != nil {
		return "", fmt.Errorf("listening on loopback: %w", err)
	}
	srv := &http.Server{Handler: h}
	s.servers = append(s.servers, srv)
	go func() { _ = srv.Serve(l) }() // returns ErrServerClosed on close
	return "http://" + l.Addr().String(), nil
}

// close stops every server, the coordinator and the client's idle
// connections, and removes the WAL.
func (s *system) close() {
	for _, srv := range s.servers {
		_ = srv.Close() // the listener is gone either way
	}
	if s.coord != nil {
		s.coord.Close()
	}
	s.client.CloseIdleConnections()
	if s.rpc != nil {
		s.rpc.CloseIdleConnections()
	}
	if s.dataDir != "" {
		_ = os.RemoveAll(s.dataDir) // scratch data of this run only
	}
}

// stats sums the engines' counters.
func (s *system) stats() engine.Stats {
	var out engine.Stats
	for _, e := range s.engines {
		st := e.Stats()
		out.Trees += st.Trees
		out.CacheEntries += st.CacheEntries
		out.Computes += st.Computes
		out.Hits += st.Hits
	}
	return out
}

// do sends one request to the front and returns the status and body.
// With a non-zero tc the request carries the trace headers.
func (s *system) do(method, path string, body []byte, tc traceCtx) (int, []byte, error) {
	req, err := http.NewRequest(method, s.front+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if tc.req != 0 {
		setTraceHeaders(req.Header, tc)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// register uploads every tree of the instance through the front.
func (s *system) register(in *instance) error {
	for i, name := range in.names {
		status, body, err := s.do(http.MethodPut, "/v1/trees/"+name, in.docs[i], traceCtx{})
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("registering %s: status %d, %v: %s", name, status, err, body)
		}
	}
	return nil
}

// warm sends every distinct read once over `conns` connections and
// returns the bodies.
func (s *system) warm(in *instance, conns int) ([][]byte, error) {
	out := make([][]byte, len(in.bodies))
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(in.bodies); i += conns {
				status, body, err := s.do(http.MethodPost, "/v1/query", in.bodies[i], traceCtx{})
				if err == nil && (status != http.StatusOK || isErrorBody(body)) {
					err = fmt.Errorf("status %d: %s", status, body)
				}
				if err != nil {
					errs[c] = fmt.Errorf("warming %s: %w", in.bodies[i], err)
					return
				}
				out[i] = body
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// isErrorBody reports whether a 200 body carries a per-request error
// instead of an answer.  Answer bodies never hold an "error" key.
func isErrorBody(body []byte) bool { return bytes.Contains(body, []byte(`"error":`)) }

// isShed reports whether an error body is an admission-control refusal.
func isShed(body []byte) bool { return bytes.Contains(body, []byte(`"code":"overloaded"`)) }
