package distrib

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"consensus/internal/engine"
	"consensus/internal/workload"
)

// restartableWorker is a worker on a fixed address that can be killed
// and brought back empty — the crash/restart a real deployment sees.
type restartableWorker struct {
	t    *testing.T
	addr string // host:port, stable across restarts
	url  string
	mu   sync.Mutex
	srv  *http.Server
}

func startRestartableWorker(t *testing.T) *restartableWorker {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w := &restartableWorker{t: t, addr: l.Addr().String(), url: "http://" + l.Addr().String()}
	w.serveOn(l)
	t.Cleanup(w.kill)
	return w
}

func (w *restartableWorker) serveOn(l net.Listener) {
	srv := &http.Server{Handler: engine.New(engine.Options{}).Handler()}
	w.mu.Lock()
	w.srv = srv
	w.mu.Unlock()
	go func() { _ = srv.Serve(l) }()
}

func (w *restartableWorker) kill() {
	w.mu.Lock()
	srv := w.srv
	w.srv = nil
	w.mu.Unlock()
	if srv != nil {
		_ = srv.Close()
	}
}

// restart brings the worker back on the same address with an EMPTY
// engine (its in-memory registry died with the process).
func (w *restartableWorker) restart() {
	w.t.Helper()
	var l net.Listener
	var err error
	for i := 0; i < 50; i++ {
		l, err = net.Listen("tcp", w.addr)
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		w.t.Fatalf("rebinding %s: %v", w.addr, err)
	}
	w.serveOn(l)
}

// TestWorkerKillMidLoad is the availability acceptance check: killing
// one worker in the middle of a stream of mixed reads must produce zero
// client-visible failures — the coordinator retries and hedges onto the
// surviving replica within its budget.
func TestWorkerKillMidLoad(t *testing.T) {
	victim := startRestartableWorker(t)
	others := startWorkers(t, 2)
	c, err := New(Options{
		Workers:       append(addrsOf(others), victim.url),
		ProbeInterval: -1,
		HedgeDelay:    20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	rng := rand.New(rand.NewSource(21))
	if err := c.Register("db", workload.Independent(rng, 6)); err != nil {
		t.Fatal(err)
	}

	reqs := []engine.Request{
		{Tree: "db", Op: engine.OpSizeDist},
		{Tree: "db", Op: engine.OpTopKMean, K: 3},
		{Tree: "db", Op: engine.OpMembership},
		{Tree: "db", Op: engine.OpRankDist, K: 2},
	}
	const goroutines = 8
	const perG = 25
	var failures atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < perG; i++ {
				resp := c.Query(reqs[(g+i)%len(reqs)])
				if !resp.Ok() {
					failures.Add(1)
					t.Errorf("query %s failed: %s (%s)", resp.Op, resp.Error, resp.Code)
				}
			}
		}(g)
	}
	close(start)
	time.Sleep(5 * time.Millisecond) // let the stream get going
	victim.kill()
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d client-visible failures while killing one worker; want 0", failures.Load())
	}
}

// hangingHandler wraps a worker handler so /v1/query stalls until the
// request context dies (or the test closes release) while hung is set;
// every other endpoint (health, tree admin) stays responsive — a wedged
// compute, not a dead process.  The body is drained first: the net/http
// server only notices a vanished client (and cancels the request
// context) once the request body has been consumed.
func hangingHandler(inner http.Handler, hung *atomic.Bool, release chan struct{}) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hung.Load() && r.URL.Path == "/v1/query" {
			_, _ = io.Copy(io.Discard, r.Body)
			select {
			case <-r.Context().Done():
			case <-release:
			}
			return
		}
		inner.ServeHTTP(w, r)
	})
}

// TestHungWorkerHedged pins tail-hedging: with one wedged worker in a
// two-replica placement, reads still answer — and they answer on the
// hedge fast path, far sooner than the per-attempt timeout that plain
// retry-after-failure would cost.
func TestHungWorkerHedged(t *testing.T) {
	var hung atomic.Bool
	release := make(chan struct{})
	hungSrv := httptest.NewServer(hangingHandler(engine.New(engine.Options{}).Handler(), &hung, release))
	defer hungSrv.Close()
	defer close(release)
	ok := startWorkers(t, 1)

	const attemptTimeout = 3 * time.Second
	c, err := New(Options{
		Workers:        []string{hungSrv.URL, ok[0].URL},
		ProbeInterval:  -1,
		AttemptTimeout: attemptTimeout,
		HedgeDelay:     25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rng := rand.New(rand.NewSource(22))
	if err := c.Register("db", workload.Independent(rng, 5)); err != nil {
		t.Fatal(err)
	}
	hung.Store(true)

	// Whatever rotation order each read draws, every read must succeed
	// well under the attempt timeout: hung-first reads return via the
	// hedge, healthy-first reads return directly.
	for i := 0; i < 6; i++ {
		startAt := time.Now()
		resp := c.Query(engine.Request{Tree: "db", Op: engine.OpSizeDist})
		elapsed := time.Since(startAt)
		if !resp.Ok() {
			t.Fatalf("read %d failed: %s (%s)", i, resp.Error, resp.Code)
		}
		if elapsed > attemptTimeout/2 {
			t.Fatalf("read %d took %v; hedging should answer far below the %v attempt timeout", i, elapsed, attemptTimeout)
		}
	}
}

// TestAdmissionShedsUnderOverload pins load-shedding: when priced
// in-flight work fills the capacity, further requests answer immediately
// with CodeOverloaded instead of queueing behind the wedged work.
func TestAdmissionShedsUnderOverload(t *testing.T) {
	var hung atomic.Bool
	release := make(chan struct{})
	hungSrv := httptest.NewServer(hangingHandler(engine.New(engine.Options{}).Handler(), &hung, release))
	defer hungSrv.Close()
	defer close(release)

	c, err := New(Options{
		Workers:           []string{hungSrv.URL},
		ProbeInterval:     -1,
		AttemptTimeout:    2 * time.Second,
		HedgeDelay:        -1,
		Retries:           -1,
		AdmissionCapacity: engine.CostFamily, // one family op fills the budget
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rng := rand.New(rand.NewSource(23))
	if err := c.Register("db", workload.Independent(rng, 5)); err != nil {
		t.Fatal(err)
	}
	hung.Store(true)

	inflight := make(chan engine.Response, 1)
	go func() {
		inflight <- c.Query(engine.Request{Tree: "db", Op: engine.OpTopKMean, K: 2})
	}()
	// Wait until the wedged query holds the admission budget before
	// probing — a probe that wins the admission race would become the
	// wedge itself.
	deadline := time.Now().Add(time.Second)
	for c.adm.InFlight() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("wedged query never reserved the admission budget")
		}
		time.Sleep(time.Millisecond)
	}
	startAt := time.Now()
	resp := c.Query(engine.Request{Tree: "db", Op: engine.OpSizeDist})
	if resp.Code != engine.CodeOverloaded {
		t.Fatalf("overloaded coordinator answered %q (%s), want %s", resp.Error, resp.Code, engine.CodeOverloaded)
	}
	if elapsed := time.Since(startAt); elapsed > 200*time.Millisecond {
		t.Fatalf("shed took %v; sheds must be immediate, not queued", elapsed)
	}
	if !engine.CodeOverloaded.Retryable() {
		t.Fatal("overloaded must advertise retryability to clients")
	}
	hung.Store(false)
	<-inflight // let the wedged query die with its context
}

// TestRejoinRestoresSnapshotBitIdentical is the recovery acceptance
// check: a worker that crashes and rejoins empty is restored from the
// coordinator's authoritative snapshot — including every mutation
// applied before the crash — bit-identical to the tree a single-process
// engine holds after the same history.
func TestRejoinRestoresSnapshotBitIdentical(t *testing.T) {
	victim := startRestartableWorker(t)
	other := startWorkers(t, 1)
	c, err := New(Options{
		Workers:       []string{victim.url, other[0].URL},
		ProbeInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// The reference: a single-process engine fed the same history.
	ref := engine.New(engine.Options{})

	tree := workload.Independent(rand.New(rand.NewSource(24)), 6)
	refTree := workload.Independent(rand.New(rand.NewSource(24)), 6)
	if err := c.Register("db", tree); err != nil {
		t.Fatal(err)
	}
	if err := ref.Register("db", refTree); err != nil {
		t.Fatal(err)
	}
	mutate := engine.Request{Tree: "db", Op: engine.OpCondition,
		Evidence: &engine.EvidenceRequest{Kind: "absent", Key: "t2"}}
	if resp := c.Query(mutate); !resp.Ok() {
		t.Fatalf("cluster mutation: %s", resp.Error)
	}
	if resp := ref.Query(mutate); !resp.Ok() {
		t.Fatalf("reference mutation: %s", resp.Error)
	}

	victim.kill()
	c.ProbeOnce(context.Background())
	for _, m := range c.Members() {
		if m.Addr == victim.url && m.Alive {
			t.Fatal("killed worker still marked alive after probe")
		}
	}

	victim.restart() // comes back empty
	c.ProbeOnce(context.Background())

	// The restarted worker must hold the post-mutation tree again,
	// byte-identical to the single-process engine's serialized state.
	hc := &http.Client{}
	resp, err := hc.Get(victim.url + "/v1/trees/db")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var fromWorker bytes.Buffer
	if _, err := fromWorker.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("restored worker answered %d for the shard: %s", resp.StatusCode, fromWorker.Bytes())
	}
	refT, _ := ref.Tree("db")
	want, err := json.Marshal(refT)
	if err != nil {
		t.Fatal(err)
	}
	if got := bytes.TrimSpace(fromWorker.Bytes()); !bytes.Equal(got, want) {
		t.Fatalf("restored shard differs from the single-process state:\n worker: %s\n single: %s", got, want)
	}

	// And it serves queries identically again through the coordinator.
	r1 := c.Query(engine.Request{Tree: "db", Op: engine.OpRankDist, K: 2})
	r2 := ref.Query(engine.Request{Tree: "db", Op: engine.OpRankDist, K: 2})
	b1, _ := json.Marshal(r1)
	b2, _ := json.Marshal(r2)
	if !bytes.Equal(b1, b2) {
		t.Fatalf("post-restore responses differ:\n cluster: %s\n single:  %s", b1, b2)
	}
}

// TestRestartedWorkerHealedOnTouch pins the lazy recovery path: even
// without a probe, a read that lands on a restarted (empty) worker heals
// it — the unknown_tree answer triggers a snapshot push and a retry
// inside the same attempt.
func TestRestartedWorkerHealedOnTouch(t *testing.T) {
	victim := startRestartableWorker(t)
	c, err := New(Options{
		Workers:       []string{victim.url},
		ProbeInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rng := rand.New(rand.NewSource(25))
	if err := c.Register("db", workload.Independent(rng, 5)); err != nil {
		t.Fatal(err)
	}
	victim.kill()
	victim.restart() // empty registry: the shard is gone worker-side

	resp := c.Query(engine.Request{Tree: "db", Op: engine.OpSizeDist})
	if !resp.Ok() {
		t.Fatalf("read against a restarted worker failed: %s (%s); want heal-on-touch", resp.Error, resp.Code)
	}
	// The heal is durable: the worker holds the shard again.
	hc := &http.Client{}
	r, err := hc.Get(victim.url + "/v1/trees/db")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != 200 {
		t.Fatalf("worker does not hold the shard after heal-on-touch (status %d)", r.StatusCode)
	}
}
