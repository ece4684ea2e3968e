package distrib

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"consensus/internal/andxor"
	"consensus/internal/engine"
)

// Defaults applied by New when the corresponding Options field is zero.
const (
	// DefaultReplication is the replica fan-out: every registered tree
	// lives on this many workers (clamped to the cluster size).
	DefaultReplication = 2
	// DefaultAttemptTimeout bounds each individual RPC attempt; the
	// request's own context bounds the whole routed operation.
	DefaultAttemptTimeout = 2 * time.Second
	// DefaultRetries is the number of extra attempts after the first.
	DefaultRetries = 2
	// DefaultHedgeDelay is how long a read waits on its first attempt
	// before launching a duplicate on the next replica.
	DefaultHedgeDelay = 250 * time.Millisecond
	// DefaultAdmissionCapacity is the cost-unit budget of in-flight work
	// (see the cost classes in internal/engine/admission.go).
	DefaultAdmissionCapacity = 256
	// DefaultProbeInterval is the health-probe period.
	DefaultProbeInterval = time.Second
)

// Options configures a Coordinator.
type Options struct {
	// Workers is the initial cluster: worker base URLs
	// ("http://host:port").  At least one is required; more can join at
	// runtime (Join, or the /cluster/join admin endpoint).
	Workers []string
	// Replication is the replica fan-out per tree; 0 selects
	// DefaultReplication.  Clamped to the cluster size.
	Replication int
	// AttemptTimeout bounds each RPC attempt; 0 selects
	// DefaultAttemptTimeout.
	AttemptTimeout time.Duration
	// Retries is the number of extra routed attempts after the first;
	// 0 selects DefaultRetries, negative disables retries.
	Retries int
	// HedgeDelay is the tail-hedging trigger for reads: after this long
	// without an answer, a duplicate attempt is launched on the next
	// replica and the first answer wins.  0 selects DefaultHedgeDelay,
	// negative disables hedging.
	HedgeDelay time.Duration
	// AdmissionCapacity is the cost-unit budget of concurrently admitted
	// work; 0 selects DefaultAdmissionCapacity, negative disables
	// admission control.
	AdmissionCapacity int
	// ProbeInterval is the background health-probe period; 0 selects
	// DefaultProbeInterval, negative disables the background loop
	// (ProbeOnce still works, which is what tests use).
	ProbeInterval time.Duration
	// Client optionally overrides the HTTP client used for worker RPCs.
	Client *http.Client

	// DataDir enables durability: registry-changing events (register/
	// unregister, post-mutation snapshots, membership changes)
	// are written ahead to a checksummed log in this directory, startup
	// replays the log and reconciles against the live workers, and every
	// start bumps a persisted fencing epoch stamped on all worker RPCs so
	// a superseded coordinator cannot corrupt shards.  Empty disables
	// durability: the registry lives in memory only, nothing is logged
	// and worker RPCs carry no fencing epoch.
	DataDir string
	// HeartbeatTimeout switches membership to heartbeat mode: workers
	// self-register by POSTing /cluster/join periodically, and the health
	// prober marks a member dead once this long passes without a beat
	// instead of HTTP-probing a static list.  <= 0 keeps probe mode.
	// With heartbeat mode the coordinator may start with zero workers.
	HeartbeatTimeout time.Duration
	// LeaseInterval is how often a durable coordinator renews its
	// leadership lease in the WAL (a standby tailing the log treats a
	// stale lease as primary death and takes over).  0 selects
	// DefaultLeaseInterval, negative disables lease renewal.  Ignored
	// without DataDir — leases only exist in the log.
	LeaseInterval time.Duration
	// Advertise is the base URL peers should reach this coordinator at;
	// it is recorded in lease records so a standby can report (and
	// redirect to) the current leader.  Optional.
	Advertise string
	// WALRetain is how many fully-checkpointed sealed WAL segments
	// compaction keeps for streaming standbys; 0 selects the package
	// default (2), negative keeps none.
	WALRetain int
}

// Coordinator shards an engine.Service across worker processes: it owns
// consistent-hash placement of registered trees (replica fan-out >= 2),
// keeps an authoritative snapshot of every tree for worker
// join/recover/rebalance, and routes queries and mutations over the
// internal RPC boundary with per-attempt timeouts, bounded retries on
// retryable codes, tail-hedged reads, and cost-priced admission control.
//
// Coordinator implements engine.Service, so engine.NewHandler serves the
// exact same HTTP/JSON surface over a cluster that it serves over a
// single-process Engine — responses are byte-identical.
type Coordinator struct {
	wc             wireClient
	replication    int
	attemptTimeout time.Duration
	retries        int
	hedgeDelay     time.Duration
	adm            *engine.Admission

	// wal is the write-ahead log (nil without Options.DataDir); fence is
	// this coordinator's fencing epoch, stamped by the wire client on
	// every worker RPC when > 0.
	wal              *wal
	fence            atomic.Uint64
	heartbeatTimeout time.Duration

	// Leadership lease state (durable mode only).  advertise is this
	// coordinator's own base URL, recorded in lease records; lastLease is
	// the Unix-nano time of the latest renewal.  demoted flips once a
	// worker answers `fenced` — proof a higher-epoch coordinator exists —
	// after which this coordinator must stand down (Demoted() signals the
	// supervisor; see standby.go).
	advertise     string
	leaseInterval time.Duration
	lastLease     atomic.Int64
	demoted       atomic.Bool
	demotedCh     chan struct{}
	demoteOnce    sync.Once

	mu      sync.RWMutex
	members map[string]*member
	ring    *ring
	epoch   uint64 // placement epoch: bumped on every membership change
	shards  map[string]*shard

	rr atomic.Uint64 // read rotation tie-breaker (equal-load replica spreading)

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
}

var _ engine.Service = (*Coordinator)(nil)

// member is one worker's routing state.  alive is advisory: dead members
// are deprioritized and skipped for new attempts, never removed from the
// placement ring (transient death must not reshuffle placements).  load
// counts coordinator-issued read attempts currently in flight on the
// worker (load-aware replica selection); lastBeat is the Unix-nano time
// of the worker's latest heartbeat (heartbeat membership mode) or
// successful health probe (probe mode).
type member struct {
	addr     string
	alive    atomic.Bool
	load     atomic.Int64
	lastBeat atomic.Int64
}

// shard is one registered tree's cluster state.  rw gives the tree the
// same read/write discipline a single-process treeEntry has: reads hold
// the read lock across routing, mutations hold the write lock across the
// whole replica fan-out plus snapshot rebuild, so a routed query never
// observes a half-applied mutation.
type shard struct {
	rw       sync.RWMutex
	name     string
	replicas []string // placement order; [0] is the primary

	// state is the authoritative record: the serialized tree and the
	// number of mutations applied under this registration, one immutable
	// pair replaced whole (under rw's write lock) by Register, an
	// acknowledged write and recovery; it is set before the shard enters
	// the shard table, so it is never nil.  It is read without rw too:
	// hedged attempts that lose the race may still restore a worker from
	// it after the winning read released rw, and WAL compaction
	// checkpoints it without taking rw, which would deadlock against a
	// mutation holding rw while appending to the log.
	state atomic.Pointer[durableShard]
	// tree is state.Tree parsed: the coordinator's own copy, which a
	// mutation changes in place.  Guarded by rw's write lock.  Nil until
	// the first write needs it: parsed trees are pointer-dense, and
	// holding one per shard from registration on raised a 48-tree
	// cluster's peak RSS by ~10%, while a tree that is never written
	// never needs parsing.
	tree *andxor.Tree
}

// snapshot returns the authoritative serialized tree.
func (s *shard) snapshot() []byte { return s.state.Load().Tree }

// fanOut starts fn against every address concurrently; the returned
// wait blocks until all have finished and returns their results in addrs
// order.
func fanOut[T any](addrs []string, fn func(addr string) T) (wait func() []T) {
	out := make([]T, len(addrs))
	var wg sync.WaitGroup
	for i, addr := range addrs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = fn(addr)
		}()
	}
	return func() []T {
		wg.Wait()
		return out
	}
}

// New builds a coordinator over the given initial workers.  Workers are
// assumed alive until a probe or an RPC says otherwise.
//
// With Options.DataDir set, New first recovers: it bumps and persists
// the fencing epoch, replays the write-ahead log into the registry,
// unions the recovered membership with Options.Workers, and reconciles
// against the live fleet (adopting worker-held trees the log never saw,
// then re-pushing authoritative snapshots where workers lag) before any
// request is served.
func New(opts Options) (*Coordinator, error) {
	addrs, err := normalizeAddrs(opts.Workers)
	if err != nil {
		return nil, err
	}
	replication := opts.Replication
	if replication <= 0 {
		replication = DefaultReplication
	}
	attemptTimeout := opts.AttemptTimeout
	if attemptTimeout <= 0 {
		attemptTimeout = DefaultAttemptTimeout
	}
	retries := opts.Retries
	switch {
	case retries == 0:
		retries = DefaultRetries
	case retries < 0:
		retries = 0
	}
	hedge := opts.HedgeDelay
	switch {
	case hedge == 0:
		hedge = DefaultHedgeDelay
	case hedge < 0:
		hedge = 0 // disabled
	}
	capacity := opts.AdmissionCapacity
	switch {
	case capacity == 0:
		capacity = DefaultAdmissionCapacity
	case capacity < 0:
		capacity = 0 // disabled
	}
	hc := opts.Client
	if hc == nil {
		hc = &http.Client{}
	}
	c := &Coordinator{
		wc:               wireClient{hc: hc},
		replication:      replication,
		attemptTimeout:   attemptTimeout,
		retries:          retries,
		hedgeDelay:       hedge,
		adm:              engine.NewAdmission(capacity),
		heartbeatTimeout: opts.HeartbeatTimeout,
		members:          make(map[string]*member, len(addrs)),
		shards:           make(map[string]*shard),
		stop:             make(chan struct{}),
		demotedCh:        make(chan struct{}),
	}
	c.wc.fence = &c.fence
	if opts.Advertise != "" {
		n, err := normalizeAddr(opts.Advertise)
		if err != nil {
			return nil, err
		}
		c.advertise = n
	}
	c.leaseInterval = opts.LeaseInterval
	if c.leaseInterval == 0 {
		c.leaseInterval = DefaultLeaseInterval
	}

	// Durable mode: recover state and bump the fencing epoch before
	// anything is served or any worker is touched, so every RPC this
	// incarnation issues already carries the new epoch.
	st := newDurableState()
	if opts.DataDir != "" {
		w, recovered, err := openWAL(opts.DataDir)
		if err != nil {
			return nil, err
		}
		c.wal = w
		st = recovered
		switch {
		case opts.WALRetain > 0:
			w.retain = opts.WALRetain
		case opts.WALRetain < 0:
			w.retain = 0
		}
		c.fence.Store(st.FencingEpoch + 1)
		if err := w.append(walRecord{Kind: recFence, Epoch: c.fence.Load()}); err != nil {
			w.close()
			return nil, err
		}
		// Claim leadership immediately: the first lease record marks this
		// incarnation as the serving coordinator before any request lands.
		// Appended directly (not via renewLease) because the registry is
		// not populated yet and renewLease may compact.
		if c.leaseInterval > 0 {
			if err := w.append(walRecord{Kind: recLease, Addr: c.advertise, Epoch: c.fence.Load()}); err != nil {
				w.close()
				return nil, err
			}
			c.lastLease.Store(time.Now().UnixNano())
		}
	}

	// Membership is the union of the recovered log and the -cluster flag;
	// flag workers the log has not seen yet are logged as joins.
	now := time.Now().UnixNano()
	for _, addr := range st.sortedMembers() {
		c.addMemberLocked(addr, now)
	}
	for _, addr := range addrs {
		if _, ok := c.members[addr]; ok {
			continue
		}
		c.addMemberLocked(addr, now)
		if err := c.wal.append(walRecord{Kind: recJoin, Addr: addr}); err != nil {
			c.wal.close()
			return nil, err
		}
	}
	if len(c.members) == 0 && opts.HeartbeatTimeout <= 0 {
		c.wal.close()
		return nil, errors.New("distrib: a coordinator needs at least one worker (or heartbeat membership)")
	}
	c.ring = buildRing(c.memberAddrs())
	c.restoreShards(st)
	if c.wal != nil {
		c.reconcile(context.Background())
	}

	probe := opts.ProbeInterval
	if probe == 0 {
		probe = DefaultProbeInterval
	}
	if probe > 0 {
		c.wg.Add(1)
		go c.probeLoop(probe)
	}
	if c.wal != nil && c.leaseInterval > 0 {
		c.wg.Add(1)
		go c.leaseLoop()
	}
	return c, nil
}

// addMemberLocked inserts a member assumed alive.  Only safe during New
// (single-threaded) or under c.mu.
func (c *Coordinator) addMemberLocked(addr string, nowNanos int64) {
	m := &member{addr: addr}
	m.alive.Store(true)
	m.lastBeat.Store(nowNanos)
	c.members[addr] = m
}

// memberAddrs returns the member addresses, sorted.  Only safe during
// New or under c.mu.
func (c *Coordinator) memberAddrs() []string {
	addrs := make([]string, 0, len(c.members))
	for addr := range c.members {
		addrs = append(addrs, addr)
	}
	sort.Strings(addrs)
	return addrs
}

// Close stops the background health prober and closes the write-ahead
// log.  It does not touch the workers.
func (c *Coordinator) Close() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.wg.Wait()
	c.wal.close()
}

// FencingEpoch reports this coordinator's fencing epoch (0 when running
// without a data directory: fencing disabled).
func (c *Coordinator) FencingEpoch() uint64 { return c.fence.Load() }

func normalizeAddrs(addrs []string) ([]string, error) {
	seen := make(map[string]bool, len(addrs))
	out := make([]string, 0, len(addrs))
	for _, a := range addrs {
		n, err := normalizeAddr(a)
		if err != nil {
			return nil, err
		}
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out, nil
}

func normalizeAddr(a string) (string, error) {
	a = strings.TrimRight(strings.TrimSpace(a), "/")
	u, err := url.Parse(a)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return "", fmt.Errorf("distrib: worker address %q is not an http(s) base URL", a)
	}
	return a, nil
}

// attemptCtx derives the per-attempt deadline from the caller's context.
func (c *Coordinator) attemptCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	return context.WithTimeout(ctx, c.attemptTimeout)
}

// failResponse mirrors the engine's errorResponse shape so coordinator
// failures are wire-compatible with single-process ones.
func failResponse(req engine.Request, code engine.Code, format string, args ...any) engine.Response {
	return engine.Response{Tree: req.Tree, Op: req.Op, Error: fmt.Sprintf(format, args...), Code: code}
}

// errResponse converts a typed RPC error into a Response failure.
func errResponse(req engine.Request, err error) engine.Response {
	return engine.Response{Tree: req.Tree, Op: req.Op, Error: err.Error(), Code: engine.CodeOf(err)}
}

// ---------------------------------------------------------------------------
// engine.Service: registry

// Register serializes the tree, places it on the ring, and pushes the
// snapshot to every replica.  At least one replica must accept it.
// Re-registering a name replaces the tree everywhere, like the
// single-process engine.
func (c *Coordinator) Register(name string, t *andxor.Tree) error {
	if name == "" {
		return errors.New("engine: tree name must not be empty")
	}
	if t == nil {
		return errors.New("engine: tree must not be nil")
	}
	snapshot, err := json.Marshal(t)
	if err != nil {
		return fmt.Errorf("distrib: serializing tree %q: %w", name, err)
	}

	rec := &durableShard{Tree: snapshot}
	c.mu.Lock()
	sh, ok := c.shards[name]
	if !ok {
		sh = &shard{name: name}
		sh.state.Store(rec)
		c.shards[name] = sh
	}
	replicas := c.ring.replicas(name, c.replication)
	c.mu.Unlock()

	sh.rw.Lock()
	defer sh.rw.Unlock()
	sh.replicas = replicas
	sh.state.Store(rec)
	sh.tree = nil

	pushed := 0
	var lastErr error
	for _, err := range fanOut(replicas, func(addr string) error {
		return c.pushSnapshot(context.Background(), addr, sh)
	})() {
		if err != nil {
			lastErr = err
			continue
		}
		pushed++
	}
	if pushed == 0 {
		c.dropShard(name, sh)
		if lastErr == nil {
			lastErr = errors.New("no replicas")
		}
		return fmt.Errorf("distrib: registering %q: no replica accepted the tree: %w", name, lastErr)
	}
	// Log the registration before acknowledging it; a registration the
	// log cannot hold is refused rather than silently volatile.
	if err := c.wal.append(walRecord{Kind: recRegister, Name: name, Tree: snapshot}); err != nil {
		c.dropShard(name, sh)
		return err
	}
	c.maybeCompact()
	return nil
}

// dropShard removes a shard installed by an in-progress Register that
// failed past the point of insertion.
func (c *Coordinator) dropShard(name string, sh *shard) {
	c.mu.Lock()
	if c.shards[name] == sh {
		delete(c.shards, name)
	}
	c.mu.Unlock()
}

// pushSnapshot installs the shard's authoritative snapshot on one worker
// (with the per-attempt timeout), marking the worker dead on transport
// failure.
func (c *Coordinator) pushSnapshot(ctx context.Context, addr string, sh *shard) error {
	actx, cancel := c.attemptCtx(ctx)
	defer cancel()
	err := c.wc.putTree(actx, addr, sh.name, sh.snapshot())
	c.noteOutcome(addr, err)
	return err
}

// Unregister removes the tree from the placement table and best-effort
// from every replica, reporting whether it was registered.
func (c *Coordinator) Unregister(name string) bool {
	c.mu.Lock()
	sh, ok := c.shards[name]
	if ok {
		delete(c.shards, name)
	}
	c.mu.Unlock()
	if !ok {
		return false
	}
	sh.rw.Lock()
	defer sh.rw.Unlock()
	fanOut(sh.replicas, func(addr string) error {
		actx, cancel := c.attemptCtx(context.Background())
		defer cancel()
		err := c.wc.deleteTree(actx, addr, name)
		c.noteOutcome(addr, err)
		return err
	})()
	// Best-effort: a failed append means a restart may resurrect the
	// name, which reconciliation then re-pushes — annoying, not unsafe.
	_ = c.wal.append(walRecord{Kind: recUnregister, Name: name})
	c.maybeCompact()
	return true
}

// Tree reconstructs the tree from the coordinator's authoritative
// snapshot — no worker round trip.
func (c *Coordinator) Tree(name string) (*andxor.Tree, bool) {
	c.mu.RLock()
	sh, ok := c.shards[name]
	c.mu.RUnlock()
	if !ok {
		return nil, false
	}
	sh.rw.RLock()
	snap := sh.snapshot()
	sh.rw.RUnlock()
	t, err := andxor.UnmarshalTree(snap)
	if err != nil {
		return nil, false
	}
	return t, true
}

// Trees lists the registered tree names, sorted.
func (c *Coordinator) Trees() []string {
	c.mu.RLock()
	out := make([]string, 0, len(c.shards))
	for name := range c.shards {
		out = append(out, name)
	}
	c.mu.RUnlock()
	sort.Strings(out)
	return out
}

// Stats aggregates the cluster: Trees counts registered shards, the
// cache counters sum over reachable workers (best-effort, bounded by the
// attempt timeout each).
func (c *Coordinator) Stats() engine.Stats {
	c.mu.RLock()
	trees := len(c.shards)
	addrs := make([]string, 0, len(c.members))
	for addr, m := range c.members {
		if m.alive.Load() {
			addrs = append(addrs, addr)
		}
	}
	c.mu.RUnlock()
	s := engine.Stats{Trees: trees}
	for _, addr := range addrs {
		actx, cancel := c.attemptCtx(context.Background())
		ws, err := c.wc.stats(actx, addr)
		cancel()
		if err != nil {
			continue
		}
		s.CacheEntries += ws.CacheEntries
		s.Computes += ws.Computes
		s.Hits += ws.Hits
	}
	return s
}

// ---------------------------------------------------------------------------
// engine.Service: routed dispatch

// Query routes with a background context.
func (c *Coordinator) Query(req engine.Request) engine.Response {
	return c.QueryContext(context.Background(), req)
}

// QueryContext routes one request: admission control first, then
// structural validation (Request.Validate, as the engine does), then the
// write path (mutations fan out to every replica, serialized per tree)
// or the read path (per-attempt timeouts, bounded retries on retryable
// codes, one tail-hedged duplicate).
func (c *Coordinator) QueryContext(ctx context.Context, req engine.Request) engine.Response {
	cost := engine.OpCost(req.Op)
	if !c.adm.Admit(cost) {
		return failResponse(req, engine.CodeOverloaded,
			"distrib: admission control shed the request (op %s, cost %d); retry with backoff", req.Op, cost)
	}
	defer c.adm.Release(cost)

	if err := req.Validate(); err != nil {
		// Refuse structurally invalid requests before routing, in the
		// engine's order: a bad request on an unknown tree is still a
		// bad_request, and an invalid mutation never fans out.
		return failResponse(req, engine.CodeBadRequest, "%s", err)
	}
	if req.Op == engine.OpSPJEval {
		// SPJ carries its query and tables inline: stateless, any worker.
		return c.readAnywhere(ctx, req)
	}
	c.mu.RLock()
	sh, ok := c.shards[req.Tree]
	c.mu.RUnlock()
	if !ok {
		// Match the single-process error byte-for-byte; a tree the
		// cluster never saw answers exactly like one the engine never saw.
		return failResponse(req, engine.CodeUnknownTree, "engine: unknown tree %q", req.Tree)
	}
	if req.Op == engine.OpMutate || req.Op == engine.OpCondition {
		return c.write(ctx, req, sh)
	}
	return c.read(ctx, req, sh)
}

// Do routes a batch with a background context.
func (c *Coordinator) Do(reqs []engine.Request) []engine.Response {
	return c.DoContext(context.Background(), reqs)
}

// DoContext routes every request of a batch concurrently, preserving
// order.  Admission control prices each request individually.
func (c *Coordinator) DoContext(ctx context.Context, reqs []engine.Request) []engine.Response {
	out := make([]engine.Response, len(reqs))
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = c.QueryContext(ctx, reqs[i])
		}(i)
	}
	wg.Wait()
	return out
}

// read routes a tree-scoped read: replicas are tried in rotated order
// (alive first), each attempt gets its own timeout, failures with
// retryable codes move to the next replica up to the retry budget, and
// one hedged duplicate launches if the first attempt is slow.  The read
// lock spans the whole routing, so the answer and the stamped epoch
// belong to one consistent shard state.
func (c *Coordinator) read(ctx context.Context, req engine.Request, sh *shard) engine.Response {
	sh.rw.RLock()
	defer sh.rw.RUnlock()
	order := c.routeOrder(sh.replicas)
	resp := c.hedged(ctx, req, order, sh)
	if resp.Error == "" {
		// The coordinator is the epoch authority: workers restart at
		// epoch 0 after a snapshot restore, but the shard's count of
		// mutations since Register matches what a single process reports.
		resp.Epoch = sh.state.Load().Epoch
	}
	return resp
}

// readAnywhere routes a stateless request to any worker.
func (c *Coordinator) readAnywhere(ctx context.Context, req engine.Request) engine.Response {
	c.mu.RLock()
	addrs := make([]string, 0, len(c.members))
	for addr := range c.members {
		addrs = append(addrs, addr)
	}
	c.mu.RUnlock()
	if len(addrs) == 0 {
		return failResponse(req, engine.CodeUnavailable, "distrib: no workers")
	}
	sort.Strings(addrs)
	return c.hedged(ctx, req, c.routeOrder(addrs), nil)
}

// routeOrder orders replicas for a read: alive before dead, then by
// in-flight coordinator-issued load ascending (least-loaded first), with
// the rotation counter breaking ties so equally idle replicas still
// share traffic instead of the sort always picking the same address.
func (c *Coordinator) routeOrder(replicas []string) []string {
	if len(replicas) == 0 {
		return nil
	}
	shift := int(c.rr.Add(1)) % len(replicas)
	if shift < 0 {
		shift += len(replicas)
	}
	rotated := make([]string, 0, len(replicas))
	rotated = append(rotated, replicas[shift:]...)
	rotated = append(rotated, replicas[:shift]...)
	type cand struct {
		addr string
		dead bool
		load int64
	}
	cands := make([]cand, 0, len(rotated))
	c.mu.RLock()
	for _, addr := range rotated {
		cd := cand{addr: addr}
		if m, ok := c.members[addr]; ok {
			cd.dead = !m.alive.Load()
			cd.load = m.load.Load()
		}
		cands = append(cands, cd)
	}
	c.mu.RUnlock()
	sort.SliceStable(cands, func(i, j int) bool {
		if cands[i].dead != cands[j].dead {
			return !cands[i].dead
		}
		return cands[i].load < cands[j].load
	})
	out := make([]string, len(cands))
	for i, cd := range cands {
		out[i] = cd.addr
	}
	return out
}

// hedged runs the read attempt loop: at most retries+1 attempts cycling
// through order, one extra hedged duplicate after hedgeDelay, first
// conclusive answer (success or non-retryable failure) wins.
func (c *Coordinator) hedged(ctx context.Context, req engine.Request, order []string, sh *shard) engine.Response {
	maxAttempts := c.retries + 1
	results := make(chan engine.Response, maxAttempts+1)
	next := 0
	inflight := 0
	launch := func() {
		addr := order[next%len(order)]
		next++
		inflight++
		go func() { results <- c.attempt(ctx, addr, req, sh) }()
	}
	launch()

	var hedge <-chan time.Time
	if c.hedgeDelay > 0 && maxAttempts > 1 && len(order) > 1 {
		t := time.NewTimer(c.hedgeDelay)
		defer t.Stop()
		hedge = t.C
	}
	var last engine.Response
	haveLast := false
	for {
		select {
		case r := <-results:
			inflight--
			if r.Error == "" || !r.Code.Retryable() {
				return r
			}
			last, haveLast = r, true
			if next < maxAttempts {
				launch()
			} else if inflight == 0 {
				return last
			}
		case <-hedge:
			hedge = nil
			if next < maxAttempts {
				launch()
			}
		case <-ctx.Done():
			if haveLast {
				return last
			}
			return failResponse(req, engine.CodeOf(ctx.Err()), "engine: %v", ctx.Err())
		}
	}
}

// attempt runs one RPC attempt against one worker under the per-attempt
// timeout.  A worker that answers unknown_tree for a tree the
// coordinator owns has lost its registry (crash, restart): the attempt
// restores the shard from the authoritative snapshot and re-asks once.
func (c *Coordinator) attempt(ctx context.Context, addr string, req engine.Request, sh *shard) engine.Response {
	if m := c.memberOf(addr); m != nil {
		m.load.Add(1)
		defer m.load.Add(-1)
	}
	actx, cancel := c.attemptCtx(ctx)
	defer cancel()
	resp, err := c.wc.query(actx, addr, req)
	c.noteOutcome(addr, err)
	if err != nil {
		return errResponse(req, err)
	}
	if resp.Code == engine.CodeUnknownTree && sh != nil {
		if perr := c.wc.putTree(actx, addr, sh.name, sh.snapshot()); perr == nil {
			if r2, err2 := c.wc.query(actx, addr, req); err2 == nil {
				return r2
			} else {
				c.noteOutcome(addr, err2)
				return errResponse(req, err2)
			}
		}
	}
	return resp
}

// write routes a mutation: the write lock serializes mutations per tree
// (matching the single-process treeEntry discipline) and the mutation
// fans out to every replica at once.  While the replicas apply it, the
// coordinator applies the same updates to its own parsed tree and
// serializes it — the delta is deterministic, so its verdict and bytes
// are the replicas' own.  On success that tree and its bytes become the
// authoritative snapshot, so a later restore is bit-identical to the
// mutated state without downloading it from a worker.  Replicas that
// cannot be reached within the retry budget are marked dead; the new
// snapshot re-seeds them on rejoin.
func (c *Coordinator) write(ctx context.Context, req engine.Request, sh *shard) engine.Response {
	sh.rw.Lock()
	defer sh.rw.Unlock()

	type outcome struct {
		resp engine.Response
		ok   bool
	}
	wait := fanOut(sh.replicas, func(addr string) outcome {
		resp, ok := c.writeReplica(ctx, addr, req, sh)
		return outcome{resp, ok}
	})
	// The update applies in place: ApplyAll leaves the tree untouched
	// when it refuses, and a changed tree that does not become
	// authoritative below is dropped and parsed again from the snapshot.
	// A snapshot that does not parse is a local refusal, so replicas that
	// applied the write count as diverged and are rolled back.
	cur := sh.state.Load()
	var localErr error
	if sh.tree == nil {
		sh.tree, localErr = andxor.UnmarshalTree(cur.Tree)
	}
	if localErr == nil {
		_, localErr = sh.tree.ApplyAll(req.Updates())
	}
	changed := localErr == nil
	var snap []byte
	if changed {
		snap, localErr = sh.tree.MarshalJSON()
	}
	results := wait()

	var first *engine.Response
	var lastFail engine.Response
	haveFail := false
	var answered []string // replicas whose verdict applied or rejected the mutation
	diverged := false
	for i, r := range results {
		if !r.ok {
			lastFail, haveFail = r.resp, true
			continue
		}
		if first == nil {
			first = &results[i].resp
		}
		if applied := r.resp.Error == ""; applied || r.resp.Code == engine.CodeFailed {
			answered = append(answered, sh.replicas[i])
			diverged = diverged || applied != (localErr == nil)
		}
	}
	if changed && (first == nil || first.Error != "" || diverged) {
		sh.tree = nil
	}
	switch {
	case first == nil && !haveFail:
		return failResponse(req, engine.CodeUnavailable, "distrib: tree %q has no replicas", req.Tree)
	case first == nil:
		return lastFail
	case diverged:
		// A replica's verdict differs from the coordinator's: the copies
		// had diverged before this write.  Roll every replica that
		// answered back to the last acknowledged snapshot and refuse the
		// write, so a retry meets copies that agree.  The rollback runs
		// even if the client has gone.
		heal := context.WithoutCancel(ctx)
		fanOut(answered, func(addr string) error { return c.pushSnapshot(heal, addr, sh) })()
		return failResponse(req, engine.CodeUnavailable,
			"distrib: replicas of tree %q disagreed on the mutation; rolled back to epoch %d", req.Tree, cur.Epoch)
	case first.Error != "":
		return *first
	}
	next := &durableShard{Epoch: cur.Epoch + 1, Tree: snap}
	sh.state.Store(next)
	first.Epoch = next.Epoch
	// Write-ahead discipline: the new snapshot is logged before the
	// mutation is acknowledged, so a coordinator restart replays exactly
	// the acknowledged history.  An append failure refuses the ack — the
	// disk, not the worker fleet, is the durability bound.
	if c.wal != nil {
		if err := c.wal.append(walRecord{Kind: recSnapshot, Name: sh.name, Epoch: next.Epoch, Tree: snap}); err != nil {
			return failResponse(req, engine.CodeUnavailable, "distrib: mutation applied but not durable: %v", err)
		}
		c.maybeCompact()
	}
	return *first
}

// maybeCompact folds the log into a fresh checkpoint once it has grown
// past the compaction threshold.
func (c *Coordinator) maybeCompact() {
	if c.wal == nil || !c.wal.shouldCompact() {
		return
	}
	_ = c.wal.compact(c.buildDurableState)
}

// buildDurableState captures the full registry as a checkpoint: fencing
// epoch, membership, and every shard's authoritative record.  Runs under
// wal.mu (from compact) and must therefore never take a shard's rw lock —
// mutations hold rw while appending to the log.
func (c *Coordinator) buildDurableState() durableState {
	st := newDurableState()
	st.FencingEpoch = c.fence.Load()
	c.mu.RLock()
	st.Members = c.memberAddrs()
	shards := make([]*shard, 0, len(c.shards))
	for _, sh := range c.shards {
		shards = append(shards, sh)
	}
	c.mu.RUnlock()
	for _, sh := range shards {
		st.Shards[sh.name] = *sh.state.Load()
	}
	return st
}

// writeReplica applies the mutation on one replica with bounded retries
// on retryable codes; a worker that lost the tree is restored from the
// snapshot first.  ok=false means the replica never produced a verdict
// (transport-level failure): the worker is left marked dead and will be
// re-seeded from the new snapshot when it rejoins.
func (c *Coordinator) writeReplica(ctx context.Context, addr string, req engine.Request, sh *shard) (engine.Response, bool) {
	var last engine.Response
	for attemptN := 0; attemptN <= c.retries; attemptN++ {
		actx, cancel := c.attemptCtx(ctx)
		resp, err := c.wc.query(actx, addr, req)
		if err == nil && resp.Code == engine.CodeUnknownTree {
			// Restore-and-reapply: the worker restarted without the shard.
			if perr := c.wc.putTree(actx, addr, sh.name, sh.snapshot()); perr == nil {
				resp, err = c.wc.query(actx, addr, req)
			}
		}
		cancel()
		c.noteOutcome(addr, err)
		if err != nil {
			last = errResponse(req, err)
		} else {
			last = resp
		}
		if last.Error == "" || !last.Code.Retryable() {
			return last, err == nil
		}
		if ctx.Err() != nil {
			break
		}
	}
	return last, false
}

// noteOutcome tracks worker liveness from RPC outcomes: transport-level
// unreachability marks the worker dead (the health prober revives it);
// any successful exchange marks it alive.
func (c *Coordinator) noteOutcome(addr string, err error) {
	m := c.memberOf(addr)
	if m == nil {
		return
	}
	if err == nil {
		m.alive.Store(true)
		return
	}
	switch engine.CodeOf(err) {
	case engine.CodeUnavailable:
		m.alive.Store(false)
	case engine.CodeFenced:
		// The worker saw a higher fencing epoch than ours: a newer
		// coordinator has taken over.  The worker is fine — this
		// coordinator is the stale party and must stand down.
		c.markDemoted()
	}
}

// memberOf looks up a member by address.
func (c *Coordinator) memberOf(addr string) *member {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.members[addr]
}

// ---------------------------------------------------------------------------
// Membership: join, leave, probing, rebalance

// MemberInfo is one worker's externally visible state: the liveness
// verdict routing uses, the in-flight read attempts the load-aware
// replica selection balances on, and how long ago the worker last
// checked in (heartbeat or successful probe).
type MemberInfo struct {
	Addr      string `json:"addr"`
	Alive     bool   `json:"alive"`
	Load      int64  `json:"load"`
	BeatAgeMS int64  `json:"beat_age_ms"`
}

// Members lists the cluster, sorted by address.
func (c *Coordinator) Members() []MemberInfo {
	now := time.Now().UnixNano()
	c.mu.RLock()
	out := make([]MemberInfo, 0, len(c.members))
	for _, m := range c.members {
		out = append(out, MemberInfo{
			Addr:      m.addr,
			Alive:     m.alive.Load(),
			Load:      m.load.Load(),
			BeatAgeMS: (now - m.lastBeat.Load()) / int64(time.Millisecond),
		})
	}
	c.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// PlacementEpoch reports the membership generation: it bumps on every
// join and leave, never on transient worker death.
func (c *Coordinator) PlacementEpoch() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.epoch
}

// Join adds a worker to the ring and rebalances: shards whose replica
// set now includes the worker get the authoritative snapshot pushed,
// shards that moved away get deleted from their old holders.
//
// Join is idempotent, which makes it double as the heartbeat endpoint:
// a worker that is already a member just refreshes its heartbeat
// timestamp (and, if it was marked dead, gets its shards restored) — no
// ring rebuild, no placement-epoch bump, no WAL record.
func (c *Coordinator) Join(ctx context.Context, addr string) error {
	n, err := normalizeAddr(addr)
	if err != nil {
		return err
	}
	now := time.Now().UnixNano()
	c.mu.Lock()
	if m, ok := c.members[n]; ok {
		c.mu.Unlock()
		m.lastBeat.Store(now)
		if !m.alive.Swap(true) {
			c.restoreWorker(ctx, n)
		}
		return nil
	}
	c.addMemberLocked(n, now)
	c.rebuildRingLocked()
	c.mu.Unlock()
	if err := c.wal.append(walRecord{Kind: recJoin, Addr: n}); err != nil {
		c.mu.Lock()
		delete(c.members, n)
		c.rebuildRingLocked()
		c.mu.Unlock()
		return err
	}
	c.rebalance(ctx)
	c.maybeCompact()
	return nil
}

// Leave removes a worker from the ring and rebalances its shards onto
// the remaining workers.  The last worker cannot leave.
func (c *Coordinator) Leave(ctx context.Context, addr string) error {
	n, err := normalizeAddr(addr)
	if err != nil {
		return err
	}
	c.mu.Lock()
	if _, ok := c.members[n]; !ok {
		c.mu.Unlock()
		return fmt.Errorf("distrib: worker %s is not a member", n)
	}
	if len(c.members) == 1 {
		c.mu.Unlock()
		return errors.New("distrib: cannot remove the last worker")
	}
	m := c.members[n]
	delete(c.members, n)
	c.rebuildRingLocked()
	c.mu.Unlock()
	if err := c.wal.append(walRecord{Kind: recLeave, Addr: n}); err != nil {
		c.mu.Lock()
		c.members[n] = m
		c.rebuildRingLocked()
		c.mu.Unlock()
		return err
	}
	c.rebalance(ctx)
	c.maybeCompact()
	return nil
}

func (c *Coordinator) rebuildRingLocked() {
	addrs := make([]string, 0, len(c.members))
	for addr := range c.members {
		addrs = append(addrs, addr)
	}
	sort.Strings(addrs)
	c.ring = buildRing(addrs)
	c.epoch++
}

// rebalance recomputes every shard's replica set against the current
// ring, pushing snapshots to new holders and deleting from dropped ones.
func (c *Coordinator) rebalance(ctx context.Context) {
	c.mu.RLock()
	shards := make([]*shard, 0, len(c.shards))
	for _, sh := range c.shards {
		shards = append(shards, sh)
	}
	ring := c.ring
	c.mu.RUnlock()

	for _, sh := range shards {
		want := ring.replicas(sh.name, c.replication)
		sh.rw.Lock()
		old := sh.replicas
		sh.replicas = want
		wantSet := make(map[string]bool, len(want))
		for _, a := range want {
			wantSet[a] = true
		}
		oldSet := make(map[string]bool, len(old))
		for _, a := range old {
			oldSet[a] = true
		}
		for _, a := range want {
			if !oldSet[a] {
				_ = c.pushSnapshot(ctx, a, sh)
			}
		}
		for _, a := range old {
			if !wantSet[a] {
				actx, cancel := c.attemptCtx(ctx)
				err := c.wc.deleteTree(actx, a, sh.name)
				cancel()
				c.noteOutcome(a, err)
			}
		}
		sh.rw.Unlock()
	}
}

// ProbeOnce drives one liveness pass.  In heartbeat mode (Options.
// HeartbeatTimeout > 0) it marks members dead once a heartbeat is
// overdue — dead -> alive transitions happen on the heartbeat itself
// (Join), which restores the worker's shards.  In probe mode it
// HTTP-probes every member; a worker transitioning dead -> alive gets
// every shard it should hold re-pushed from the authoritative snapshots
// (restore-on-rejoin).
func (c *Coordinator) ProbeOnce(ctx context.Context) {
	c.mu.RLock()
	members := make([]*member, 0, len(c.members))
	for _, m := range c.members {
		members = append(members, m)
	}
	c.mu.RUnlock()
	if c.heartbeatTimeout > 0 {
		cutoff := time.Now().Add(-c.heartbeatTimeout).UnixNano()
		for _, m := range members {
			if m.lastBeat.Load() < cutoff {
				m.alive.Store(false)
			}
		}
		return
	}
	for _, m := range members {
		actx, cancel := c.attemptCtx(ctx)
		err := c.wc.health(actx, m.addr)
		cancel()
		if err != nil {
			m.alive.Store(false)
			continue
		}
		m.lastBeat.Store(time.Now().UnixNano())
		if !m.alive.Swap(true) {
			c.restoreWorker(ctx, m.addr)
		}
	}
}

// restoreWorker re-pushes every shard placed on the worker, bringing a
// rejoined (possibly state-less) worker back to the authoritative state.
func (c *Coordinator) restoreWorker(ctx context.Context, addr string) {
	c.mu.RLock()
	shards := make([]*shard, 0, len(c.shards))
	for _, sh := range c.shards {
		shards = append(shards, sh)
	}
	c.mu.RUnlock()
	for _, sh := range shards {
		sh.rw.RLock()
		holds := false
		for _, a := range sh.replicas {
			if a == addr {
				holds = true
				break
			}
		}
		if holds {
			_ = c.pushSnapshot(ctx, addr, sh)
		}
		sh.rw.RUnlock()
	}
}

func (c *Coordinator) probeLoop(interval time.Duration) {
	defer c.wg.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.ProbeOnce(context.Background())
		}
	}
}
