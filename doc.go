// Package consensus is a Go implementation of "Consensus Answers for
// Queries over Probabilistic Databases" (Jian Li and Amol Deshpande, PODS
// 2009, arXiv:0812.2049).
//
// A probabilistic database defines a distribution over deterministic
// databases ("possible worlds"), so every query defines a distribution
// over deterministic answers.  A consensus answer is a single
// deterministic answer minimizing the expected distance to the answer of a
// random world: the "mean" answer when any answer is allowed, the "median"
// answer when it must be the answer of some possible world.
//
// The package exposes:
//
//   - the probabilistic and/xor tree model (Section 3.2), which
//     generalizes tuple-independent databases, x-tuples and the
//     block-independent disjoint (BID) scheme with hierarchical mutual
//     exclusion and coexistence;
//   - the generating-function toolkit (Section 3.3) for world-size,
//     membership and rank-distribution probabilities;
//   - consensus worlds under the symmetric-difference and Jaccard set
//     distances (Section 4);
//   - consensus top-k answers under the symmetric difference,
//     intersection, Spearman-footrule and Kendall distances (Section 5),
//     together with the prior ranking semantics (U-top-k, PT-k, expected
//     rank, expected score; global top-k is the symmetric-difference
//     mean) as baselines;
//   - consensus group-by count answers (Section 6.1) and consensus
//     clusterings (Section 6.2);
//   - consensus full rankings via the classical aggregation rules
//     (Section 2: optimal footrule matching, exact Kemeny, Borda) over
//     the possible worlds' induced rankings;
//   - SPJ query evaluation through safe plans (the Dalvi-Suciu
//     dichotomy), with exact lineage evaluation as the unsafe fallback;
//   - a concurrent serving engine (NewEngine) that registers trees by name,
//     answers typed requests through a bounded worker pool, and memoizes
//     the expensive generating-function intermediates in an LRU cache with
//     singleflight deduplication, so repeated and concurrent queries
//     against the same tree pay the polynomial inference cost once;
//   - an adaptive Monte-Carlo backend: every engine request may carry an
//     evaluation mode ("exact", "approx", "auto") and an error budget
//     (epsilon, delta), and the engine either runs the exact algorithms or
//     worker-sharded sampling with Hoeffding / empirical-Bernstein
//     stopping, reporting the realized confidence radius in the response;
//   - in-place mutation and evidence conditioning of registered trees
//     (OpMutate, OpCondition), singly or as atomic batches: probability
//     updates, alternative inserts/deletes and observed evidence propagate
//     as deltas through the compiled kernel and its pooled arenas,
//     bit-identical to re-registering the mutated tree but without paying
//     recompilation on weight-only changes — which also repair the cached
//     rank distribution into the new epoch instead of purging it (see
//     docs/ARCHITECTURE.md for the delta path).
//
// # Quick start
//
//	db, _ := consensus.Independent([]consensus.TupleProb{
//		{Leaf: consensus.Leaf{Key: "a", Score: 9}, Prob: 0.9},
//		{Leaf: consensus.Leaf{Key: "b", Score: 7}, Prob: 0.6},
//		{Leaf: consensus.Leaf{Key: "c", Score: 5}, Prob: 0.4},
//	})
//	top2, _ := consensus.TopKMean(db, 2, consensus.MetricSymmetricDifference)
//	world := consensus.MeanWorld(db)
//
// # The API by paper section
//
// The functions the examples call cite their paper results in their own
// documentation.  The remaining exported names, by the part of the paper
// they implement:
//
//	Section 2     consensus.KendallTau          Kendall distance of two full rankings
//	Section 2     consensus.SpearmanFootrule    footrule distance of two full rankings
//	Definition 1  consensus.Node                an and/xor tree node under construction
//	Definition 1  consensus.NewLeaf             a leaf: one tuple alternative
//	Definition 1  consensus.NewAnd              an and-node: its children coexist
//	Definition 1  consensus.NewOr               an or-node: at most one child, by edge probability
//	Definition 1  consensus.NewTree             checks a built tree against Definition 1
//	Section 3.3   consensus.RankDist            Pr(r(t) = i), as RankDistribution returns it
//	Section 4.2   consensus.ExpectedJaccard     E[d_J(W, pw)] of a candidate world W
//	Section 4.2   consensus.MeanWorldJaccard    the Jaccard mean world, tuple-independent
//	Section 4.2   consensus.MedianWorldJaccard  the Jaccard median world, BID
//	Section 5     consensus.TopKList            a top-k answer, as TopKMean returns it
//	Section 5.3   consensus.TopKUpsilonH        the H_k-approximate intersection mean
//	Section 5.5   consensus.TopKKendallPivot    the pivot Kendall consensus
//	Section 6.2   consensus.ClusterInstance     the co-clustering probabilities of a tree
//	Section 6.2   consensus.Clustering          a clustering, as ConsensusClustering returns it
//	Conclusions   consensus.ProbTable           one table of a ProbDatabase, for safe plans
//
// # Serving
//
// For query traffic, register trees with an Engine instead of calling the
// algorithm functions directly; repeated queries hit the intermediate
// cache:
//
//	eng := consensus.NewEngine(consensus.EngineOptions{})
//	eng.Register("db", db)
//	resp := eng.Query(consensus.Request{Tree: "db", Op: consensus.OpTopKMean, K: 2})
//	batch := eng.Do([]consensus.Request{
//		{Tree: "db", Op: consensus.OpRankDist, K: 2},
//		{Tree: "db", Op: consensus.OpMeanWorld},
//	})
//	_, _, _ = resp, batch, http.ListenAndServe(":8080", eng.Handler())
//
// The same engine serves HTTP/JSON via Engine.Handler; `consensusctl
// serve` wraps it as a ready-made server.  A POST /v1/query body is the
// flat Request JSON (POST /v1/batch wraps a list of them as
// {"requests": [...]}), every knob a top-level field:
//
//	{"tree": "db", "op": "topk-mean", "k": 2, "metric": "footrule"}
//
// Decoding is strict: a field the Request schema does not define, at any
// depth, is rejected with status 400 and code bad_request naming the
// field, so a misspelled knob never silently falls back to its default.
//
// # Query families served by the engine
//
// Every consensus query family of the paper is one Request.Op, with the
// cost class the paper's results table assigns it (poly-time exact, or
// NP-hard/#P-hard with the stated approximation):
//
//	op                    family        cost class (paper result)
//	--------------------  ------------  ----------------------------------------
//	topk-mean             top-k         poly (Theorems 3, 4, 7; Kendall served
//	                                    by the footrule 2-approximation)
//	topk-median           top-k         poly for symdiff (Theorem 6)
//	mean-world            set           poly (Theorem 2)
//	median-world          set           poly (Theorem 2)
//	mean-world-jaccard    set           poly, tuple-independent (Section 4.2)
//	median-world-jaccard  set           poly, BID (Section 4.2)
//	ranking-consensus     full ranking  footrule/borda poly per world set;
//	                                    Kemeny NP-hard, exact DP <= 16 tuples;
//	                                    world set enumerated or sampled
//	clustering-mean       clustering    NP-hard (CONSENSUS-CLUSTERING);
//	                                    exact <= 10 tuples, else CC-Pivot
//	aggregate-mean        aggregate     poly (linearity of expectation)
//	aggregate-median      aggregate     exact search <= 12 tuples, else the
//	                                    deterministic 4-approx (Corollary 2)
//	spj-eval              SPJ           poly for safe plans (hierarchical,
//	                                    self-join free); #P-hard otherwise,
//	                                    served by exact lineage evaluation
//	mutate                mutation      poly; weight updates patch the compiled
//	                                    kernel in place and repair cached
//	                                    intermediates, insert/delete recompile;
//	                                    batched form applies N updates under
//	                                    one epoch bump
//	condition             evidence      poly; weight-only block rescaling
//	                                    (local conditioning), patched in place;
//	                                    batched form as for mutate
//	rank-dist/size-dist/  primitives    poly (Section 3.3 generating
//	membership/world-prob               functions)
//
// Querying a consensus clustering and an SPJ consensus answer:
//
//	resp := eng.Query(consensus.Request{Tree: "db", Op: consensus.OpClusteringMean})
//	for i, group := range resp.Clusters {
//		fmt.Println("cluster", i, group) // tuple keys clustered together
//	}
//	resp = eng.Query(consensus.Request{Op: consensus.OpSPJEval, SPJ: &consensus.SPJRequest{
//		Query: []consensus.SPJSubgoal{
//			{Relation: "R", Args: []consensus.SPJTerm{{Var: "x"}}},
//			{Relation: "S", Args: []consensus.SPJTerm{{Var: "x"}, {Var: "y"}}},
//		},
//		Tables: map[string][]consensus.SPJRow{
//			"R": {{Vals: []string{"a"}, Prob: 0.5}},
//			"S": {{Vals: []string{"a", "u"}, Prob: 0.4}},
//		},
//	}})
//	// resp.Value is Pr(q); resp.Method says "safe-plan" or "lineage".
//
// # Mutations and evidence
//
// Registered trees are mutable.  OpMutate carries a MutationRequest — set a
// tuple's probability (optionally renormalizing its mutual-exclusion
// block), insert a new alternative, or delete one — and OpCondition carries
// an EvidenceRequest asserting that a key was observed present, absent, or
// fixed to one alternative, rescaling the affected block to the conditional
// distribution:
//
//	resp := eng.Query(consensus.Request{Tree: "db", Op: consensus.OpMutate,
//		Mutation: &consensus.MutationRequest{Kind: "set-prob", Key: "a", Prob: 0.7}})
//	resp = eng.Query(consensus.Request{Tree: "db", Op: consensus.OpCondition,
//		Evidence: &consensus.EvidenceRequest{Kind: "present", Key: "b"}})
//
// Both ops also take a batched form — Mutations ("mutations" on the wire)
// for OpMutate, Evidences for OpCondition, exactly one of the singular and
// batched field per request — applying up to 1024 updates atomically:
// either every update lands under a single epoch bump, or a failing update
// anywhere leaves the tree, the caches and the epoch untouched:
//
//	resp = eng.Query(consensus.Request{Tree: "db", Op: consensus.OpMutate,
//		Mutations: []consensus.MutationRequest{
//			{Kind: "set-prob", Key: "a", Prob: 0.7},
//			{Kind: "delete", Key: "b", Score: 7},
//		}})
//
// The response reports the new mutation epoch, the fresh marginals of every
// affected key, any keys removed by x-tuple conditioning, and whether the
// compiled kernel was "patched" in place (weight-only deltas against a
// resident program) or "recompiled" (structural changes).  Mutations are
// serialized per tree and atomic with respect to queries: a concurrent
// query sees either the complete old state or the complete new state.
// The response leaves before the cache repair below finishes; queries
// on the tree wait for the repair, exactly as if the writer had waited.
//
// A mutation bumps the tree's epoch, retargeting every cache key; what
// happens to the previously cached intermediates depends on the delta:
//
//	delta kind / condition              cached intermediates
//	----------------------------------  ------------------------------------
//	weight-only, kernel resident        the rank distribution of the tree's
//	                                    indexed cutoff (the widest one
//	                                    resident, which serves every
//	                                    narrower k), if resident, is
//	                                    re-derived into the new epoch by
//	                                    the call a read's cache miss makes
//	                                    — follow-up rank queries are warm
//	                                    hits; everything else purged,
//	                                    rebuilding lazily on its next query
//	structural (insert/delete), kernel  all purged, rebuilding lazily on
//	recompiled or absent                the next query
//	rank sweep error                    that entry purged; the next rank
//	                                    query reports the error
//
// Post-mutation query answers are bit-identical to re-registering the
// mutated tree cold — the carried rank distribution included;
// docs/ARCHITECTURE.md documents the delta-propagation architecture and
// the tests pinning that invariant.
//
// # The compiled exact kernel
//
// All exact rank and precedence statistics run on a compiled incremental
// evaluation kernel (internal/genfunc): each registered tree is flattened
// once into a postorder instruction array with binarized fan-ins, every
// evaluation reuses a preallocated polynomial arena (zero steady-state
// heap allocations), and the per-alternative generating functions of a
// rank distribution are evaluated as one descending-score batch that
// re-evaluates only the root paths of the few leaves whose marks change
// between consecutive alternatives.  A rank-distribution batch therefore
// costs O(n·depth·log(fan-in)·k^2) coefficient operations instead of the
// textbook n full-tree passes, and a full precedence matrix costs one
// incremental sweep per column instead of one tree evaluation per cell —
// an order-of-magnitude latency drop on cold caches.
//
// The arithmetic inner loop is engineered like a query executor's:
// polynomial rows are dense within per-row effective lengths (no
// per-element zero tests), the truncated convolution runs a 4-wide
// blocked kernel with its operand window in registers, and precedence
// evaluations — whose truncation caps make every slot a two-float dual
// number — run a fully scalar straight-line kernel.  Arenas, scratch rows
// and compiled programs are pooled and recycled across requests (and
// across the parallel rank shards), so warm engine queries evaluate with
// zero arena allocations; re-registering a tree swaps in a fresh program
// generation, taking its pools with it.  The remaining legacy recursive
// statistics now compile too: expected rank costs one dual-number sweep
// (O(n·depth·log fan-in), independent of k) instead of a full cutoff-n
// rank distribution plus one untruncated recursive pass per key, and
// score validation batches all tied-pair co-occurrence checks onto one
// arena at two path updates per pair, reporting a deterministic offending
// pair.  The compiled program is the only evaluator: co-clustering
// probabilities, subset counts and the expected Jaccard distance (on
// dual numbers, O(|tree|·n) memory) evaluate on it as well.
//
// # Approximate answers with error budgets
//
// Even the compiled kernel's polynomial cost prices the very largest
// trees out of interactive serving at tight cutoffs.  Requests can
// instead name an error budget and let the engine choose the backend per
// query:
//
//	resp := eng.Query(consensus.Request{
//		Tree: "db", Op: consensus.OpTopKMean, K: 10,
//		Mode: consensus.ModeAuto, Epsilon: 0.02, Delta: 0.001,
//	})
//	if resp.Approx != nil && resp.Approx.Backend == "approx" {
//		// *resp.Expected is within resp.Approx.Radius (<= 0.02) of the
//		// true expectation with probability >= 0.999.
//	}
//
// ModeAuto picks by estimated cost (small trees stay exact and bit-exact;
// large trees sample), ModeApprox forces sampling, and the same fields
// ride through the HTTP API ("mode", "epsilon", "delta", "seed") and the
// `consensusctl serve -mode auto` flags.  Sampled responses carry
// approx: {backend, radius, samples, epsilon, delta}; exact and sampled
// intermediates are cached under separate keys, so budgets never collide.
// Consensus worlds, median top-k and world probabilities are exact-only.
//
// # Error codes
//
// Every failed Response carries a typed machine-readable code in
// Response.Code alongside the human-readable Error string.  The HTTP
// handler maps structurally invalid requests to their status directly;
// semantically failed queries answer 200 with the code inside the
// Response body.  Retryable codes mark transient conditions — they are
// exactly the codes the cluster coordinator retries on another replica:
//
//	code           http  retryable  meaning
//	-------------  ----  ---------  ----------------------------------------
//	bad_request    400   no         malformed request, payload or parameters
//	unknown_tree   404   no         tree name was never registered
//	unknown_key    404   no         key absent from the registered tree
//	retired_epoch  409   no         tree replaced/removed concurrently;
//	                                re-issue against the new registration
//	overloaded     429   yes        queue full or admission control shed the
//	                                request; retry with backoff
//	timeout        504   yes        deadline expired while queued or running
//	canceled       499   no         the caller canceled the request
//	unavailable    503   yes        worker unreachable or answer undecodable
//	                                (cluster transport failure)
//	failed         500   no         deterministic computation failure
//	fenced         409   no         request stamped with a stale coordinator
//	                                fencing epoch; the sender was superseded
//	                                by a restart and must stand down
//
// # Distributed serving
//
// The same HTTP/JSON surface scales past one process.  A worker is a
// plain serving engine; the coordinator shards registered trees across
// workers and routes queries so that clients cannot tell a cluster from
// a single process — responses are byte-identical (pinned by
// internal/distrib's cross-check tests and the `make cluster-smoke` CI
// job):
//
//	consensusctl worker -addr :8081
//	consensusctl worker -addr :8082
//	consensusctl worker -addr :8083
//	consensusctl coordinator -addr :8080 \
//	    -cluster http://localhost:8081,http://localhost:8082,http://localhost:8083
//
// The coordinator places each tree on a consistent-hash ring (replica
// fan-out 2 by default, clamped to the cluster size), keeps the
// authoritative serialized snapshot of every tree, fans mutations out to
// all replicas at once (serialized per tree) while applying the same
// updates to its own copy, which becomes the new snapshot without a
// download from a worker, and serves reads with per-attempt
// timeouts, bounded retries on the retryable codes above, and one
// tail-hedged duplicate attempt when the first replica is slow
// (-attempt-timeout, -retries, -hedge).  Admission control prices each
// request by the cost classes of the op table — primitives 1, poly-time
// families 4, mutations 8, NP-hard families 16 — and sheds work past the
// -admission capacity with "overloaded" instead of queueing behind
// wedged computations; workers price their own load the same way
// (`consensusctl worker -admission`), shedding "overloaded" onto their
// replicas instead of queueing.  Workers that crash and come back empty
// are restored from the authoritative snapshots, either by the health
// prober (-probe) or lazily on first touch; a restored shard is
// bit-identical to the pre-crash state, applied mutations included.
// Reads route to the replica with the fewest in-flight
// coordinator-issued requests (load-aware selection), with the tail
// hedge on top.  Membership is administered at runtime via POST
// /cluster/join and POST /cluster/leave ({"addr":"http://host:port"})
// and inspected via GET /cluster/members; joins and leaves rebalance
// shard placements before answering.
//
// # Durable cluster state
//
// `consensusctl coordinator -data-dir /var/lib/consensus` makes the
// registry durable: every registry-changing event (register/unregister,
// the authoritative snapshot after each acknowledged mutation,
// membership changes) is written ahead to a length-prefixed,
// CRC-checksummed log of rotating segments and fsynced before the
// change is acknowledged, with periodic checkpoint compaction (sealed
// segments a checkpoint fully covers are pruned past -wal-retain).  A
// restarted coordinator replays
// the log, then reconciles against the live fleet — polling each
// worker's /v1/trees, adopting worker-held trees the log never saw and
// re-pushing authoritative snapshots where workers lag — and serves the
// full pre-crash registry byte-identical to an uninterrupted single
// process.  Each start bumps a persisted fencing epoch stamped on every
// worker RPC; workers remember the highest epoch seen and reject older
// stamps with the "fenced" code, so a superseded coordinator (or a
// second copy started by accident) cannot corrupt any shard.
//
// With -heartbeat-timeout the coordinator switches to heartbeat
// membership: workers self-register on boot and keep beating via POST
// /cluster/join (`consensusctl worker -coordinator http://host:8080
// -advertise http://self:8081 -heartbeat 2s`), join/leave become
// idempotent heartbeats for existing members, and the health prober
// marks a member dead once a beat is overdue instead of HTTP-probing a
// static -cluster list — fleets grow without hand-joining (-coordinator
// takes a comma-separated list, so workers beat to the standby too).
//
// # High availability
//
// A durable coordinator renews a leadership lease in its own log every
// -lease-interval; a hot standby (`consensusctl coordinator -standby
// -primary http://host:8080 -data-dir /var/lib/consensus-b`) tails the
// leader's log verbatim over GET /cluster/wal into its own data dir,
// applying each batch to a shadow registry while answering only
// /healthz (role "following") and /cluster/status.  When the shipped
// lease has been stale for -lease-timeout the standby takes over with
// no operator action: it replays the shipped history, bumps the
// persisted fencing epoch past everything in it, reconciles against
// the live workers and starts serving — byte-identical to the leader
// it replaced.  The old primary, alive or resurrected, is rejected by
// every worker with "fenced" on its next stamped RPC and demotes
// itself back to a follower of the new leader, so at most one
// coordinator can write at any time.
//
// See examples/ for runnable end-to-end programs, README.md for the
// install/serve quickstart and docs/ARCHITECTURE.md for the request
// lifecycle, the delta-propagation architecture and the distributed
// tier.
package consensus
