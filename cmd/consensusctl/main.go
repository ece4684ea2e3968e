// Command consensusctl answers consensus queries over a probabilistic
// database given as and/xor tree JSON (see workloadgen for a generator and
// Tree.MarshalJSON for the format).
//
// Usage:
//
//	consensusctl -db db.json mean-world
//	consensusctl -db db.json median-world
//	consensusctl -db db.json size-dist
//	consensusctl -db db.json topk -k 5 -metric footrule
//	consensusctl -db db.json topk-median -k 5
//	consensusctl -db db.json rank -k 5
//	consensusctl -db db.json cluster -restarts 20
//	consensusctl -db db.json groupby
//	consensusctl -db db.json mutate -kind set-prob -key a -score 9 -prob 0.7 > db2.json
//	consensusctl -db db.json mutate -batch updates.json > db2.json
//	consensusctl -db db.json condition -kind present -key a > db2.json
//	consensusctl serve -addr :8080 [-db db.json -name default]
//	consensusctl worker -addr :8081
//	consensusctl coordinator -addr :8080 -cluster http://h1:8081,http://h2:8081,http://h3:8081
//	consensusctl coordinator -addr :8081 -standby -primary http://h0:8080 -data-dir /var/lib/consensus-b
//
// With -db - the tree is read from stdin.  The mutate and condition
// subcommands apply one in-place update (set-prob, insert, delete) or
// evidence assertion (present, absent, choose) to the tree, report the
// affected marginals on stderr, and write the mutated tree JSON to stdout
// so pipelines can chain updates; against a running server the same
// operations are the engine ops "mutate" and "condition".  With -batch
// the updates are read as a JSON array of
// {"kind","key","score","prob","label","renormalize"} objects (the same
// shape as the engine's "mutations"/"evidences" request fields, - for
// stdin) and applied atomically: either every update lands or the tree is
// left untouched.  The serve
// subcommand starts the concurrent consensus-serving engine over HTTP/JSON
// (see package consensus/internal/engine for the endpoint list); -db
// optionally preloads one tree, and further trees can be registered at
// runtime with PUT /v1/trees/{name}.  The served op set covers every
// consensus query family of the paper: topk-mean, topk-median, rank-dist,
// mean-world, median-world, mean-world-jaccard, median-world-jaccard,
// size-dist, membership, world-prob, clustering-mean, aggregate-mean,
// aggregate-median, ranking-consensus, spj-eval (which posts its query and
// tables inline; see workloadgen -kind spj for a generator), and the
// mutation ops mutate and condition.
//
// The worker and coordinator subcommands form the distributed serving
// tier.  A worker is a plain serving engine (same surface as serve) that
// sheds load past its own -admission budget and rejects RPCs stamped
// with a stale coordinator fencing epoch; with -coordinator/-advertise
// it self-registers by sending periodic /cluster/join heartbeats.  The
// coordinator shards registered trees across its -cluster workers by
// consistent hashing with replication (default 2), routes reads with
// per-attempt timeouts, bounded retries on retryable error codes and
// tail-hedging (preferring the least-loaded replicas), fans mutations
// out to every replica, sheds load past the -admission cost budget with
// the "overloaded" error code, and restores crashed-and-rejoined workers
// from its authoritative tree snapshots.  With -data-dir every
// registry-changing event is written ahead to a checksummed log of
// rotating segments (-wal-retain bounds how many sealed segments
// outlive compaction), a restart replays it, reconciles against the
// live workers and fences out the previous incarnation; with
// -heartbeat-timeout membership is driven by worker heartbeats instead
// of probing a static list (-coordinator accepts a comma-separated
// list, so workers keep beating to a standby as well).  A durable
// coordinator renews a leadership lease in its log every
// -lease-interval; a second coordinator started with -standby -primary
// <url> tails the primary's log over GET /cluster/wal into its own
// -data-dir and, once the lease has been stale for -lease-timeout,
// bumps the fencing epoch and takes over serving with no operator
// action — the old primary, if it resurfaces, is fenced by the workers
// and demotes itself back to a follower.  Clients talk to the
// coordinator exactly as to a single-process server — same endpoints,
// byte-identical responses — plus the admin endpoints POST
// /cluster/join, POST /cluster/leave ({"addr":...}), GET
// /cluster/members, GET /cluster/status and GET /cluster/wal.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	consensus "consensus"
	"math/rand"
)

func main() {
	db := flag.String("db", "-", "path to and/xor tree JSON, or - for stdin")
	k := flag.Int("k", 5, "k for top-k queries")
	metric := flag.String("metric", "symdiff", "top-k metric: symdiff | intersection | footrule | kendall")
	restarts := flag.Int("restarts", 20, "pivot restarts for clustering")
	seed := flag.Int64("seed", 1, "random seed for randomized algorithms")
	addr := flag.String("addr", ":8080", "listen address for serve")
	name := flag.String("name", "default", "registration name of the preloaded tree for serve")
	workers := flag.Int("workers", 0, "engine worker-pool size for serve (0 = GOMAXPROCS)")
	cacheSize := flag.Int("cache", 0, "engine cache entries for serve (0 = default, negative disables)")
	mode := flag.String("mode", "", "serve: default evaluation mode for requests that set none: exact | approx | auto")
	epsilon := flag.Float64("epsilon", 0, "serve: default error-budget half-width for approx/auto requests (0 = library default)")
	delta := flag.Float64("delta", 0, "serve: default error-budget failure probability (0 = library default)")
	kind := flag.String("kind", "", "mutate: set-prob | insert | delete; condition: present | absent | choose")
	key := flag.String("key", "", "mutate/condition: tuple key to update")
	score := flag.Float64("score", 0, "mutate/condition: score identifying the alternative within the key's block")
	prob := flag.Float64("prob", 0, "mutate: new edge probability for set-prob/insert")
	label := flag.String("label", "", "mutate: label of an inserted alternative")
	renorm := flag.Bool("renorm", false, "mutate set-prob: rescale the rest of the block so its total mass is preserved")
	batch := flag.String("batch", "", "mutate/condition: path to a JSON array of updates (or - for stdin), applied atomically as one batch")
	cluster := flag.String("cluster", "", "coordinator: comma-separated worker base URLs (http://host:port,...)")
	replication := flag.Int("replication", 0, "coordinator: replicas per tree (0 = default 2, clamped to cluster size)")
	attemptTimeout := flag.Duration("attempt-timeout", 0, "coordinator: per-RPC-attempt timeout (0 = default 2s)")
	retries := flag.Int("retries", 0, "coordinator: extra routed attempts after the first (0 = default 2, negative disables)")
	hedge := flag.Duration("hedge", 0, "coordinator: tail-hedging delay for reads (0 = default 250ms, negative disables)")
	admission := flag.Int("admission", 0, "cost-unit admission capacity (coordinator: 0 = default 256, negative disables; serve/worker: <= 0 disables)")
	probe := flag.Duration("probe", 0, "coordinator: worker health-probe interval (0 = default 1s, negative disables)")
	dataDir := flag.String("data-dir", "", "coordinator: directory for the durable write-ahead log; restarts replay it, reconcile against the workers and fence out the previous incarnation (empty = in-memory only)")
	heartbeatTimeout := flag.Duration("heartbeat-timeout", 0, "coordinator: mark a worker dead after this long without a heartbeat; enables heartbeat membership, where workers self-register via -coordinator (<= 0 = probe the static -cluster list)")
	coordinator := flag.String("coordinator", "", "worker: comma-separated coordinator base URLs to send periodic /cluster/join heartbeats to (empty = no heartbeats; list primary and standby so failover keeps membership alive)")
	advertise := flag.String("advertise", "", "worker: own base URL announced in heartbeats (required with -coordinator); coordinator: own base URL recorded in leadership leases")
	heartbeat := flag.Duration("heartbeat", 0, "worker: heartbeat interval (0 = default 1s)")
	standby := flag.Bool("standby", false, "coordinator: start as a hot standby following -primary instead of leading")
	primary := flag.String("primary", "", "coordinator: peer coordinator base URL; with -standby the leader to follow, without it the peer consulted at boot (and fallen back to after demotion)")
	leaseInterval := flag.Duration("lease-interval", 0, "coordinator: leadership lease renewal interval written to the WAL (0 = default 1s, negative disables)")
	leaseTimeout := flag.Duration("lease-timeout", 0, "coordinator: standby takes over after the primary's lease has been stale this long (0 = default 3s)")
	walRetain := flag.Int("wal-retain", 0, "coordinator: sealed WAL segments kept past compaction for standby catch-up (0 = default 2, negative keeps none)")
	flag.Parse()

	if flag.NArg() < 1 {
		usage()
	}
	cmd := flag.Arg(0)
	// Allow flags after the subcommand too (flag parsing stops at the
	// first positional argument).
	if flag.NArg() > 1 {
		if err := flag.CommandLine.Parse(flag.Args()[1:]); err != nil {
			usage()
		}
	}
	switch cmd {
	case "serve", "worker":
		// Serving needs no preloaded tree; -db is opt-in here, so the
		// global default of "-" (stdin) does not apply.  A worker is a
		// plain serving engine — the coordinator drives it through the
		// same public HTTP/JSON surface clients use.
		dbPath := *db
		if !flagWasSet("db") {
			dbPath = ""
		}
		if err := runServe(serveConfig{
			addr: *addr, db: dbPath, name: *name, workers: *workers, cache: *cacheSize,
			mode: *mode, epsilon: *epsilon, delta: *delta, admission: *admission,
			coordinator: *coordinator, advertise: *advertise, heartbeat: *heartbeat,
		}); err != nil {
			fail(err)
		}
		return
	case "coordinator":
		dbPath := *db
		if !flagWasSet("db") {
			dbPath = ""
		}
		if err := runCoordinator(coordConfig{
			addr: *addr, cluster: *cluster, db: dbPath, name: *name,
			replication: *replication, attemptTimeout: *attemptTimeout,
			retries: *retries, hedge: *hedge, admission: *admission, probe: *probe,
			dataDir: *dataDir, heartbeatTimeout: *heartbeatTimeout,
			standby: *standby, primary: *primary, advertise: *advertise,
			leaseInterval: *leaseInterval, leaseTimeout: *leaseTimeout,
			walRetain: *walRetain,
		}); err != nil {
			fail(err)
		}
		return
	}
	tree, err := loadTree(*db)
	if err != nil {
		fail(err)
	}
	rng := rand.New(rand.NewSource(*seed))

	switch cmd {
	case "mean-world":
		w := consensus.MeanWorld(tree)
		fmt.Printf("mean world: %v\n", w)
		fmt.Printf("E[symmetric difference] = %.6g\n", consensus.ExpectedSymmetricDifference(tree, w))
	case "median-world":
		w := consensus.MedianWorld(tree)
		fmt.Printf("median world: %v (probability %.6g)\n", w, consensus.WorldProbability(tree, w))
		fmt.Printf("E[symmetric difference] = %.6g\n", consensus.ExpectedSymmetricDifference(tree, w))
	case "size-dist":
		dist := consensus.WorldSizeDistribution(tree)
		fmt.Println("size  probability")
		for i, p := range dist {
			if p != 0 {
				fmt.Printf("%4d  %.6g\n", i, p)
			}
		}
	case "topk":
		m, err := parseMetric(*metric)
		if err != nil {
			fail(err)
		}
		tau, err := consensus.TopKMean(tree, *k, m)
		if err != nil {
			fail(err)
		}
		fmt.Printf("mean top-%d (%s): %v\n", *k, m, tau)
	case "topk-median":
		tau, err := consensus.TopKMedian(tree, *k)
		if err != nil {
			fail(err)
		}
		fmt.Printf("median top-%d: %v\n", *k, tau)
	case "rank":
		rd, err := consensus.RankDistribution(tree, *k)
		if err != nil {
			fail(err)
		}
		keys := append([]string(nil), rd.Keys()...)
		sort.SliceStable(keys, func(i, j int) bool { return rd.PrTopK(keys[i]) > rd.PrTopK(keys[j]) })
		fmt.Printf("%-12s Pr(r<=%d)\n", "tuple", *k)
		for _, key := range keys {
			fmt.Printf("%-12s %.6g\n", key, rd.PrTopK(key))
		}
	case "cluster":
		ins, c, e := consensus.ConsensusClustering(tree, rng, *restarts)
		fmt.Printf("expected pair disagreements: %.6g\n", e)
		byCluster := map[int][]string{}
		for i, id := range c {
			byCluster[id] = append(byCluster[id], ins.Keys[i])
		}
		for id := 0; id < len(byCluster); id++ {
			fmt.Printf("cluster %d: %v\n", id, byCluster[id])
		}
	case "mutate", "condition":
		var err error
		switch {
		case *batch == "":
			u := consensus.Update{
				Kind: consensus.UpdateKind(*kind), Key: *key, Score: *score,
				Prob: *prob, Label: *label, Renormalize: *renorm,
			}
			if err = checkKind(cmd, u.Kind); err == nil {
				err = runMutate(tree, cmd, []consensus.Update{u})
			}
		case *kind != "":
			err = fmt.Errorf("%s takes either -kind or -batch, not both", cmd)
		default:
			err = runMutateBatch(tree, cmd, *batch)
		}
		if err != nil {
			fail(err)
		}
	case "groupby":
		p, groups, err := consensus.GroupMatrixFromTree(tree)
		if err != nil {
			fail(err)
		}
		mean, err := consensus.GroupByCountMean(p)
		if err != nil {
			fail(err)
		}
		median, _, err := consensus.GroupByCountMedian(p)
		if err != nil {
			fail(err)
		}
		fmt.Printf("%-12s %-10s %s\n", "group", "mean", "median (4-approx)")
		for j, g := range groups {
			fmt.Printf("%-12s %-10.4g %d\n", g, mean[j], median[j])
		}
	default:
		usage()
	}
}

// checkKind vets that an update kind belongs to the given subcommand, so
// a batch cannot smuggle evidence assertions through mutate or vice versa
// (the engine enforces the same split between its two ops).
func checkKind(cmd string, kind consensus.UpdateKind) error {
	switch kind {
	case consensus.UpdateSetProb, consensus.UpdateInsert, consensus.UpdateDelete:
		if cmd != "mutate" {
			return fmt.Errorf("kind %q belongs to the mutate subcommand", kind)
		}
	case consensus.EvidencePresent, consensus.EvidenceAbsent, consensus.EvidenceChoose:
		if cmd != "condition" {
			return fmt.Errorf("kind %q belongs to the condition subcommand", kind)
		}
	case "":
		return fmt.Errorf("%s needs -kind (and -key)", cmd)
	default:
		return fmt.Errorf("unknown %s kind %q", cmd, kind)
	}
	return nil
}

// batchUpdate is the wire shape of one -batch entry, matching the field
// names of the engine's batched "mutations"/"evidences" request forms.
type batchUpdate struct {
	Kind        string  `json:"kind"`
	Key         string  `json:"key"`
	Score       float64 `json:"score,omitempty"`
	Prob        float64 `json:"prob,omitempty"`
	Label       string  `json:"label,omitempty"`
	Renormalize bool    `json:"renormalize,omitempty"`
}

// runMutateBatch reads a JSON update array, vets each kind and applies
// the batch through runMutate.
func runMutateBatch(tree *consensus.Tree, cmd, path string) error {
	var data []byte
	var err error
	if path == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(path)
	}
	if err != nil {
		return err
	}
	var raw []batchUpdate
	if err := json.Unmarshal(data, &raw); err != nil {
		return fmt.Errorf("parsing %s batch: %w", cmd, err)
	}
	if len(raw) == 0 {
		return fmt.Errorf("%s batch is empty", cmd)
	}
	us := make([]consensus.Update, len(raw))
	for i, b := range raw {
		us[i] = consensus.Update{
			Kind: consensus.UpdateKind(b.Kind), Key: b.Key, Score: b.Score,
			Prob: b.Prob, Label: b.Label, Renormalize: b.Renormalize,
		}
		if err := checkKind(cmd, us[i].Kind); err != nil {
			return fmt.Errorf("batch update %d: %w", i, err)
		}
	}
	return runMutate(tree, cmd, us)
}

// runMutate applies updates atomically via Tree.ApplyAll (a failing
// update leaves the tree untouched and nothing is written to stdout),
// reports the affected marginals and removed keys on stderr and writes
// the mutated tree JSON to stdout, so shell pipelines can chain updates;
// against a running server the same operations are the engine ops
// "mutate" and "condition".
func runMutate(tree *consensus.Tree, cmd string, us []consensus.Update) error {
	ds, err := tree.ApplyAll(us)
	if err != nil {
		return err
	}
	seen := map[string]bool{}
	for _, d := range ds {
		for _, k := range d.Keys {
			if seen[k] {
				continue
			}
			seen[k] = true
			if m, ok := tree.KeyMarginal(k); ok {
				fmt.Fprintf(os.Stderr, "%s: Pr(%s present) = %.6g\n", cmd, k, m)
			}
		}
		for _, k := range d.Removed {
			if _, ok := tree.KeyMarginal(k); !ok {
				fmt.Fprintf(os.Stderr, "%s: %s removed\n", cmd, k)
			}
		}
	}
	out, err := tree.MarshalJSON()
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", out)
	return err
}

func parseMetric(s string) (consensus.Metric, error) {
	switch s {
	case "symdiff":
		return consensus.MetricSymmetricDifference, nil
	case "intersection":
		return consensus.MetricIntersection, nil
	case "footrule":
		return consensus.MetricFootrule, nil
	case "kendall":
		return consensus.MetricKendall, nil
	default:
		return 0, fmt.Errorf("unknown metric %q", s)
	}
}

func loadTree(path string) (*consensus.Tree, error) {
	var data []byte
	var err error
	if path == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(path)
	}
	if err != nil {
		return nil, err
	}
	return consensus.ParseTree(data)
}

// flagWasSet reports whether the named flag was explicitly provided.
func flagWasSet(name string) bool {
	set := false
	flag.CommandLine.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: consensusctl -db <file|-> <mean-world|median-world|size-dist|topk|topk-median|rank|cluster|groupby>")
	fmt.Fprintln(os.Stderr, "       consensusctl -db <file|-> mutate -kind set-prob|insert|delete -key K [-score S -prob P -label L -renorm]")
	fmt.Fprintln(os.Stderr, "       consensusctl -db <file|-> mutate|condition -batch <file|-> (JSON update array, applied atomically)")
	fmt.Fprintln(os.Stderr, "       consensusctl -db <file|-> condition -kind present|absent|choose -key K [-score S]")
	fmt.Fprintln(os.Stderr, "       consensusctl serve -addr <host:port> [-db <file> -name <tree> -workers N -cache N -mode exact|approx|auto -epsilon E -delta D]")
	fmt.Fprintln(os.Stderr, "       consensusctl worker -addr <host:port> [same flags as serve, plus -admission N -coordinator <url> -advertise <url> -heartbeat D]")
	fmt.Fprintln(os.Stderr, "       consensusctl coordinator -addr <host:port> -cluster <url,url,...> [-replication N -attempt-timeout D -retries N -hedge D -admission N -probe D -data-dir <dir> -heartbeat-timeout D -wal-retain N -lease-interval D -advertise <url> -db <file> -name <tree>]")
	fmt.Fprintln(os.Stderr, "       consensusctl coordinator -addr <host:port> -standby -primary <url> -data-dir <dir> [-lease-timeout D ...]")
	os.Exit(2)
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "consensusctl: %v\n", err)
	os.Exit(1)
}
