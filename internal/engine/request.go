package engine

import (
	"fmt"
	"math"

	"consensus/internal/andxor"
	"consensus/internal/approx"
	"consensus/internal/types"
)

// Op selects the query kind a Request asks for.
type Op string

const (
	// OpTopKMean asks for the mean top-k answer under Request.Metric.
	OpTopKMean Op = "topk-mean"
	// OpTopKMedian asks for the median top-k answer (symmetric difference).
	OpTopKMedian Op = "topk-median"
	// OpRankDist asks for the rank distribution up to rank K per tuple.
	OpRankDist Op = "rank-dist"
	// OpMeanWorld asks for the mean world under symmetric difference.
	OpMeanWorld Op = "mean-world"
	// OpMedianWorld asks for a median world under symmetric difference.
	OpMedianWorld Op = "median-world"
	// OpSizeDist asks for the world-size distribution Pr(|pw| = i).
	OpSizeDist Op = "size-dist"
	// OpMembership asks for the per-key marginal presence probabilities.
	OpMembership Op = "membership"
	// OpWorldProb asks for the probability of the world in Request.World.
	OpWorldProb Op = "world-prob"
	// OpMeanWorldJaccard asks for the mean world under the Jaccard
	// distance (Section 4.2; tuple-independent trees only).
	OpMeanWorldJaccard Op = "mean-world-jaccard"
	// OpMedianWorldJaccard asks for a median world under the Jaccard
	// distance (Section 4.2; BID trees only).
	OpMedianWorldJaccard Op = "median-world-jaccard"
	// OpClusteringMean asks for a consensus clustering of the tree's
	// tuples by label (Section 6.2): exact partition search on small
	// instances, CC-Pivot with restarts otherwise.
	OpClusteringMean Op = "clustering-mean"
	// OpAggregateMean asks for the mean group-by count answer
	// (Section 6.1) over a matrix derived from the tree (see
	// Request.GroupBy).
	OpAggregateMean Op = "aggregate-mean"
	// OpAggregateMedian asks for the median group-by count answer: the
	// exact search on small instances, the closest-possible-answer
	// 4-approximation (Corollary 2) otherwise.
	OpAggregateMedian Op = "aggregate-median"
	// OpRankingConsensus asks for a consensus full ranking of the tree's
	// tuples (Section 2 aggregation rules over the possible worlds'
	// induced rankings; see Request.Method).
	OpRankingConsensus Op = "ranking-consensus"
	// OpSPJEval asks for the probability of the boolean conjunctive query
	// posted in Request.SPJ, via a safe plan when one exists and lineage
	// evaluation otherwise.  It is the only op that needs no registered
	// tree.
	OpSPJEval Op = "spj-eval"
	// OpMutate applies the in-place update posted in Request.Mutation to
	// the registered tree: a tuple-probability update ("set-prob") or an
	// alternative insert/delete.  Probability updates patch the compiled
	// kernel in place; insert/delete recompile it.
	OpMutate Op = "mutate"
	// OpCondition asserts the evidence posted in Request.Evidence: a key
	// observed present, absent, or fixed to one alternative ("choose").
	// Conditioning is a weight-only rescaling of the key's block
	// (Bayes-correct when the block is unconditionally materialized), so
	// it always patches the compiled kernel in place.
	OpCondition Op = "condition"
)

// allOps lists every op the engine serves, in the order doc.go's op table
// documents them.  Exposed through Ops for doc-drift checking.
var allOps = []Op{
	OpTopKMean, OpTopKMedian, OpRankDist,
	OpMeanWorld, OpMedianWorld,
	OpMeanWorldJaccard, OpMedianWorldJaccard,
	OpRankingConsensus, OpClusteringMean,
	OpAggregateMean, OpAggregateMedian,
	OpSizeDist, OpMembership, OpWorldProb,
	OpSPJEval,
	OpMutate, OpCondition,
}

// Ops returns every op the engine serves.  The doc-drift test pins the
// package documentation's op table to this registry.
func Ops() []Op {
	return append([]Op(nil), allOps...)
}

// Metric names accepted by OpTopKMean requests.
const (
	MetricSymDiff      = "symdiff"
	MetricIntersection = "intersection"
	MetricFootrule     = "footrule"
	MetricKendall      = "kendall"
)

// Aggregation rules accepted in Request.Method for OpRankingConsensus.
const (
	// MethodFootrule is optimal footrule aggregation via bipartite
	// matching (poly-time; 2-approximates the Kemeny optimum).  The
	// default.
	MethodFootrule = "footrule"
	// MethodKemeny is exact Kemeny-optimal aggregation by subset DP
	// (exponential; limited to rankagg.MaxKemenyExact items).
	MethodKemeny = "kemeny"
	// MethodBorda is the Borda-count positional rule (poly-time
	// heuristic).
	MethodBorda = "borda"
)

// Group-by sources accepted in Request.GroupBy for the aggregate ops.
const (
	// GroupByRank derives the matrix from the tree's rank distribution:
	// group j is "the tuple holds rank j", with a final group for tuples
	// ranked beyond the cutoff or absent.  Works on every tree.  The
	// default.
	GroupByRank = "rank"
	// GroupByLabel groups by the alternatives' Label attribute; the tree
	// must be a labeled BID tree whose blocks sum to probability 1 (the
	// Section 6.1 attribute-uncertainty model).
	GroupByLabel = "label"
)

// Evaluation modes accepted in Request.Mode.
const (
	// ModeExact runs the exact generating-function algorithms (the
	// default when Mode is empty and the engine has no default mode).
	ModeExact = approx.ModeExact
	// ModeApprox forces the Monte-Carlo sampling backend.
	ModeApprox = approx.ModeApprox
	// ModeAuto lets the engine pick the backend by estimated cost.
	ModeAuto = approx.ModeAuto
)

// maxRequestK bounds the rank cutoff a request may ask for, keeping
// adversarially huge k values (which would otherwise be clamped only
// after a tree lookup) out of the engine entirely.
const maxRequestK = 1 << 20

// Structural bounds on the remaining request knobs, rejecting
// adversarially expensive payloads before any computation starts.
const (
	// maxRestarts bounds the CC-Pivot restarts of OpClusteringMean.
	maxRestarts = 1 << 14
	// maxSPJSubgoals / maxSPJArity bound the posted SPJ query shape: the
	// lineage fallback is exponential in the worst case, so unbounded
	// payloads would be a denial-of-service vector.
	maxSPJSubgoals = 8
	maxSPJArity    = 8
	// MaxSPJRows bounds the total rows across an SPJ request's tables.
	// Exported because it is part of the wire contract: generators (see
	// workloadgen -kind spj) size their payloads against it.
	MaxSPJRows = 512
)

// Request is one typed consensus query against a registered tree.
type Request struct {
	// Tree is the name the target tree was registered under.
	Tree string `json:"tree"`
	// Op is the query kind.
	Op Op `json:"op"`
	// K is the rank cutoff for top-k and rank-distribution queries;
	// values beyond the tree's tuple count are clamped to it (which also
	// bounds the work an oversized cutoff can demand).
	K int `json:"k,omitempty"`
	// Metric selects the top-k distance for OpTopKMean; empty means
	// "symdiff".
	Metric string `json:"metric,omitempty"`
	// Keys optionally restricts OpRankDist / OpMembership output to the
	// given tuple keys.
	Keys []string `json:"keys,omitempty"`
	// World carries the candidate world for OpWorldProb.
	World []types.Leaf `json:"world,omitempty"`
	// Restarts is the number of CC-Pivot restarts for OpClusteringMean;
	// zero selects DefaultRestarts.  Ignored when the instance is small
	// enough for the exact partition search.
	Restarts int `json:"restarts,omitempty"`
	// Method selects the aggregation rule for OpRankingConsensus:
	// MethodFootrule (also the meaning of ""), MethodKemeny or
	// MethodBorda.
	Method string `json:"method,omitempty"`
	// GroupBy selects the matrix source for the aggregate ops:
	// GroupByRank (also the meaning of "") or GroupByLabel.
	GroupBy string `json:"group_by,omitempty"`
	// SPJ carries the query and database of an OpSPJEval request.
	SPJ *SPJRequest `json:"spj,omitempty"`
	// Mutation carries the update of an OpMutate request.  Exactly one of
	// Mutation and Mutations must be set.
	Mutation *MutationRequest `json:"mutation,omitempty"`
	// Mutations carries a batched OpMutate request: the updates apply in
	// order under one entry write lock, atomically (a failing update
	// rejects the whole batch, leaving the tree untouched), with a single
	// epoch bump and one cache-repair pass for the batch.
	Mutations []MutationRequest `json:"mutations,omitempty"`
	// Evidence carries the assertion of an OpCondition request.  Exactly
	// one of Evidence and Evidences must be set.
	Evidence *EvidenceRequest `json:"evidence,omitempty"`
	// Evidences carries a batched OpCondition request, with the same
	// atomicity and single-epoch-bump semantics as Mutations.
	Evidences []EvidenceRequest `json:"evidences,omitempty"`

	// Mode selects the evaluation backend: ModeExact (also the meaning of
	// the empty string, unless the engine sets a different default),
	// ModeApprox to force Monte-Carlo sampling, or ModeAuto to let the
	// engine choose by estimated cost.
	Mode string `json:"mode,omitempty"`
	// Epsilon and Delta form the error budget for approx/auto requests:
	// the sampling backend reports estimates whose confidence radius is
	// at most Epsilon with probability at least 1-Delta.  Zero selects
	// the engine defaults (falling back to approx.DefaultEpsilon/Delta).
	// Exact answers ignore the budget.
	Epsilon float64 `json:"epsilon,omitempty"`
	Delta   float64 `json:"delta,omitempty"`
	// Seed selects the sampling RNG stream; zero means the engine's
	// fixed default, so identical requests share cache entries.
	Seed int64 `json:"seed,omitempty"`
}

// MutationRequest is the payload of an OpMutate request.  Alternatives
// are identified by (Key, Score), matching the library's convention that
// a key's alternatives carry distinct scores.
type MutationRequest struct {
	// Kind is "set-prob", "insert" or "delete".
	Kind string `json:"kind"`
	// Key names the tuple being updated.
	Key string `json:"key"`
	// Score identifies the alternative (set-prob, delete) or is the new
	// alternative's score (insert).
	Score float64 `json:"score"`
	// Prob is the new edge probability (set-prob) or the new alternative's
	// probability (insert).
	Prob float64 `json:"prob,omitempty"`
	// Label is the new alternative's label (insert).
	Label string `json:"label,omitempty"`
	// Renormalize makes set-prob rescale the sibling edges (and the stop
	// mass) to preserve their proportions instead of requiring the block
	// to stay within budget.
	Renormalize bool `json:"renormalize,omitempty"`
}

// EvidenceRequest is the payload of an OpCondition request.
type EvidenceRequest struct {
	// Kind is "present", "absent" or "choose".
	Kind string `json:"kind"`
	// Key names the observed tuple.
	Key string `json:"key"`
	// Score identifies the chosen alternative (choose only).
	Score float64 `json:"score,omitempty"`
}

// maxBatchUpdates bounds the length of a batched mutation/evidence
// request: a batch applies under one entry write lock, so its size bounds
// how long queries on that tree can be blocked.
const maxBatchUpdates = 1024

// validate checks one mutation payload (singular or batch entry).  The
// messages carry no "engine:" prefix; callers add it, plus the batch
// position for batch entries.
func (m *MutationRequest) validate() error {
	switch andxor.UpdateKind(m.Kind) {
	case andxor.UpdateSetProb, andxor.UpdateInsert, andxor.UpdateDelete:
	default:
		return fmt.Errorf("unknown mutation kind %q (want set-prob, insert or delete)", m.Kind)
	}
	if m.Key == "" {
		return fmt.Errorf("mutation is missing the key")
	}
	if m.Prob < 0 || m.Prob > 1 || math.IsNaN(m.Prob) {
		return fmt.Errorf("mutation probability %v must lie in [0, 1]", m.Prob)
	}
	return nil
}

// validate checks one evidence payload (singular or batch entry).
func (ev *EvidenceRequest) validate() error {
	switch andxor.UpdateKind(ev.Kind) {
	case andxor.EvidencePresent, andxor.EvidenceAbsent, andxor.EvidenceChoose:
	default:
		return fmt.Errorf("unknown evidence kind %q (want present, absent or choose)", ev.Kind)
	}
	if ev.Key == "" {
		return fmt.Errorf("evidence is missing the key")
	}
	return nil
}

// SPJRequest is the payload of an OpSPJEval request: a boolean
// conjunctive query over tuple-independent probabilistic tables, both
// posted inline (no registered tree is involved).
type SPJRequest struct {
	// Query is the conjunction of subgoals, existentially quantified
	// over all variables.
	Query []SPJSubgoal `json:"query"`
	// Tables maps relation names to their probabilistic rows.
	Tables map[string][]SPJRow `json:"tables"`
}

// SPJSubgoal is one atom R(t1, ..., tn) of the posted query.
type SPJSubgoal struct {
	Relation string    `json:"relation"`
	Args     []SPJTerm `json:"args"`
}

// SPJTerm is a subgoal argument: exactly one of Var and Const is set.
type SPJTerm struct {
	Var   string `json:"var,omitempty"`
	Const string `json:"const,omitempty"`
}

// SPJRow is one probabilistic tuple of a posted table.
type SPJRow struct {
	Vals []string `json:"vals"`
	Prob float64  `json:"prob"`
}

// Response is the answer to one Request.  Exactly the fields relevant to
// the request's Op are populated; Error is set instead when the query
// failed.
type Response struct {
	Tree  string `json:"tree"`
	Op    Op     `json:"op"`
	Error string `json:"error,omitempty"`
	// Code classifies the failure when Error is set (see the Code
	// constants); empty on success.  Clients and the distributed
	// coordinator branch on it instead of string-matching Error, and only
	// codes marked retryable are retried on another replica.
	Code Code `json:"code,omitempty"`

	// TopK is the consensus top-k answer (best first).
	TopK []string `json:"topk,omitempty"`
	// Expected is the expected distance achieved by the returned answer,
	// when the engine can compute it in closed form.  It is a pointer so
	// that a legitimate zero distance survives JSON omitempty: absent
	// means "not computed for this op", not "zero".
	Expected *float64 `json:"expected,omitempty"`
	// Ranks maps tuple key -> [Pr(r=1), ..., Pr(r=K)].
	Ranks map[string][]float64 `json:"ranks,omitempty"`
	// TopKProb maps tuple key -> Pr(r <= K).
	TopKProb map[string]float64 `json:"topk_prob,omitempty"`
	// SizeDist holds Pr(|pw| = i) at index i.
	SizeDist []float64 `json:"size_dist,omitempty"`
	// World is the consensus world answer as its sorted alternatives.
	World []types.Leaf `json:"world,omitempty"`
	// Probs maps tuple key -> marginal presence probability.
	Probs map[string]float64 `json:"probs,omitempty"`
	// Value is the scalar answer of OpWorldProb and OpSPJEval; a pointer
	// for the same reason as Expected (a probability of exactly 0 is a
	// real answer).
	Value *float64 `json:"value,omitempty"`
	// Clusters is the consensus clustering of OpClusteringMean: each
	// inner slice holds the tuple keys of one cluster, clusters ordered
	// by first appearance over the sorted keys.
	Clusters [][]string `json:"clusters,omitempty"`
	// Groups names the columns of the aggregate answers, aligned with
	// GroupCounts / GroupMedian.
	Groups []string `json:"groups,omitempty"`
	// GroupCounts is the mean group-by count answer (may be fractional).
	GroupCounts []float64 `json:"group_counts,omitempty"`
	// GroupMedian is the median (possible) group-by count answer.
	GroupMedian []int `json:"group_median,omitempty"`
	// Ranking is the consensus full ranking of OpRankingConsensus: every
	// tuple key, best first (absent tuples rank below all present ones).
	Ranking []string `json:"ranking,omitempty"`
	// Method records which algorithm served ops with several (e.g.
	// "exact" vs "cc-pivot" clusterings, "safe-plan" vs "lineage" SPJ
	// evaluation, "footrule/enumerated" vs "footrule/sampled" rankings,
	// "patched" vs "recompiled" mutations).
	Method string `json:"method,omitempty"`
	// Epoch is the tree's mutation epoch: the number of mutations applied
	// under its current registration.  Query responses echo the epoch they
	// were answered under; mutation responses carry the epoch the mutation
	// created.  Omitted (zero) until the tree's first mutation.
	Epoch uint64 `json:"epoch,omitempty"`
	// Removed lists keys that disappeared entirely (an OpMutate delete of
	// a key's last alternative).
	Removed []string `json:"removed,omitempty"`

	// Approx describes how an approx/auto request was served; nil on
	// plain exact requests.
	Approx *ApproxInfo `json:"approx,omitempty"`
}

// ApproxInfo reports the backend that served an approx/auto request and,
// when that backend sampled, the realized accuracy.
type ApproxInfo struct {
	// Backend is "exact" or "approx".
	Backend string `json:"backend"`
	// Radius is the confidence half-width of the sampled estimates
	// (simultaneous across the coordinates of vector answers); zero when
	// Backend is "exact".
	Radius float64 `json:"radius,omitempty"`
	// Samples is the number of worlds drawn.
	Samples int `json:"samples,omitempty"`
	// Epsilon and Delta echo the effective error budget.
	Epsilon float64 `json:"epsilon,omitempty"`
	Delta   float64 `json:"delta,omitempty"`
}

// ptr boxes a scalar answer for the pointer-valued Response fields.
func ptr(v float64) *float64 { return &v }

// Ok reports whether the response carries an answer rather than an error.
func (r *Response) Ok() bool { return r.Error == "" }

// Validate rejects structurally bad requests.  The engine, the HTTP
// handler and the cluster coordinator all call it before any tree lookup,
// so an invalid request fails the same way on every front.
func (r *Request) Validate() error {
	if r.Tree == "" && r.Op != OpSPJEval {
		return fmt.Errorf("engine: request is missing the tree name")
	}
	switch r.Op {
	case OpTopKMean, OpTopKMedian, OpRankDist:
		if r.K < 1 {
			return fmt.Errorf("engine: op %q needs a positive k, got %d", r.Op, r.K)
		}
		if r.K > maxRequestK {
			return fmt.Errorf("engine: k = %d exceeds the %d limit", r.K, maxRequestK)
		}
	case OpAggregateMean, OpAggregateMedian:
		// K is optional here (0 = all ranks) but still bounded.
		if r.K < 0 || r.K > maxRequestK {
			return fmt.Errorf("engine: k = %d must lie in [0, %d]", r.K, maxRequestK)
		}
		if _, ok := normalizeGroupBy(r.GroupBy); !ok {
			return fmt.Errorf("engine: unknown group_by %q (want rank or label)", r.GroupBy)
		}
	case OpClusteringMean:
		if r.Restarts < 0 || r.Restarts > maxRestarts {
			return fmt.Errorf("engine: restarts = %d must lie in [0, %d]", r.Restarts, maxRestarts)
		}
	case OpRankingConsensus:
		if _, ok := normalizeMethod(r.Method); !ok {
			return fmt.Errorf("engine: unknown method %q (want footrule, kemeny or borda)", r.Method)
		}
	case OpSPJEval:
		if err := r.SPJ.validate(); err != nil {
			return err
		}
	case OpMutate:
		switch {
		case r.Mutation == nil && len(r.Mutations) == 0:
			return fmt.Errorf("engine: op %q needs a mutation payload", r.Op)
		case r.Mutation != nil && len(r.Mutations) > 0:
			return fmt.Errorf("engine: op %q must set exactly one of mutation and mutations", r.Op)
		case len(r.Mutations) > maxBatchUpdates:
			return fmt.Errorf("engine: mutations batch holds %d updates, limit %d", len(r.Mutations), maxBatchUpdates)
		}
		if r.Mutation != nil {
			if err := r.Mutation.validate(); err != nil {
				return fmt.Errorf("engine: %w", err)
			}
		}
		for i := range r.Mutations {
			if err := r.Mutations[i].validate(); err != nil {
				return fmt.Errorf("engine: mutations[%d]: %w", i, err)
			}
		}
	case OpCondition:
		switch {
		case r.Evidence == nil && len(r.Evidences) == 0:
			return fmt.Errorf("engine: op %q needs an evidence payload", r.Op)
		case r.Evidence != nil && len(r.Evidences) > 0:
			return fmt.Errorf("engine: op %q must set exactly one of evidence and evidences", r.Op)
		case len(r.Evidences) > maxBatchUpdates:
			return fmt.Errorf("engine: evidences batch holds %d updates, limit %d", len(r.Evidences), maxBatchUpdates)
		}
		if r.Evidence != nil {
			if err := r.Evidence.validate(); err != nil {
				return fmt.Errorf("engine: %w", err)
			}
		}
		for i := range r.Evidences {
			if err := r.Evidences[i].validate(); err != nil {
				return fmt.Errorf("engine: evidences[%d]: %w", i, err)
			}
		}
	case OpMeanWorld, OpMedianWorld, OpSizeDist, OpMembership, OpWorldProb,
		OpMeanWorldJaccard, OpMedianWorldJaccard:
	case "":
		return fmt.Errorf("engine: request is missing the op")
	default:
		return fmt.Errorf("engine: unknown op %q", r.Op)
	}
	if r.Op == OpTopKMean {
		if _, ok := normalizeMetric(r.Metric); !ok {
			return fmt.Errorf("engine: unknown metric %q", r.Metric)
		}
	}
	if !approx.ValidMode(r.Mode) {
		return fmt.Errorf("engine: unknown mode %q (want exact, approx or auto)", r.Mode)
	}
	if r.Epsilon < 0 || math.IsNaN(r.Epsilon) || math.IsInf(r.Epsilon, 0) {
		return fmt.Errorf("engine: epsilon %v must be a non-negative finite number", r.Epsilon)
	}
	if r.Delta < 0 || r.Delta >= 1 || math.IsNaN(r.Delta) {
		return fmt.Errorf("engine: delta %v must lie in [0, 1)", r.Delta)
	}
	return nil
}

// validate rejects structurally bad SPJ payloads: the lineage fallback is
// exponential, so sizes are bounded up front, like k on the rank ops.
func (s *SPJRequest) validate() error {
	if s == nil || len(s.Query) == 0 {
		return fmt.Errorf("engine: op %q needs a non-empty spj.query", OpSPJEval)
	}
	if len(s.Query) > maxSPJSubgoals {
		return fmt.Errorf("engine: spj.query has %d subgoals, limit %d", len(s.Query), maxSPJSubgoals)
	}
	arity := map[string]int{}
	for i, sg := range s.Query {
		if sg.Relation == "" {
			return fmt.Errorf("engine: spj.query subgoal %d is missing the relation name", i)
		}
		if len(sg.Args) == 0 || len(sg.Args) > maxSPJArity {
			return fmt.Errorf("engine: spj.query subgoal %d has %d args, want 1..%d", i, len(sg.Args), maxSPJArity)
		}
		if prev, ok := arity[sg.Relation]; ok && prev != len(sg.Args) {
			return fmt.Errorf("engine: spj.query uses relation %q with arities %d and %d", sg.Relation, prev, len(sg.Args))
		}
		arity[sg.Relation] = len(sg.Args)
		for j, t := range sg.Args {
			if (t.Var == "") == (t.Const == "") {
				return fmt.Errorf("engine: spj.query subgoal %d arg %d must set exactly one of var and const", i, j)
			}
		}
	}
	rows := 0
	for name, table := range s.Tables {
		rows += len(table)
		for i, row := range table {
			if row.Prob < 0 || row.Prob > 1 || math.IsNaN(row.Prob) {
				return fmt.Errorf("engine: spj.tables[%q] row %d has probability %v", name, i, row.Prob)
			}
			// Rows whose arity disagrees with the querying subgoal would
			// be silently skipped by the evaluators, turning an arity typo
			// into a confident probability-0 answer; reject them instead.
			if want, ok := arity[name]; ok && len(row.Vals) != want {
				return fmt.Errorf("engine: spj.tables[%q] row %d has arity %d, but the query uses %q with arity %d", name, i, len(row.Vals), name, want)
			}
		}
	}
	if rows > MaxSPJRows {
		return fmt.Errorf("engine: spj.tables hold %d rows, limit %d", rows, MaxSPJRows)
	}
	return nil
}

// normalizeMethod maps a ranking-consensus method name to its canonical
// spelling ("" means footrule).
func normalizeMethod(method string) (string, bool) {
	switch method {
	case "", MethodFootrule:
		return MethodFootrule, true
	case MethodKemeny:
		return MethodKemeny, true
	case MethodBorda:
		return MethodBorda, true
	default:
		return "", false
	}
}

// normalizeGroupBy maps an aggregate group_by name to its canonical
// spelling ("" means rank).
func normalizeGroupBy(groupBy string) (string, bool) {
	switch groupBy {
	case "", GroupByRank:
		return GroupByRank, true
	case GroupByLabel:
		return GroupByLabel, true
	default:
		return "", false
	}
}

// normalizeMetric maps a request metric name to its canonical spelling.
// The long names are what consensus.Metric.String() prints, so clients of
// the root package can pass those directly.
func normalizeMetric(metric string) (string, bool) {
	switch metric {
	case "", MetricSymDiff, "symmetric-difference":
		return MetricSymDiff, true
	case MetricIntersection:
		return MetricIntersection, true
	case MetricFootrule:
		return MetricFootrule, true
	case MetricKendall:
		return MetricKendall, true
	default:
		return "", false
	}
}
