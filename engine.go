package consensus

import (
	"net/http"

	"consensus/internal/engine"
)

// Engine-layer re-exports: the concurrent consensus-serving subsystem.
// An Engine registers trees by name and answers typed requests through a
// bounded worker pool, memoizing the expensive generating-function
// intermediates (rank distributions, world-size polynomials, Upsilon
// statistics) in an LRU cache with singleflight deduplication.  Use
// Engine.Handler to serve the same requests over HTTP/JSON (see the
// consensusctl serve subcommand).
type (
	// Engine is the concurrent consensus-query service.
	Engine = engine.Engine
	// EngineOptions configures NewEngine.
	EngineOptions = engine.Options
	// Request is one typed consensus query against a registered tree.
	Request = engine.Request
	// Response is the answer to one Request.
	Response = engine.Response
	// Op selects the query kind of a Request.
	Op = engine.Op
	// SPJRequest is the payload of an OpSPJEval request: a boolean
	// conjunctive query plus its tuple-independent probabilistic tables,
	// posted inline.
	SPJRequest = engine.SPJRequest
	// SPJSubgoal is one atom of an SPJRequest query.
	SPJSubgoal = engine.SPJSubgoal
	// SPJTerm is a subgoal argument (exactly one of Var/Const set).
	SPJTerm = engine.SPJTerm
	// SPJRow is one probabilistic tuple of a posted SPJ table.
	SPJRow = engine.SPJRow
	// MutationRequest is the payload of an OpMutate request: a
	// tuple-probability update or an alternative insert/delete applied to
	// the registered tree in place.
	MutationRequest = engine.MutationRequest
	// EvidenceRequest is the payload of an OpCondition request: a key
	// observed present, absent, or fixed to one alternative.
	EvidenceRequest = engine.EvidenceRequest
	// ErrorCode classifies a failed Request (Response.Code); see the
	// error-code table in the package documentation for the HTTP status
	// mapping and which codes mark retryable transient conditions.
	ErrorCode = engine.Code
	// Fence tracks the highest coordinator fencing epoch a worker has
	// observed (monotonic max); NewFencedHandler enforces it so a
	// superseded coordinator cannot mutate the worker's shards.
	Fence = engine.Fence
)

// NewEngine builds an engine; the zero EngineOptions selects GOMAXPROCS
// workers and the default cache size.
func NewEngine(opts EngineOptions) *Engine { return engine.New(opts) }

// NewFencedHandler guards a worker's HTTP surface with a fencing check:
// requests stamped with an epoch below the highest one f has seen are
// rejected with CodeFenced, unstamped requests pass untouched.  Wrap a
// worker's engine handler with this so a restarted coordinator's bumped
// epoch immediately invalidates its predecessor.
func NewFencedHandler(inner http.Handler, f *Fence) http.Handler {
	return engine.FencedHandler(inner, f)
}

// Typed error codes carried in Response.Code by failed requests, in the
// order of the package documentation's error-code table.
const (
	CodeBadRequest   = engine.CodeBadRequest
	CodeUnknownTree  = engine.CodeUnknownTree
	CodeUnknownKey   = engine.CodeUnknownKey
	CodeRetiredEpoch = engine.CodeRetiredEpoch
	CodeOverloaded   = engine.CodeOverloaded
	CodeTimeout      = engine.CodeTimeout
	CodeCanceled     = engine.CodeCanceled
	CodeUnavailable  = engine.CodeUnavailable
	CodeFailed       = engine.CodeFailed
	CodeFenced       = engine.CodeFenced
)

// Request operations served by the engine, covering every consensus query
// family of the paper: top-k (mean/median), set answers (symmetric
// difference and Jaccard), full rankings, clusterings, group-by
// aggregates, SPJ evaluation, the probability primitives, and the
// mutation/conditioning ops that update registered trees in place.
const (
	OpTopKMean           = engine.OpTopKMean
	OpTopKMedian         = engine.OpTopKMedian
	OpRankDist           = engine.OpRankDist
	OpMeanWorld          = engine.OpMeanWorld
	OpMedianWorld        = engine.OpMedianWorld
	OpSizeDist           = engine.OpSizeDist
	OpMembership         = engine.OpMembership
	OpWorldProb          = engine.OpWorldProb
	OpMeanWorldJaccard   = engine.OpMeanWorldJaccard
	OpMedianWorldJaccard = engine.OpMedianWorldJaccard
	OpClusteringMean     = engine.OpClusteringMean
	OpAggregateMean      = engine.OpAggregateMean
	OpAggregateMedian    = engine.OpAggregateMedian
	OpRankingConsensus   = engine.OpRankingConsensus
	OpSPJEval            = engine.OpSPJEval
	OpMutate             = engine.OpMutate
	OpCondition          = engine.OpCondition
)

// Evaluation modes accepted in Request.Mode: the exact generating-function
// backend (the default), the Monte-Carlo sampling backend with an
// (epsilon, delta) error budget, or automatic per-request selection by
// estimated cost.
const (
	ModeExact  = engine.ModeExact
	ModeApprox = engine.ModeApprox
	ModeAuto   = engine.ModeAuto
)
