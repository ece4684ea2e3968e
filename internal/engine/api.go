package engine

// The serving API is one interface, Service.  A single-process Engine
// implements it directly; the distributed tier implements it on the
// coordinator, which keeps the authoritative registry and placement and
// forwards queries over the internal RPC boundary to workers, each of
// which runs a full Engine for its shard.  Handler code is written
// against Service, so the same HTTP surface fronts either deployment.

import (
	"context"

	"consensus/internal/andxor"
)

// Service is a full consensus-serving endpoint: the registry (tree
// ownership, naming, stats) and the dispatch of validated requests.
// NewHandler serves any Service over HTTP/JSON, so the single-process
// engine and the distributed coordinator expose byte-identical APIs.
// All methods must be safe for concurrent use.
type Service interface {
	// Register makes t queryable under name, replacing any previous tree
	// of that name (and invalidating whatever state the previous
	// registration accumulated — caches, compiled kernels, placement).
	Register(name string, t *andxor.Tree) error
	// Unregister removes name and reports whether it was registered.
	Unregister(name string) bool
	// Tree returns a snapshot of the tree registered under name: either
	// the immutable registered tree itself or a private deep copy, never
	// a tree the service may concurrently rewrite.
	Tree(name string) (*andxor.Tree, bool)
	// Trees returns the registered names, sorted.
	Trees() []string
	// Stats returns a snapshot of service activity.
	Stats() Stats

	// QueryContext executes one request, honoring ctx cancellation.  It
	// never returns a partial answer: the response carries either the
	// answer fields of its op or an Error plus Code.
	QueryContext(ctx context.Context, req Request) Response
	// DoContext executes a batch, returning responses in request order.
	DoContext(ctx context.Context, reqs []Request) []Response
}

var _ Service = (*Engine)(nil)
