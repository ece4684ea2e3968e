// Package distrib is the distributed serving tier: a coordinator that
// shards the consensus engine's registered trees across worker processes
// behind the same engine.Service interface — and therefore the same
// HTTP/JSON surface — the single-process engine exposes.
//
// The coordinator owns consistent-hash placement (virtual-node ring,
// replica fan-out >= 2) and keeps an authoritative serialized snapshot
// of every registered tree.  Reads route to one replica with per-attempt
// timeouts, bounded retries on retryable error codes and one tail-hedged
// duplicate; mutations fan out to every replica at once, serialized per
// tree, while the coordinator applies the same updates to its own parsed
// copy and serializes it as the new snapshot, so a crashed worker is
// later restored bit-identically.  Admission control
// prices every request by its op's cost class (the doc.go op table's
// complexity column quantized to four weights) and sheds with
// CodeOverloaded instead of queueing.
//
// Workers are plain single-process engines serving engine.NewHandler —
// the internal RPC boundary is the public HTTP/JSON API, so the protocol
// is already versioned, fuzzed and documented.  A worker that restarts
// empty is healed on the next touch: any unknown_tree answer for a tree
// the coordinator owns triggers a snapshot push and one retry, and the
// background health prober restores every shard of a worker that
// transitions dead -> alive.
//
// See docs/ARCHITECTURE.md ("Distributed tier") for the full routing and
// recovery story, and cmd/consensusctl for the `coordinator` and
// `worker` subcommands that wrap this package.
package distrib
