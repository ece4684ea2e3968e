package distrib

// Startup recovery.  A durable coordinator's registry is rebuilt in two
// steps: restoreShards seeds the in-memory shard table from the replayed
// write-ahead log, then reconcile compares that table against the live
// fleet and repairs both directions — worker-held trees the log never
// saw are adopted as new shards (cold start against a live fleet, or a
// log lost to disk failure), and replicas missing a tree or holding a
// diverged copy get the authoritative snapshot re-pushed (a worker that
// applied half of an unacknowledged mutation fan-out rolls back to the
// last acknowledged state).  Adoption runs first so the repair pass also
// covers the replicas of freshly adopted shards.
//
// Every RPC reconcile issues is stamped with the new fencing epoch, so
// merely reconciling teaches the fleet that the previous coordinator
// incarnation is stale.

import (
	"bytes"
	"context"
	"sort"

	"consensus/internal/andxor"
)

// restoreShards seeds the shard table from recovered durable state.
// Only called from New, before the coordinator serves anything.
func (c *Coordinator) restoreShards(st durableState) {
	for name, ds := range st.Shards {
		sh := &shard{name: name}
		sh.replicas = c.ring.replicas(name, c.replication)
		sh.epoch = ds.Epoch
		sh.setSnapshot(ds.Tree, nil, ds.Epoch)
		c.shards[name] = sh
	}
}

// reconcile polls every member's /v1/trees and repairs the cluster
// against the recovered registry: adopt first, then re-push where
// workers lag.  Unreachable workers are skipped (and marked dead);
// restore-on-rejoin covers them when they come back.
func (c *Coordinator) reconcile(ctx context.Context) {
	c.mu.RLock()
	addrs := c.memberAddrs()
	c.mu.RUnlock()

	held := make(map[string][]string, len(addrs))
	for _, addr := range addrs {
		actx, cancel := c.attemptCtx(ctx)
		names, err := c.wc.listTrees(actx, addr)
		cancel()
		c.noteOutcome(addr, err)
		if err != nil {
			continue
		}
		held[addr] = names
	}

	// Adopt worker-held trees the log never saw.
	for _, addr := range addrs {
		for _, name := range held[addr] {
			c.mu.RLock()
			_, known := c.shards[name]
			c.mu.RUnlock()
			if known {
				continue
			}
			actx, cancel := c.attemptCtx(ctx)
			snap, err := c.wc.getTree(actx, addr, name)
			cancel()
			c.noteOutcome(addr, err)
			if err != nil {
				continue
			}
			c.adoptShard(ctx, name, snap)
		}
	}

	// Re-push authoritative snapshots where replicas lag: missing trees
	// and diverged bytes alike (a half-applied mutation fan-out the log
	// never acknowledged rolls back here).
	c.mu.RLock()
	shards := make([]*shard, 0, len(c.shards))
	for _, sh := range c.shards {
		shards = append(shards, sh)
	}
	c.mu.RUnlock()
	sort.Slice(shards, func(i, j int) bool { return shards[i].name < shards[j].name })
	for _, sh := range shards {
		sh.rw.Lock()
		want := bytes.TrimSpace(sh.getSnapshot())
		for _, addr := range sh.replicas {
			if _, reachable := held[addr]; !reachable {
				continue
			}
			actx, cancel := c.attemptCtx(ctx)
			have, err := c.wc.getTree(actx, addr, sh.name)
			cancel()
			// The worker serializes through its HTTP encoder (trailing
			// newline), the registrar through json.Marshal: compare the
			// trimmed bytes, not the raw frames.
			if err != nil || !bytes.Equal(bytes.TrimSpace(have), want) {
				_ = c.pushSnapshot(ctx, addr, sh)
			}
		}
		sh.rw.Unlock()
	}
}

// adoptShard registers a worker-held tree the log never saw, with the
// worker's bytes as the authoritative snapshot at mutation epoch 0, and
// seeds its ring replicas.
func (c *Coordinator) adoptShard(ctx context.Context, name string, snap []byte) {
	snap = bytes.TrimSpace(snap)
	if _, err := andxor.UnmarshalTree(snap); err != nil {
		return // not a tree this build understands; leave it alone
	}
	c.mu.Lock()
	if _, ok := c.shards[name]; ok {
		c.mu.Unlock()
		return
	}
	sh := &shard{name: name}
	sh.replicas = c.ring.replicas(name, c.replication)
	sh.setSnapshot(snap, nil, 0)
	c.shards[name] = sh
	c.mu.Unlock()
	_ = c.wal.append(walRecord{Kind: recRegister, Name: name, Tree: snap})
}
