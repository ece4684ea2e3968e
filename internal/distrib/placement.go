package distrib

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// defaultVNodes is the number of virtual ring points per worker.  Enough
// points smooth the per-worker share of the keyspace to within a few
// percent while keeping ring rebuilds (a sort of members x vnodes
// points) trivially cheap at cluster sizes this tier targets.
const defaultVNodes = 64

// ring is a consistent-hash ring over worker addresses.  Each worker
// contributes defaultVNodes points; a tree name hashes to a ring position and
// its replicas are the next distinct workers clockwise.  The ring is
// immutable once built — membership changes build a fresh ring — so
// readers never lock.
type ring struct {
	points []ringPoint // sorted ascending by hash
}

type ringPoint struct {
	hash uint64
	addr string
}

// hash64 is the ring's point/key hash: FNV-1a (deterministic across
// processes and platforms, so coordinator restarts recompute identical
// placements) followed by a finalizing mix.  Raw FNV-1a avalanches too
// weakly for ring placement — worker addresses differing in one middle
// digit ("…:40001#7" vs "…:40002#7") land in contiguous hash runs, which
// collapses the "next distinct workers clockwise" walk into a fixed
// pecking order instead of an even spread.
func hash64(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	return mix64(h.Sum64())
}

// mix64 is the splitmix64 finalizer: a bijective avalanche so that
// near-identical inputs scatter uniformly around the ring.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// buildRing builds a ring over the given worker addresses with
// defaultVNodes virtual points each.
func buildRing(addrs []string) *ring {
	r := &ring{points: make([]ringPoint, 0, len(addrs)*defaultVNodes)}
	for _, addr := range addrs {
		for i := 0; i < defaultVNodes; i++ {
			r.points = append(r.points, ringPoint{hash: hash64(addr + "#" + strconv.Itoa(i)), addr: addr})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Tie-break by address so placement stays deterministic even on
		// (astronomically unlikely) 64-bit point collisions.
		return r.points[i].addr < r.points[j].addr
	})
	return r
}

// replicas returns the n distinct workers owning key, primary first:
// the first n distinct addresses clockwise from the key's ring position.
// Fewer than n workers yields every worker.
func (r *ring) replicas(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	start := sort.Search(len(r.points), func(i int) bool {
		return r.points[i].hash >= hash64(key)
	})
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.addr] {
			seen[p.addr] = true
			out = append(out, p.addr)
		}
	}
	return out
}
