package distrib

import (
	"fmt"
	"reflect"
	"testing"
)

func testAddrs(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("http://127.0.0.1:%d", 40001+i)
	}
	return out
}

// TestRingDeterministic pins that placement is a pure function of the
// membership: a rebuilt ring places every key identically.
func TestRingDeterministic(t *testing.T) {
	addrs := testAddrs(5)
	a := buildRing(addrs)
	b := buildRing(append([]string(nil), addrs...))
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("tree%d", i)
		if ra, rb := a.replicas(key, 3), b.replicas(key, 3); !reflect.DeepEqual(ra, rb) {
			t.Fatalf("key %s: %v vs %v", key, ra, rb)
		}
	}
}

// TestRingReplicasDistinct pins the fan-out contract: n replicas are n
// distinct workers, clamped to the cluster size.
func TestRingReplicasDistinct(t *testing.T) {
	r := buildRing(testAddrs(3))
	for i := 0; i < 50; i++ {
		reps := r.replicas(fmt.Sprintf("tree%d", i), 2)
		if len(reps) != 2 || reps[0] == reps[1] {
			t.Fatalf("replicas = %v, want 2 distinct", reps)
		}
	}
	if got := r.replicas("anything", 7); len(got) != 3 {
		t.Fatalf("over-asking yields %d replicas, want the whole cluster (3)", len(got))
	}
}

// TestRingSpread pins that the virtual-node hashing actually spreads
// keys: over many keys, every worker takes a non-trivial share of the
// primaries and no worker sits in every replica set.  (Raw FNV-1a
// without the finalizing mix fails this: similar addresses hash into
// contiguous runs and one worker ends up in every pair.)
func TestRingSpread(t *testing.T) {
	addrs := testAddrs(3)
	r := buildRing(addrs)
	const keys = 600
	primaries := make(map[string]int)
	excluded := make(map[string]int)
	for i := 0; i < keys; i++ {
		reps := r.replicas(fmt.Sprintf("tree%d", i), 2)
		primaries[reps[0]]++
		in := map[string]bool{reps[0]: true, reps[1]: true}
		for _, a := range addrs {
			if !in[a] {
				excluded[a]++
			}
		}
	}
	for _, a := range addrs {
		if primaries[a] < keys/10 {
			t.Errorf("worker %s is primary for only %d/%d keys", a, primaries[a], keys)
		}
		if excluded[a] < keys/10 {
			t.Errorf("worker %s is excluded from only %d/%d replica sets; it rides every placement", a, excluded[a], keys)
		}
	}
}

// TestRingStability pins consistent hashing's point: adding one worker
// must not reshuffle placements wholesale — most keys keep their
// primary.
func TestRingStability(t *testing.T) {
	addrs := testAddrs(4)
	before := buildRing(addrs[:3])
	after := buildRing(addrs)
	const keys = 600
	moved := 0
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("tree%d", i)
		if before.replicas(key, 1)[0] != after.replicas(key, 1)[0] {
			moved++
		}
	}
	// Ideal move fraction is 1/4; flag anything past 1/2 as a reshuffle.
	if moved > keys/2 {
		t.Errorf("%d/%d primaries moved on a single join; consistent hashing should move ~1/4", moved, keys)
	}
	if moved == 0 {
		t.Errorf("no primaries moved on join; the new worker got no share")
	}
}
