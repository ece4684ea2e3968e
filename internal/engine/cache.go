package engine

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"
)

// cache is a size-bounded LRU of computed intermediates with
// singleflight-style deduplication: concurrent get calls for a key whose
// computation is in flight block until the first caller finishes and then
// share its result, so each intermediate is computed at most once per
// cache residency no matter how many clients ask for it concurrently.
type cache struct {
	mu    sync.Mutex
	cap   int                      // max resident entries; <= 0 disables caching
	ll    *list.List               // front = most recently used
	items map[string]*list.Element // key -> element holding *cacheEntry

	computes atomic.Int64 // compute invocations (misses)
	hits     atomic.Int64 // lookups served by a resident or in-flight entry
}

type cacheEntry struct {
	key   string
	ready chan struct{} // closed once val/err are set
	val   any
	err   error
}

func newCache(capacity int) *cache {
	return &cache{cap: capacity, ll: list.New(), items: make(map[string]*list.Element)}
}

// get returns the value for key, invoking compute on a miss.  Errors are
// not cached: a failed entry is dropped so a later call can retry.
func (c *cache) get(key string, compute func() (any, error)) (any, error) {
	if c.cap <= 0 {
		c.computes.Add(1)
		return compute()
	}
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*cacheEntry)
		c.mu.Unlock()
		c.hits.Add(1)
		<-e.ready
		return e.val, e.err
	}
	e := &cacheEntry{key: key, ready: make(chan struct{})}
	el := c.ll.PushFront(e)
	c.items[key] = el
	c.evictLocked()
	c.mu.Unlock()

	c.computes.Add(1)
	completed := false
	defer func() {
		// Closing ready (and dropping failed entries) must survive a
		// panicking compute — otherwise every waiter on this key blocks
		// forever, each holding a worker-pool slot, and the engine wedges.
		if !completed {
			e.err = fmt.Errorf("engine: computing cache entry %q panicked", key)
		}
		close(e.ready)
		if e.err != nil {
			c.mu.Lock()
			if cur, ok := c.items[key]; ok && cur == el {
				c.ll.Remove(el)
				delete(c.items, key)
			}
			c.mu.Unlock()
		}
	}()
	e.val, e.err = compute()
	completed = true
	return e.val, e.err
}

// evictLocked drops least-recently-used ready entries until the cache fits
// its capacity.  In-flight entries are skipped (their waiters hold the
// entry), allowing a temporary overshoot when everything is in flight.
func (c *cache) evictLocked() {
	for c.ll.Len() > c.cap {
		var victim *list.Element
		for el := c.ll.Back(); el != nil; el = el.Prev() {
			e := el.Value.(*cacheEntry)
			select {
			case <-e.ready:
				victim = el
			default:
				continue
			}
			break
		}
		if victim == nil {
			return
		}
		delete(c.items, victim.Value.(*cacheEntry).key)
		c.ll.Remove(victim)
	}
}

// add inserts an already-computed value under key, replacing any resident
// entry.  The mutation path uses it to seed a new epoch's namespace with a
// re-derived intermediate; the inserted entry is born ready, so later
// get/peek calls hit immediately.
func (c *cache) add(key string, val any) {
	if c.cap <= 0 {
		return
	}
	e := &cacheEntry{key: key, ready: make(chan struct{}), val: val}
	close(e.ready)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		// Existing waiters (if the entry was in flight) still hold it
		// directly and get the original result; the index now serves the
		// fresh value.
		c.ll.Remove(el)
		delete(c.items, key)
	}
	c.items[key] = c.ll.PushFront(e)
	c.evictLocked()
}

// peek returns the value for key only if it is resident and ready; it
// never computes or blocks, and counts no hit: a caller that serves a
// lookup from the value counts it (see ranksAtLeast), while a residency
// check is not a lookup.
func (c *cache) peek(key string) (any, bool) {
	if c.cap <= 0 {
		return nil, false
	}
	c.mu.Lock()
	el, ok := c.items[key]
	if !ok {
		c.mu.Unlock()
		return nil, false
	}
	e := el.Value.(*cacheEntry)
	select {
	case <-e.ready:
	default:
		c.mu.Unlock()
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.mu.Unlock()
	if e.err != nil {
		return nil, false
	}
	return e.val, true
}

// removePrefix drops every entry whose key starts with prefix (used when a
// tree is unregistered or replaced, so its dead intermediates stop
// occupying LRU slots).  In-flight entries are removed from the index too:
// their waiters hold the entry directly and still get the result.
func (c *cache) removePrefix(prefix string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, el := range c.items {
		if len(key) >= len(prefix) && key[:len(prefix)] == prefix {
			delete(c.items, key)
			c.ll.Remove(el)
		}
	}
}

// len returns the number of resident entries.
func (c *cache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
