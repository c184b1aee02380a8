package plan

import (
	"container/list"
	"sync"
	"sync/atomic"

	"dualsim/internal/obs"
)

// Plans are safe to share: Prepare builds every field (groups, forests,
// matching order) before returning, and execution reads them without
// mutation — the engine keeps all per-run state in its own run struct. The
// cache below relies on this, handing one *Plan to many concurrent runs.

// Cache is a bounded LRU of prepared plans, keyed by a canonical form of the
// query graph (graph.CanonicalCode) so every member of an isomorphism class
// shares one entry and repeated queries skip Prepare entirely. All methods
// are safe for concurrent use.
type Cache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*list.Element
	lru     *list.List // front = most recently used
	flight  map[string]*flightCall

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
	shared    atomic.Uint64
}

// flightCall tracks one in-progress plan build; concurrent misses on the
// same key wait on done instead of building their own copy.
type flightCall struct {
	done chan struct{}
	plan *Plan
	err  error
}

type cacheEntry struct {
	key  string
	plan *Plan
}

// NewCache returns a cache holding at most capacity plans (minimum 1).
func NewCache(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache{
		cap:     capacity,
		entries: make(map[string]*list.Element),
		lru:     list.New(),
		flight:  make(map[string]*flightCall),
	}
}

// GetOrBuild returns the cached plan for key, or builds it with build and
// caches the result. Concurrent calls for the same key are collapsed into
// one build (singleflight): the first caller runs build, the rest block on
// its outcome. The bool reports whether THIS caller ran build (false for
// cache hits and flight waiters). A failed build is not cached — waiters
// receive the error and the next call retries. build runs without the
// cache lock held, so distinct keys build in parallel.
func (c *Cache) GetOrBuild(key string, build func() (*Plan, error)) (*Plan, bool, error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		c.hits.Add(1)
		c.mu.Unlock()
		return el.Value.(*cacheEntry).plan, false, nil
	}
	if fc, ok := c.flight[key]; ok {
		c.shared.Add(1)
		c.mu.Unlock()
		<-fc.done
		return fc.plan, false, fc.err
	}
	c.misses.Add(1)
	fc := &flightCall{done: make(chan struct{})}
	c.flight[key] = fc
	c.mu.Unlock()

	// The entry goes in before the flight comes out, so a lookup in between
	// finds one of them and never builds the plan a second time.
	fc.plan, fc.err = build()
	if fc.err == nil {
		c.Put(key, fc.plan)
	}
	c.mu.Lock()
	delete(c.flight, key)
	c.mu.Unlock()
	close(fc.done)
	if fc.err != nil {
		return nil, true, fc.err
	}
	return fc.plan, true, nil
}

// Get returns the cached plan for key, marking it most recently used.
func (c *Cache) Get(key string) (*Plan, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.lru.MoveToFront(el)
	c.hits.Add(1)
	return el.Value.(*cacheEntry).plan, true
}

// Put stores p under key, evicting the least recently used entry when full.
// Storing an existing key refreshes its plan and recency.
func (c *Cache) Put(key string, p *Plan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).plan = p
		c.lru.MoveToFront(el)
		return
	}
	for c.lru.Len() >= c.cap {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
		c.evictions.Add(1)
	}
	c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, plan: p})
}

// Len returns the number of cached plans.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// CacheStats is a point-in-time copy of the cache's counters.
type CacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	// Shared counts lookups that piggybacked on another caller's
	// in-flight build instead of running Prepare themselves.
	Shared   uint64 `json:"shared"`
	Size     int    `json:"size"`
	Capacity int    `json:"capacity"`
}

// Stats returns the cache's counters.
func (c *Cache) Stats() CacheStats {
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Shared:    c.shared.Load(),
		Size:      c.Len(),
		Capacity:  c.cap,
	}
}

// Register exports the cache through reg as the dualsim_plan_cache_* family
// (hits, misses, evictions, size, hit ratio).
func (c *Cache) Register(reg *obs.Registry) {
	reg.CounterFunc("dualsim_plan_cache_hits_total", "plan cache lookups that skipped Prepare", c.hits.Load)
	reg.CounterFunc("dualsim_plan_cache_misses_total", "plan cache lookups that ran Prepare", c.misses.Load)
	reg.CounterFunc("dualsim_plan_cache_evictions_total", "plans evicted by the LRU bound", c.evictions.Load)
	reg.CounterFunc("dualsim_plan_cache_shared_builds_total",
		"plan lookups that joined another caller's in-flight Prepare (singleflight)", c.shared.Load)
	reg.GaugeFunc("dualsim_plan_cache_size", "plans currently cached", func() float64 {
		return float64(c.Len())
	})
	reg.GaugeFunc("dualsim_plan_cache_hit_ratio", "plan cache hits / lookups", func() float64 {
		h, m := c.hits.Load(), c.misses.Load()
		if h+m == 0 {
			return 0
		}
		return float64(h) / float64(h+m)
	})
}
