package array

import (
	"container/list"
	"sync"
)

// DefaultChunkCacheBytes is the byte budget of the process-wide shared
// chunk cache: large enough to hold the working set of the experiment
// workloads many times over, small enough to bound a server's memory
// under scans of larger-than-memory arrays.
const DefaultChunkCacheBytes = 64 << 20

// cacheKey identifies one chunk payload globally: the storage back-end
// it came from, the array within that back-end, and the chunk number.
// Back-ends are compared by interface identity, so two stores never
// collide even when their array IDs do.
type cacheKey struct {
	src     ChunkSource
	arrayID int64
	chunkNo int
}

type cacheEntry struct {
	key  cacheKey
	data []byte
}

// flight is one in-progress back-end fetch of a chunk. Concurrent
// readers of an uncached chunk coalesce onto the first claimant's
// flight instead of issuing duplicate reads (singleflight); done is
// closed when the payload (or the claimant's error) is available.
type flight struct {
	done chan struct{}
	data []byte
	err  error
}

// ChunkCacheStats is a snapshot of a cache's counters.
type ChunkCacheStats struct {
	Hits      int64 // lookups served from cache
	Misses    int64 // lookups that claimed a back-end fetch
	Coalesced int64 // lookups that joined another reader's in-flight fetch
	Evictions int64 // entries evicted to honor the budget
	Entries   int64 // chunks currently cached
	Bytes     int64 // payload bytes currently cached
	PeakBytes int64 // high-water mark of cached payload bytes
	Budget    int64 // byte budget (0 = unlimited)
}

// ChunkCache is a memory-budgeted LRU cache of chunk payloads shared
// by every array proxy in the process, keyed by (back-end, arrayID,
// chunkNo). Hits refresh recency; inserts evict from the cold end
// until the byte budget is honored again, so the cached bytes never
// exceed the budget. It also carries the singleflight registry that
// deduplicates concurrent fetches of the same chunk.
//
// All payloads are immutable once cached; callers must treat returned
// slices as read-only.
type ChunkCache struct {
	mu       sync.Mutex
	maxBytes int64 // 0 = unlimited
	used     int64
	peak     int64
	ll       *list.List // front = most recently used
	entries  map[cacheKey]*list.Element
	inflight map[cacheKey]*flight

	hits, misses, coalesced, evictions int64
}

// NewChunkCache creates a cache bounded to budgetBytes of payload
// (<= 0 means unlimited).
func NewChunkCache(budgetBytes int64) *ChunkCache {
	if budgetBytes < 0 {
		budgetBytes = 0
	}
	return &ChunkCache{
		maxBytes: budgetBytes,
		ll:       list.New(),
		entries:  make(map[cacheKey]*list.Element),
		inflight: make(map[cacheKey]*flight),
	}
}

// sharedChunkCache is the process-wide default every proxy with a nil
// Cache uses.
var sharedChunkCache = NewChunkCache(DefaultChunkCacheBytes)

// SharedChunkCache returns the process-wide chunk cache.
func SharedChunkCache() *ChunkCache { return sharedChunkCache }

// SetBudget changes the byte budget (<= 0 means unlimited), evicting
// immediately if the cache is over the new budget.
func (c *ChunkCache) SetBudget(budgetBytes int64) {
	if budgetBytes < 0 {
		budgetBytes = 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.maxBytes = budgetBytes
	c.evictLocked()
}

// Budget returns the current byte budget (0 = unlimited).
func (c *ChunkCache) Budget() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.maxBytes
}

// Stats returns a consistent snapshot of the counters.
func (c *ChunkCache) Stats() ChunkCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return ChunkCacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Coalesced: c.coalesced,
		Evictions: c.evictions,
		Entries:   int64(len(c.entries)),
		Bytes:     c.used,
		PeakBytes: c.peak,
		Budget:    c.maxBytes,
	}
}

// Reset discards every entry and zeroes the counters (in-flight
// fetches are unaffected). Benchmarks use it between configurations.
func (c *ChunkCache) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	c.entries = make(map[cacheKey]*list.Element)
	c.used, c.peak = 0, 0
	c.hits, c.misses, c.coalesced, c.evictions = 0, 0, 0, 0
}

// evictLocked drops cold entries until the budget is honored.
func (c *ChunkCache) evictLocked() {
	for c.maxBytes > 0 && c.used > c.maxBytes {
		el := c.ll.Back()
		if el == nil {
			return
		}
		e := el.Value.(*cacheEntry)
		c.ll.Remove(el)
		delete(c.entries, e.key)
		c.used -= int64(len(e.data))
		c.evictions++
	}
}

// insertLocked caches a payload (keeping any existing entry) and
// evicts to budget. The peak gauge is updated after eviction, so it
// reports the bytes the cache actually retained.
func (c *ChunkCache) insertLocked(k cacheKey, data []byte) {
	if el, ok := c.entries[k]; ok {
		c.ll.MoveToFront(el)
		return
	}
	el := c.ll.PushFront(&cacheEntry{key: k, data: data})
	c.entries[k] = el
	c.used += int64(len(data))
	c.evictLocked()
	if c.used > c.peak {
		c.peak = c.used
	}
}

// lookupOrClaim is the heart of the cache's read path. Exactly one of
// the three outcomes holds:
//
//   - data != nil: cache hit (recency refreshed);
//   - fl != nil, claimed == false: another reader is already fetching
//     this chunk — wait on fl.done;
//   - fl != nil, claimed == true: the caller owns the fetch and must
//     finish it with resolve or fail, or waiters hang.
func (c *ChunkCache) lookupOrClaim(k cacheKey) (data []byte, fl *flight, claimed bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		c.hits++
		c.ll.MoveToFront(el)
		return el.Value.(*cacheEntry).data, nil, false
	}
	if fl, ok := c.inflight[k]; ok {
		c.coalesced++
		return nil, fl, false
	}
	c.misses++
	fl = &flight{done: make(chan struct{})}
	c.inflight[k] = fl
	return nil, fl, true
}

// peek reports whether the chunk is cached without claiming a fetch or
// touching the counters or recency (diagnostics).
func (c *ChunkCache) peek(k cacheKey) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[k]
	return ok
}

// resolve completes a claimed fetch: the payload enters the cache and
// every coalesced waiter is released.
func (c *ChunkCache) resolve(k cacheKey, fl *flight, data []byte) {
	c.mu.Lock()
	c.insertLocked(k, data)
	if c.inflight[k] == fl {
		delete(c.inflight, k)
	}
	c.mu.Unlock()
	fl.data = data
	close(fl.done)
}

// fail completes a claimed fetch with an error. Waiters observe the
// error and retry the fetch themselves, so one reader's cancellation
// cannot poison another reader's query.
func (c *ChunkCache) fail(k cacheKey, fl *flight, err error) {
	c.mu.Lock()
	if c.inflight[k] == fl {
		delete(c.inflight, k)
	}
	c.mu.Unlock()
	fl.err = err
	close(fl.done)
}

// purge drops every cached chunk of one array (the per-proxy
// DropCache surface).
func (c *ChunkCache) purge(src ChunkSource, arrayID int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, el := range c.entries {
		if k.src == src && k.arrayID == arrayID {
			c.ll.Remove(el)
			delete(c.entries, k)
			c.used -= int64(len(el.Value.(*cacheEntry).data))
		}
	}
}

// countFor reports how many chunks of one array are cached.
func (c *ChunkCache) countFor(src ChunkSource, arrayID int64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for k := range c.entries {
		if k.src == src && k.arrayID == arrayID {
			n++
		}
	}
	return n
}
