package serve

import (
	"container/list"
	"encoding/binary"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/geom"
)

// EstimateCache is the serving layer's estimate memo: a bounded LRU from
// (model name, registry generation, canonical query bytes) to the
// estimate the model of that generation produced.
//
// Keying by generation is what makes invalidation free and exact: a
// hot-swap bumps the registry generation, so every lookup after the swap
// misses by construction — an estimate computed by an old model can never
// be served against a new one. Stale-generation entries are not purged
// eagerly; they fall off the LRU tail under new traffic, which keeps the
// swap path O(1) and lock-free for readers of the registry.
//
// The mutex guards only map/list pointer updates (no I/O, no estimation
// work is ever done under it — the lockheld analyzer gates this), so the
// cache stays cheap even under heavy contention.
type EstimateCache struct {
	mu      sync.Mutex
	cap     int
	ll      *list.List // front = most recently used; elements hold *cacheEntry
	entries map[cacheKey]*list.Element

	hits   atomic.Int64
	misses atomic.Int64
}

type cacheKey struct {
	model string
	gen   int64
	query string // canonical query bytes (QueryKey)
}

type cacheEntry struct {
	key cacheKey
	val float64
}

// NewEstimateCache returns a cache bounded to capacity entries.
// Capacity must be positive.
func NewEstimateCache(capacity int) *EstimateCache {
	if capacity <= 0 {
		panic("serve: EstimateCache capacity must be positive")
	}
	return &EstimateCache{
		cap:     capacity,
		ll:      list.New(),
		entries: make(map[cacheKey]*list.Element, capacity),
	}
}

// Get returns the cached estimate for the query under the given model
// generation, updating the hit/miss counters and LRU order.
func (c *EstimateCache) Get(model string, gen int64, query string) (float64, bool) {
	k := cacheKey{model: model, gen: gen, query: query}
	c.mu.Lock()
	el, ok := c.entries[k]
	var v float64
	if ok {
		c.ll.MoveToFront(el)
		v = el.Value.(*cacheEntry).val // Put may overwrite it under mu
	}
	c.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return 0, false
	}
	c.hits.Add(1)
	return v, true
}

// Put records an estimate for the query under the given model generation,
// evicting the least recently used entry when full.
func (c *EstimateCache) Put(model string, gen int64, query string, v float64) {
	k := cacheKey{model: model, gen: gen, query: query}
	c.mu.Lock()
	if el, ok := c.entries[k]; ok {
		el.Value.(*cacheEntry).val = v
		c.ll.MoveToFront(el)
		c.mu.Unlock()
		return
	}
	if c.ll.Len() >= c.cap {
		tail := c.ll.Back()
		c.ll.Remove(tail)
		delete(c.entries, tail.Value.(*cacheEntry).key)
	}
	c.entries[k] = c.ll.PushFront(&cacheEntry{key: k, val: v})
	c.mu.Unlock()
}

// Len returns the current number of cached entries.
func (c *EstimateCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// estimateCacheStatus is the /statz block for the estimate cache.
type estimateCacheStatus struct {
	Size     int   `json:"size"`
	Capacity int   `json:"capacity"`
	Hits     int64 `json:"hits"`
	Misses   int64 `json:"misses"`
}

func (c *EstimateCache) status() estimateCacheStatus {
	return estimateCacheStatus{
		Size:     c.Len(),
		Capacity: c.cap,
		Hits:     c.hits.Load(),
		Misses:   c.misses.Load(),
	}
}

// QueryKey canonicalizes a query range into compact bytes for cache
// keying: a one-byte class tag followed by the raw IEEE-754 bits of the
// defining coordinates. Two wire queries that parse to the same geometry
// always map to the same key regardless of JSON formatting. Pointer and
// value forms of the same geometry produce identical keys — the
// zero-allocation wire decoder passes pointers into pooled arenas, while
// tests and embedders pass values. Ranges outside the three wire classes
// report ok=false and bypass the cache.
func QueryKey(r geom.Range) (string, bool) {
	switch q := r.(type) {
	case geom.Box:
		return boxKey(q), true
	case *geom.Box:
		return boxKey(*q), true
	case geom.Halfspace:
		return halfspaceKey(q), true
	case *geom.Halfspace:
		return halfspaceKey(*q), true
	case geom.Ball:
		return ballKey(q), true
	case *geom.Ball:
		return ballKey(*q), true
	}
	return "", false
}

func boxKey(q geom.Box) string {
	buf := make([]byte, 0, 1+16*len(q.Lo))
	buf = append(buf, 'b')
	buf = appendFloats(buf, q.Lo)
	buf = appendFloats(buf, q.Hi)
	return string(buf)
}

func halfspaceKey(q geom.Halfspace) string {
	buf := make([]byte, 0, 1+8*len(q.A)+8)
	buf = append(buf, 'h')
	buf = appendFloats(buf, q.A)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(q.B))
	return string(buf)
}

func ballKey(q geom.Ball) string {
	buf := make([]byte, 0, 1+8*len(q.Center)+8)
	buf = append(buf, 'c')
	buf = appendFloats(buf, q.Center)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(q.Radius))
	return string(buf)
}

func appendFloats(buf []byte, p geom.Point) []byte {
	for _, v := range p {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}
