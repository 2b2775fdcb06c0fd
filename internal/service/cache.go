package service

import (
	"container/list"
	"sync"
)

// resultStore is a daemon's one store of finished results, keyed by content
// address: the in-memory Cache, or the DiskStore when Config.CacheDir is set.
// halt freezes it for Server.Kill; stats is the /stats cache section.
type resultStore interface {
	Get(key string) ([]byte, bool)
	Put(key string, val []byte)
	halt()
	stats() CacheStats
}

// Cache is a bounded, thread-safe LRU of finished job results, keyed by the
// job's content address (JobSpec.Key). Values are the canonical result
// encodings served verbatim on a hit, which is what makes repeated identical
// submissions byte-identical to the original run. Bounds are dual: an entry
// count and a total-bytes budget; inserting past either evicts from the
// least-recently-used end.
type Cache struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int64

	ll    *list.List // front = most recently used
	items map[string]*list.Element
	bytes int64

	hits, misses, evictions uint64
}

type cacheEntry struct {
	key string
	val []byte
}

// NewCache returns a cache bounded to maxEntries results and maxBytes total
// result bytes. Non-positive bounds fall back to defaults (1024 entries,
// 64 MiB).
func NewCache(maxEntries int, maxBytes int64) *Cache {
	if maxEntries <= 0 {
		maxEntries = 1024
	}
	if maxBytes <= 0 {
		maxBytes = 64 << 20
	}
	return &Cache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		ll:         list.New(),
		items:      make(map[string]*list.Element),
	}
}

// Get returns the cached result for key and marks it most recently used.
// Every call counts as a hit or a miss in Stats.
func (c *Cache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).val, true
}

// Put stores a result, evicting least-recently-used entries as needed to
// respect both bounds. A value larger than the byte budget is not cached.
func (c *Cache) Put(key string, val []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if int64(len(val)) > c.maxBytes {
		return
	}
	if el, ok := c.items[key]; ok {
		ent := el.Value.(*cacheEntry)
		c.bytes += int64(len(val)) - int64(len(ent.val))
		ent.val = val
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(&cacheEntry{key: key, val: val})
		c.bytes += int64(len(val))
	}
	for c.ll.Len() > c.maxEntries || c.bytes > c.maxBytes {
		oldest := c.ll.Back()
		if oldest == nil {
			break
		}
		ent := oldest.Value.(*cacheEntry)
		c.ll.Remove(oldest)
		delete(c.items, ent.key)
		c.bytes -= int64(len(ent.val))
		c.evictions++
	}
}

// CacheStats is the cache section of the /stats endpoint.
type CacheStats struct {
	// Entries and Bytes are the current occupancy.
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
	// MaxEntries and MaxBytes are the configured bounds.
	MaxEntries int   `json:"max_entries"`
	MaxBytes   int64 `json:"max_bytes"`
	// Hits, Misses, and Evictions count Get outcomes and LRU evictions
	// since the daemon started. These are store-level counters: sweep
	// sharding probes the cache once per point, so they run ahead of the
	// job-level CacheHits on ServerStats.
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	// Disk reports the persistent store: nil without -cache-dir, else the
	// only field set.
	Disk *DiskStats `json:"disk,omitempty"`
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:    c.ll.Len(),
		Bytes:      c.bytes,
		MaxEntries: c.maxEntries,
		MaxBytes:   c.maxBytes,
		Hits:       c.hits,
		Misses:     c.misses,
		Evictions:  c.evictions,
	}
}

func (c *Cache) stats() CacheStats { return c.Stats() }

// halt does nothing: memory does not outlive a crash anyway.
func (c *Cache) halt() {}
