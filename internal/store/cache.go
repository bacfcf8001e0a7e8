package store

import (
	"container/list"
	"sync"
	"sync/atomic"
	"time"

	"fastinvert/internal/postings"
	"fastinvert/internal/telemetry"
)

// listKey names one decoded list: the run-format file it was read from
// plus its (collection, slot) entry. The file is the ID parseRunFile
// assigns at open, not the *RunFile, so an entry never keeps a closed
// file alive, and a re-merged merged.post or a compacted segment —
// new files, new IDs — never answers from its predecessor's entries.
type listKey struct {
	file uint64
	coll uint32
	slot uint32
}

// ListCache is the byte-budgeted LRU of decoded postings lists, the one
// postings cache of both serving modes. It is read and filled only by
// RunFile.ReadListCtx, so it holds what a file's mapping entries
// decode to: for a live index, the lists of immutable sealed segments,
// which stay valid until a compaction retires the file. Each entry is
// charged its encoded (on-disk) length, at least one byte, so N bytes
// of budget admit what N bytes of index hold whichever codec encoded
// each list.
//
// One mutex guards the map and the LRU; hit and miss counters are
// atomics, readable without it. Cached *postings.List values are
// shared between callers and MUST be treated as immutable.
type ListCache struct {
	maxBytes int64

	mu      sync.Mutex
	entries map[listKey]*list.Element
	lru     list.List // front = most recently used
	bytes   int64

	hits         atomic.Uint64
	misses       atomic.Uint64
	evictions    atomic.Uint64
	evictedBytes atomic.Uint64
}

type cacheEntry struct {
	key   listKey
	list  *postings.List
	size  int64
	added time.Time
}

// CacheStats is a point-in-time snapshot of a ListCache.
type CacheStats struct {
	Hits         uint64
	Misses       uint64
	Evictions    uint64
	EvictedBytes uint64 // encoded bytes charged for evicted entries
	Entries      int
	Bytes        int64 // encoded bytes charged for resident entries
}

// NewListCache builds a cache charging at most maxBytes of encoded
// list bytes. maxBytes <= 0 selects a 32 MiB default; 1 caches, in
// effect, nothing (at most one list that encodes to a single byte).
func NewListCache(maxBytes int64) *ListCache {
	if maxBytes <= 0 {
		maxBytes = 32 << 20
	}
	return &ListCache{maxBytes: maxBytes, entries: make(map[listKey]*list.Element)}
}

// get returns the cached list, marking it most recently used.
func (c *ListCache) get(key listKey) (*postings.List, bool) {
	c.mu.Lock()
	el, ok := c.entries[key]
	if !ok {
		c.mu.Unlock()
		c.misses.Add(1)
		return nil, false
	}
	c.lru.MoveToFront(el)
	l := el.Value.(*cacheEntry).list
	c.mu.Unlock()
	c.hits.Add(1)
	return l, true
}

// put inserts (or refreshes) a list charged size bytes, evicting least
// recently used entries until the cache fits its budget. A size below
// one charges one, so every entry stays accountable to the LRU; a list
// larger than the whole budget is not admitted, since it would flush
// everything else.
func (c *ListCache) put(key listKey, l *postings.List, size int64) {
	if size < 1 {
		size = 1
	}
	if size > c.maxBytes {
		return
	}
	now := time.Now()
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*cacheEntry)
		c.bytes += size - e.size
		e.list, e.size, e.added = l, size, now
		c.lru.MoveToFront(el)
	} else {
		c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, list: l, size: size, added: now})
		c.bytes += size
	}
	evicted, evictedBytes := uint64(0), uint64(0)
	for c.bytes > c.maxBytes {
		back := c.lru.Back()
		e := back.Value.(*cacheEntry)
		c.lru.Remove(back)
		delete(c.entries, e.key)
		c.bytes -= e.size
		evicted++
		evictedBytes += uint64(e.size)
	}
	c.mu.Unlock()
	if evicted > 0 {
		c.evictions.Add(evicted)
		c.evictedBytes.Add(evictedBytes)
	}
}

// purge drops every entry.
func (c *ListCache) purge() {
	c.mu.Lock()
	c.entries = make(map[listKey]*list.Element)
	c.lru.Init()
	c.bytes = 0
	c.mu.Unlock()
}

// Stats snapshots the counters and the occupancy.
func (c *ListCache) Stats() CacheStats {
	st := CacheStats{
		Hits:         c.hits.Load(),
		Misses:       c.misses.Load(),
		Evictions:    c.evictions.Load(),
		EvictedBytes: c.evictedBytes.Load(),
	}
	c.mu.Lock()
	st.Entries, st.Bytes = len(c.entries), c.bytes
	c.mu.Unlock()
	return st
}

// AgeHist buckets every resident entry's age in seconds against
// bounds: a point-in-time snapshot for a func-backed /metrics series,
// taken under the lock at scrape frequency, not query frequency.
func (c *ListCache) AgeHist(bounds []float64) telemetry.HistSnapshot {
	now := time.Now()
	return c.histOver(bounds, func(e *cacheEntry) float64 { return now.Sub(e.added).Seconds() })
}

// SizeHist buckets every resident entry's charged size in bytes, like
// AgeHist.
func (c *ListCache) SizeHist(bounds []float64) telemetry.HistSnapshot {
	return c.histOver(bounds, func(e *cacheEntry) float64 { return float64(e.size) })
}

func (c *ListCache) histOver(bounds []float64, val func(*cacheEntry) float64) telemetry.HistSnapshot {
	snap := telemetry.HistSnapshot{Counts: make([]uint64, len(bounds))}
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.lru.Front(); el != nil; el = el.Next() {
		v := val(el.Value.(*cacheEntry))
		snap.Sum += v
		snap.Count++
		for b, ub := range bounds {
			if v <= ub {
				snap.Counts[b]++
				break
			}
		}
	}
	return snap
}
