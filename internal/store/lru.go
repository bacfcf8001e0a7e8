package store

import (
	"container/list"
	"sync"
	"sync/atomic"

	"fastinvert/internal/postings"
)

// listKey identifies one decoded postings list in the reader cache:
// the open file it was read from plus the (collection, slot) pair. A
// re-merged merged.post is a new RunFile, so lists cached from the
// file it replaced can never answer for it.
type listKey struct {
	file *RunFile
	coll uint32
	slot uint32
}

// listCache is the reader-level byte-budgeted LRU of decoded postings
// lists. Together with the lazy per-list reads it bounds the reader's
// resident set: tables are O(terms) metadata, and decoded postings
// never exceed the cache budget plus the single list in flight.
//
// Cached *postings.List values are shared between callers and MUST be
// treated as immutable.
type listCache struct {
	maxBytes int64

	mu      sync.Mutex
	entries map[listKey]*list.Element
	lru     list.List // front = most recently used
	bytes   int64

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

type listCacheEntry struct {
	key  listKey
	list *postings.List
	size int64
}

// newListCache builds a cache holding at most maxBytes of decoded
// postings. maxBytes <= 0 selects the 32 MiB default; pass 1 to
// effectively disable caching (every list is larger than the budget).
func newListCache(maxBytes int64) *listCache {
	if maxBytes <= 0 {
		maxBytes = 32 << 20
	}
	return &listCache{
		maxBytes: maxBytes,
		entries:  make(map[listKey]*list.Element),
	}
}

// get returns the cached list, marking it most recently used.
func (c *listCache) get(key listKey) (*postings.List, bool) {
	c.mu.Lock()
	el, ok := c.entries[key]
	if !ok {
		c.mu.Unlock()
		c.misses.Add(1)
		return nil, false
	}
	c.lru.MoveToFront(el)
	l := el.Value.(*listCacheEntry).list
	c.mu.Unlock()
	c.hits.Add(1)
	return l, true
}

// put inserts (or refreshes) a decoded list, evicting least recently
// used entries until the cache fits its byte budget. Lists larger than
// the whole budget are not admitted.
func (c *listCache) put(key listKey, l *postings.List) {
	size := listSizeBytes(l)
	if size > c.maxBytes {
		return
	}
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*listCacheEntry)
		c.bytes += size - e.size
		e.list, e.size = l, size
		c.lru.MoveToFront(el)
	} else {
		c.entries[key] = c.lru.PushFront(&listCacheEntry{key: key, list: l, size: size})
		c.bytes += size
	}
	evicted := uint64(0)
	for c.bytes > c.maxBytes {
		back := c.lru.Back()
		e := back.Value.(*listCacheEntry)
		c.lru.Remove(back)
		delete(c.entries, e.key)
		c.bytes -= e.size
		evicted++
	}
	c.mu.Unlock()
	if evicted > 0 {
		c.evictions.Add(evicted)
	}
}

// purge drops every entry (Close).
func (c *listCache) purge() {
	c.mu.Lock()
	c.entries = make(map[listKey]*list.Element)
	c.lru.Init()
	c.bytes = 0
	c.mu.Unlock()
}

// occupancy reports resident bytes and entry count.
func (c *listCache) occupancy() (bytes int64, entries int) {
	c.mu.Lock()
	bytes, entries = c.bytes, len(c.entries)
	c.mu.Unlock()
	return bytes, entries
}

// listSizeBytes estimates the resident size of a decoded list: 4 bytes
// per docID, TF and position, plus slice headers.
func listSizeBytes(l *postings.List) int64 {
	const sliceHdr = 24
	size := int64(3*sliceHdr) + int64(len(l.DocIDs))*4 + int64(len(l.TFs))*4
	for _, ps := range l.Positions {
		size += sliceHdr + int64(len(ps))*4
	}
	return size
}
