// Package serve is the query-serving layer: it makes an opened index
// fast and safe under concurrent traffic. A sharded, size-bounded LRU
// postings cache fronts store.IndexReader term access, a bounded
// worker pool executes queries under per-query deadlines, and Server
// exposes the whole thing over HTTP/JSON with Prometheus metrics at
// /metrics.
//
// The construction pipeline (internal/core) optimizes for build
// throughput; this package optimizes for the other half of the
// paper's story — the index being read "by a large number of users"
// — where the bottleneck is concurrent in-memory postings access.
package serve

import (
	"container/list"
	"sync"
	"sync/atomic"
	"time"

	"fastinvert/internal/postings"
	"fastinvert/internal/telemetry"
)

// CacheStats is a point-in-time aggregate over all shards.
type CacheStats struct {
	Hits         uint64
	Misses       uint64
	Evictions    uint64
	EvictedBytes uint64
	Entries      int
	Bytes        int64
}

// PostingsCache is a sharded, size-bounded LRU cache of decoded
// postings lists keyed by normalized term. Sharding by term hash
// spreads lock contention: a Get or Put touches exactly one shard
// mutex, so goroutines querying different terms rarely collide.
//
// Cached *postings.List values are shared between all readers and
// MUST be treated as immutable — the search layer already only reads
// them.
type PostingsCache struct {
	shards []cacheShard
	mask   uint32
}

type cacheShard struct {
	maxBytes int64

	mu      sync.Mutex
	entries map[string]*list.Element
	lru     list.List // front = most recently used
	bytes   int64

	hits         atomic.Uint64
	misses       atomic.Uint64
	evictions    atomic.Uint64
	evictedBytes atomic.Uint64
}

type cacheEntry struct {
	term  string
	list  *postings.List
	size  int64
	added time.Time
}

// NewPostingsCache builds a cache with the given shard count (rounded
// up to a power of two, min 1) holding at most maxBytes of decoded
// postings across all shards. maxBytes <= 0 selects a 64 MiB default.
func NewPostingsCache(shards int, maxBytes int64) *PostingsCache {
	if maxBytes <= 0 {
		maxBytes = 64 << 20
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	c := &PostingsCache{shards: make([]cacheShard, n), mask: uint32(n - 1)}
	per := maxBytes / int64(n)
	if per < 1 {
		per = 1
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.maxBytes = per
		s.entries = make(map[string]*list.Element)
	}
	return c
}

// Shards reports the shard count.
func (c *PostingsCache) Shards() int { return len(c.shards) }

// shard picks the owning shard by FNV-1a over the term.
func (c *PostingsCache) shard(term string) *cacheShard {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(term); i++ {
		h ^= uint32(term[i])
		h *= prime32
	}
	return &c.shards[h&c.mask]
}

// Get returns the cached list for term, marking it most recently used.
func (c *PostingsCache) Get(term string) (*postings.List, bool) {
	s := c.shard(term)
	s.mu.Lock()
	el, ok := s.entries[term]
	if !ok {
		s.mu.Unlock()
		s.misses.Add(1)
		return nil, false
	}
	s.lru.MoveToFront(el)
	l := el.Value.(*cacheEntry).list
	s.mu.Unlock()
	s.hits.Add(1)
	return l, true
}

// Put inserts (or refreshes) a term's list, evicting least recently
// used entries until the shard fits its byte budget. Lists larger than
// a whole shard are not cached at all — admitting one would flush the
// entire shard for a single entry. The budget is charged the decoded
// in-memory estimate (ListBytes).
func (c *PostingsCache) Put(term string, l *postings.List) {
	c.put(term, l, ListBytes(l))
}

// PutSized inserts like Put but charges size bytes against the shard
// budget instead of the decoded estimate. The serving layer passes the
// encoded (at-rest) size reported by the store, so under the codec
// registry a budget of N bytes admits as many lists as N bytes of
// index actually hold — denser codecs fit proportionally more terms.
// A non-positive size charges one byte, keeping even empty
// (negative-lookup) entries accountable to the LRU.
func (c *PostingsCache) PutSized(term string, l *postings.List, size int64) {
	if size < 1 {
		size = 1
	}
	c.put(term, l, size)
}

func (c *PostingsCache) put(term string, l *postings.List, size int64) {
	s := c.shard(term)
	if size > s.maxBytes {
		return
	}
	now := time.Now()
	s.mu.Lock()
	if el, ok := s.entries[term]; ok {
		e := el.Value.(*cacheEntry)
		s.bytes += size - e.size
		e.list, e.size, e.added = l, size, now
		s.lru.MoveToFront(el)
	} else {
		s.entries[term] = s.lru.PushFront(&cacheEntry{term: term, list: l, size: size, added: now})
		s.bytes += size
	}
	evicted, evictedBytes := uint64(0), uint64(0)
	for s.bytes > s.maxBytes {
		back := s.lru.Back()
		e := back.Value.(*cacheEntry)
		s.lru.Remove(back)
		delete(s.entries, e.term)
		s.bytes -= e.size
		evicted++
		evictedBytes += uint64(e.size)
	}
	s.mu.Unlock()
	if evicted > 0 {
		s.evictions.Add(evicted)
		s.evictedBytes.Add(evictedBytes)
	}
}

// Hits sums the hit counters across shards without taking any shard
// lock — safe to call at metrics-scrape frequency.
func (c *PostingsCache) Hits() uint64 {
	var n uint64
	for i := range c.shards {
		n += c.shards[i].hits.Load()
	}
	return n
}

// Misses sums the miss counters across shards, lock-free.
func (c *PostingsCache) Misses() uint64 {
	var n uint64
	for i := range c.shards {
		n += c.shards[i].misses.Load()
	}
	return n
}

// Evictions sums the eviction counters across shards, lock-free.
func (c *PostingsCache) Evictions() uint64 {
	var n uint64
	for i := range c.shards {
		n += c.shards[i].evictions.Load()
	}
	return n
}

// EvictedBytes sums the bytes charged for evicted entries, lock-free.
func (c *PostingsCache) EvictedBytes() uint64 {
	var n uint64
	for i := range c.shards {
		n += c.shards[i].evictedBytes.Load()
	}
	return n
}

// Stats aggregates counters and occupancy across shards.
func (c *PostingsCache) Stats() CacheStats {
	var st CacheStats
	for i := range c.shards {
		s := &c.shards[i]
		st.Hits += s.hits.Load()
		st.Misses += s.misses.Load()
		st.Evictions += s.evictions.Load()
		st.EvictedBytes += s.evictedBytes.Load()
		s.mu.Lock()
		st.Entries += len(s.entries)
		st.Bytes += s.bytes
		s.mu.Unlock()
	}
	return st
}

// AgeHist walks every resident entry and buckets its age in seconds
// against bounds, producing a point-in-time histogram snapshot for a
// func-backed /metrics series. Runs under the shard locks — scrape
// frequency, not query frequency.
func (c *PostingsCache) AgeHist(bounds []float64) telemetry.HistSnapshot {
	now := time.Now()
	return c.histOver(bounds, func(e *cacheEntry) float64 {
		return now.Sub(e.added).Seconds()
	})
}

// SizeHist buckets each resident entry's charged size in bytes against
// bounds, like AgeHist a scrape-time snapshot.
func (c *PostingsCache) SizeHist(bounds []float64) telemetry.HistSnapshot {
	return c.histOver(bounds, func(e *cacheEntry) float64 {
		return float64(e.size)
	})
}

func (c *PostingsCache) histOver(bounds []float64, val func(*cacheEntry) float64) telemetry.HistSnapshot {
	snap := telemetry.HistSnapshot{Counts: make([]uint64, len(bounds))}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for el := s.lru.Front(); el != nil; el = el.Next() {
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
		s.mu.Unlock()
	}
	return snap
}

// ListBytes estimates the resident size of a decoded postings list:
// 4 bytes per docID and per TF, 4 per position, plus slice headers.
func ListBytes(l *postings.List) int64 {
	const sliceHdr = 24
	size := int64(3*sliceHdr) + int64(len(l.DocIDs))*4 + int64(len(l.TFs))*4
	for _, ps := range l.Positions {
		size += sliceHdr + int64(len(ps))*4
	}
	return size
}
