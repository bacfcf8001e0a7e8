package store

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"fastinvert/internal/postings"
)

// listOfLen builds a postings list with n entries.
func listOfLen(n int) *postings.List {
	l := &postings.List{}
	for i := 0; i < n; i++ {
		l.DocIDs = append(l.DocIDs, uint32(i))
		l.TFs = append(l.TFs, 1)
	}
	return l
}

// key names slot i of collection 1 in file 1.
func key(i int) listKey { return listKey{file: 1, coll: 1, slot: uint32(i)} }

func TestListCacheHitMiss(t *testing.T) {
	c := NewListCache(1 << 20)
	if _, ok := c.get(key(0)); ok {
		t.Fatal("hit on empty cache")
	}
	l := listOfLen(3)
	c.put(key(0), l, 6)
	got, ok := c.get(key(0))
	if !ok || got != l {
		t.Fatalf("get = %v, %v; want the cached list", got, ok)
	}
	// The same (collection, slot) of another file is another list.
	if _, ok := c.get(listKey{file: 2, coll: 1, slot: 0}); ok {
		t.Fatal("hit across files")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Entries != 1 || st.Bytes != 6 {
		t.Fatalf("stats = %+v; want 1 hit, 2 misses, 1 entry of 6 bytes", st)
	}
}

// TestListCacheEvictionBoundary fills the cache to exactly its budget,
// then crosses it by one entry and checks the LRU victim is the oldest
// untouched key.
func TestListCacheEvictionBoundary(t *testing.T) {
	const size = 20 // encoded bytes charged per entry; room for exactly 4
	c := NewListCache(4 * size)
	for i := 0; i < 4; i++ {
		c.put(key(i), listOfLen(10), size)
	}
	if st := c.Stats(); st.Evictions != 0 || st.Entries != 4 {
		t.Fatalf("at boundary: %+v; want 4 entries, 0 evictions", st)
	}

	// Touch 0 so 1 becomes the LRU victim.
	c.get(key(0))
	c.put(key(4), listOfLen(10), size)
	st := c.Stats()
	if st.Evictions != 1 || st.EvictedBytes != size || st.Entries != 4 {
		t.Fatalf("past boundary: %+v; want 4 entries, 1 eviction of %d bytes", st, size)
	}
	if _, ok := c.get(key(1)); ok {
		t.Fatal("1 should have been the LRU victim")
	}
	for _, i := range []int{0, 2, 3, 4} {
		if _, ok := c.get(key(i)); !ok {
			t.Fatalf("%d should have survived", i)
		}
	}
	if st := c.Stats(); st.Bytes != 4*size {
		t.Fatalf("bytes = %d, want %d", st.Bytes, 4*size)
	}
}

func TestListCacheRefreshSameKey(t *testing.T) {
	c := NewListCache(1 << 20)
	c.put(key(0), listOfLen(5), 10)
	l := listOfLen(50)
	c.put(key(0), l, 100)
	st := c.Stats()
	if st.Entries != 1 || st.Bytes != 100 {
		t.Fatalf("stats = %+v; want 1 entry charged the refreshed 100 bytes", st)
	}
	if got, _ := c.get(key(0)); got != l {
		t.Fatal("refresh kept the old list")
	}
}

// TestListCacheBudgetBoundary checks the encoded-size accounting: the
// budget is charged exactly the size passed in, not the decoded
// footprint, so the boundary sits wherever the encoded bytes say.
func TestListCacheBudgetBoundary(t *testing.T) {
	c := NewListCache(100)

	// Three lists whose decoded forms are identical but whose encoded
	// charges sum to exactly the budget: all must be resident.
	c.put(key(0), listOfLen(10), 40)
	c.put(key(1), listOfLen(10), 40)
	c.put(key(2), listOfLen(10), 20)
	if st := c.Stats(); st.Entries != 3 || st.Bytes != 100 || st.Evictions != 0 {
		t.Fatalf("at boundary: %+v; want 3 entries, 100 bytes, 0 evictions", st)
	}

	// One more byte crosses the boundary; 0 is the LRU victim.
	c.put(key(3), listOfLen(10), 1)
	if _, ok := c.get(key(0)); ok {
		t.Fatal("0 should have been evicted at budget+1")
	}
	if st := c.Stats(); st.Entries != 3 || st.Bytes != 61 {
		t.Fatalf("past boundary: %+v; want 3 entries, 61 bytes", st)
	}

	// Non-positive sizes charge one byte so empty lists stay evictable.
	before := c.Stats().Bytes
	c.put(key(5), &postings.List{}, 0)
	if got := c.Stats().Bytes - before; got != 1 {
		t.Fatalf("zero-size entry charged %d bytes, want 1", got)
	}

	// Refreshing a key with a different size re-charges the delta:
	// 1(40) + 2(20) + 5(1) + 3(1→30) = 91.
	c.put(key(3), listOfLen(10), 30)
	if st := c.Stats(); st.Bytes != 91 {
		t.Fatalf("refresh accounting: %+v; want 91 bytes", st)
	}
}

// TestListCacheRejectsOversizeList: a list charged more than the whole
// budget is never admitted, however small its decoded form, and its
// rejection evicts nothing.
func TestListCacheRejectsOversizeList(t *testing.T) {
	c := NewListCache(100)
	c.put(key(0), listOfLen(10), 60)
	c.put(key(1), listOfLen(1), 101)
	if _, ok := c.get(key(1)); ok {
		t.Fatal("size > budget must not be admitted")
	}
	if st := c.Stats(); st.Entries != 1 || st.Bytes != 60 || st.Evictions != 0 {
		t.Fatalf("oversize list disturbed the cache: %+v", st)
	}
}

// TestListCacheUnit walks one cache through a whole life: eviction at
// the budget, hit/miss accounting, oversize rejection, purge.
func TestListCacheUnit(t *testing.T) {
	c := NewListCache(300)
	if _, ok := c.get(key(0)); ok {
		t.Fatal("hit on empty cache")
	}
	c.put(key(0), listOfLen(10), 152)
	if _, ok := c.get(key(0)); !ok {
		t.Fatal("miss after put")
	}
	c.put(key(1), listOfLen(10), 152) // 304 > 300: evicts key(0)
	if _, ok := c.get(key(0)); ok {
		t.Fatal("key(0) should have been evicted")
	}
	c.put(key(2), listOfLen(1000), 301) // larger than the whole budget
	if _, ok := c.get(key(2)); ok {
		t.Fatal("oversized list must not be admitted")
	}
	st := c.Stats()
	if st.Bytes > 300 || st.Entries != 1 || st.Evictions != 1 || st.Hits != 1 || st.Misses != 3 {
		t.Fatalf("stats = %+v", st)
	}
	c.purge()
	if st := c.Stats(); st.Bytes != 0 || st.Entries != 0 {
		t.Fatalf("purge left %d bytes / %d entries", st.Bytes, st.Entries)
	}
}

// TestListCacheConcurrent hammers the cache from 16 goroutines under a
// tight budget so evictions race with lookups (run with -race).
func TestListCacheConcurrent(t *testing.T) {
	c := NewListCache(64 * 20)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := key((g*31 + i) % 128)
				if _, ok := c.get(k); !ok {
					c.put(k, listOfLen(10), 20)
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses != 16*500 {
		t.Fatalf("lookups = %d, want %d", st.Hits+st.Misses, 16*500)
	}
	if st.Entries == 0 {
		t.Fatal("cache ended empty")
	}
}

// TestListCacheConcurrentBudgetBoundary races put/get/Stats right at
// the byte budget, where every insert can evict: sizes vary so entries
// straddle the boundary, one list is bigger than the whole budget and
// must never be admitted, and some goroutines refresh one hot key with
// different sizes. Afterwards the cache must satisfy its structural
// invariants exactly (run with -race).
func TestListCacheConcurrentBudgetBoundary(t *testing.T) {
	const budget = 6 * 20 // the working set of 64 keys cannot fit
	c := NewListCache(budget)
	hot, giant := key(1000), key(1001)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				switch k := key((g*17 + i) % 64); i % 5 {
				case 0:
					c.put(k, listOfLen(10), int64(1+i%40)) // straddles the boundary
				case 1:
					c.put(hot, listOfLen(10), int64(1+i%30)) // same-key refresh
				case 2:
					c.put(giant, listOfLen(1), budget+1) // rejected, evicts nothing
				case 3:
					c.get(k)
					c.get(giant)
				case 4:
					c.Stats() // reads occupancy while others mutate
				}
			}
		}(g)
	}
	wg.Wait()

	if _, ok := c.get(giant); ok {
		t.Error("oversize list was admitted")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.bytes > c.maxBytes {
		t.Errorf("over budget: %d > %d", c.bytes, c.maxBytes)
	}
	if len(c.entries) != c.lru.Len() {
		t.Errorf("map/LRU out of sync: %d entries, %d LRU nodes", len(c.entries), c.lru.Len())
	}
	var sum int64
	for el := c.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*cacheEntry)
		sum += e.size
		if c.entries[e.key] != el {
			t.Errorf("LRU node for %+v not indexed by the map", e.key)
		}
	}
	if sum != c.bytes {
		t.Errorf("byte accounting drifted: tracked %d, actual %d", c.bytes, sum)
	}
}

// TestListCacheWarmGetZeroAlloc is the allocation gate of the hit path
// every cached read takes.
func TestListCacheWarmGetZeroAlloc(t *testing.T) {
	c := NewListCache(1 << 20)
	c.put(key(0), listOfLen(16), 32)
	if n := testing.AllocsPerRun(200, func() {
		if _, ok := c.get(key(0)); !ok {
			t.Fatal("cache lost its entry")
		}
	}); n != 0 {
		t.Errorf("warm get allocates %.1f per call, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { _ = c.Stats() }); n != 0 {
		t.Errorf("Stats allocates %.1f per call, want 0", n)
	}
}

// TestRunFilesNeverShareCachedLists opens two files holding different
// lists under the same (collection, slot) on one cache: each answers
// with its own list, warm or cold, and a reopened file starts cold.
func TestRunFilesNeverShareCachedLists(t *testing.T) {
	rp := &ReadPath{}
	rp.SetCache(NewListCache(1 << 20))
	open := func(docs ...uint32) *RunFile {
		t.Helper()
		b := NewRunBuilder()
		if err := b.AddList(1, 0, docs, make([]uint32, len(docs))); err != nil {
			t.Fatal(err)
		}
		data := b.Finalize(docs[0], docs[len(docs)-1])
		rf, err := parseRunFile("mem.post", memRun{bytes.NewReader(data)}, int64(len(data)), rp)
		if err != nil {
			t.Fatal(err)
		}
		return rf
	}
	a, b := open(1, 2, 3), open(7, 8)
	for round := 0; round < 2; round++ { // cold, then warm
		for _, tc := range []struct {
			rf   *RunFile
			want int
		}{{a, 3}, {b, 2}} {
			e, _ := tc.rf.Find(1, 0)
			l, err := tc.rf.ReadListCtx(context.Background(), e)
			if err != nil || l.Len() != tc.want {
				t.Fatalf("round %d: %s read %v (%v), want %d postings", round, tc.rf.name, l, err, tc.want)
			}
		}
	}
	if st := rp.cache.Load().Stats(); st.Hits != 2 || st.Misses != 2 {
		t.Fatalf("stats = %+v, want 2 misses then 2 hits", st)
	}
	// The same bytes opened again are a new file to the cache.
	c := open(1, 2, 3)
	e, _ := c.Find(1, 0)
	if _, err := c.ReadListCtx(context.Background(), e); err != nil {
		t.Fatal(err)
	}
	if st := rp.cache.Load().Stats(); st.Misses != 3 {
		t.Fatalf("a reopened file hit its predecessor's entry: %+v", st)
	}
}

// TestRemergeNeverAnswersFromOldMergedFile: a re-merge replaces
// merged.post under a reader that has cached lists of the old one.
// Every lookup after it misses once and reads the new file, and the
// answers stay the same.
func TestRemergeNeverAnswersFromOldMergedFile(t *testing.T) {
	dir, terms := buildMergedTestDir(t)
	idx, err := OpenIndex(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	if _, err := idx.Merge(); err != nil {
		t.Fatal(err)
	}
	before := map[string]*postings.List{}
	for _, term := range terms {
		for i := 0; i < 2; i++ { // miss, then hit
			l, err := idx.Postings(term)
			if err != nil {
				t.Fatal(err)
			}
			before[term] = l
		}
	}
	st0 := idx.Stats()
	if _, err := idx.Merge(); err != nil {
		t.Fatal(err)
	}
	for _, term := range terms {
		l, err := idx.Postings(term)
		if err != nil {
			t.Fatal(err)
		}
		if l == before[term] {
			t.Fatalf("%q answered from the replaced merged.post's entry", term)
		}
		assertSameList(t, fmt.Sprintf("%q after re-merge", term), l, before[term])
	}
	st := idx.Stats()
	if st.CacheMisses-st0.CacheMisses != uint64(len(terms)) || st.CacheHits != st0.CacheHits {
		t.Fatalf("after re-merge: %+v, before %+v; want one miss per term and no hit", st, st0)
	}
	if st.ListBytesRead <= st0.ListBytesRead {
		t.Fatal("re-merged lists were not read from disk")
	}
}
