package serve

import (
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

func TestCacheHitMiss(t *testing.T) {
	c := NewPostingsCache(4, 1<<20)
	if _, ok := c.Get("absent"); ok {
		t.Fatal("hit on empty cache")
	}
	l := listOfLen(3)
	c.Put("term", l)
	got, ok := c.Get("term")
	if !ok || got != l {
		t.Fatalf("Get = %v, %v; want the cached list", got, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v; want 1 hit, 1 miss, 1 entry", st)
	}
}

// TestCacheEvictionBoundary fills one shard to exactly its budget,
// then crosses it by one entry and checks the LRU victim is the
// oldest untouched term.
func TestCacheEvictionBoundary(t *testing.T) {
	entrySize := ListBytes(listOfLen(10))
	// Single shard so the boundary is deterministic; room for exactly 4.
	c := NewPostingsCache(1, 4*entrySize)

	for i := 0; i < 4; i++ {
		c.Put(fmt.Sprintf("t%d", i), listOfLen(10))
	}
	if st := c.Stats(); st.Evictions != 0 || st.Entries != 4 {
		t.Fatalf("at boundary: %+v; want 4 entries, 0 evictions", st)
	}

	// Touch t0 so t1 becomes the LRU victim.
	c.Get("t0")
	c.Put("t4", listOfLen(10))
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 4 {
		t.Fatalf("past boundary: %+v; want 4 entries, 1 eviction", st)
	}
	if _, ok := c.Get("t1"); ok {
		t.Fatal("t1 should have been the LRU victim")
	}
	for _, term := range []string{"t0", "t2", "t3", "t4"} {
		if _, ok := c.Get(term); !ok {
			t.Fatalf("%s should have survived", term)
		}
	}
	if st := c.Stats(); st.Bytes > 4*entrySize {
		t.Fatalf("bytes = %d exceeds budget %d", st.Bytes, 4*entrySize)
	}
}

func TestCacheRefreshSameTerm(t *testing.T) {
	c := NewPostingsCache(1, 1<<20)
	c.Put("t", listOfLen(5))
	c.Put("t", listOfLen(50))
	st := c.Stats()
	if st.Entries != 1 {
		t.Fatalf("entries = %d, want 1", st.Entries)
	}
	if st.Bytes != ListBytes(listOfLen(50)) {
		t.Fatalf("bytes = %d, want size of refreshed list", st.Bytes)
	}
}

// TestPutSizedBudgetBoundary exercises the encoded-size accounting the
// serving layer uses under the codec registry: the budget is charged
// exactly the size passed in — not the decoded estimate — so the
// boundary sits wherever the encoded bytes say it does.
func TestPutSizedBudgetBoundary(t *testing.T) {
	c := NewPostingsCache(1, 100)

	// Three lists whose decoded estimates are identical but whose
	// encoded charges sum to exactly the budget: all must be resident.
	c.PutSized("a", listOfLen(10), 40)
	c.PutSized("b", listOfLen(10), 40)
	c.PutSized("c", listOfLen(10), 20)
	if st := c.Stats(); st.Entries != 3 || st.Bytes != 100 || st.Evictions != 0 {
		t.Fatalf("at boundary: %+v; want 3 entries, 100 bytes, 0 evictions", st)
	}

	// One more byte crosses the boundary; "a" is the LRU victim.
	c.PutSized("d", listOfLen(10), 1)
	if _, ok := c.Get("a"); ok {
		t.Fatal("a should have been evicted at budget+1")
	}
	if st := c.Stats(); st.Entries != 3 || st.Bytes != 61 {
		t.Fatalf("past boundary: %+v; want 3 entries, 61 bytes", st)
	}

	// An encoded size larger than the whole shard is never admitted,
	// however small the decoded list.
	c.PutSized("huge", listOfLen(1), 101)
	if _, ok := c.Get("huge"); ok {
		t.Fatal("size > shard budget must not be admitted")
	}

	// Non-positive sizes charge one byte so empty lists stay evictable.
	before := c.Stats().Bytes
	c.PutSized("empty", &postings.List{}, 0)
	if got := c.Stats().Bytes - before; got != 1 {
		t.Fatalf("zero-size entry charged %d bytes, want 1", got)
	}

	// Refreshing a term with a different encoded size re-charges the
	// delta: b(40) + c(20) + empty(1) + d(1→30) = 91.
	c.PutSized("d", listOfLen(10), 30)
	if st := c.Stats(); st.Bytes != 91 {
		t.Fatalf("refresh accounting: %+v; want 91 bytes", st)
	}
}

func TestCacheRejectsOversizeList(t *testing.T) {
	c := NewPostingsCache(1, 128)
	c.Put("huge", listOfLen(1000))
	if st := c.Stats(); st.Entries != 0 || st.Evictions != 0 {
		t.Fatalf("oversize list must not be admitted: %+v", st)
	}
}

// TestCacheConcurrent hammers all shards from 16 goroutines under a
// tight budget so evictions race with lookups (run with -race).
func TestCacheConcurrent(t *testing.T) {
	c := NewPostingsCache(8, 64*ListBytes(listOfLen(10)))
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				term := fmt.Sprintf("t%d", (g*31+i)%128)
				if _, ok := c.Get(term); !ok {
					c.Put(term, listOfLen(10))
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

// TestCacheConcurrentBudgetBoundary races Put/Get/Stats right at the
// per-shard byte budget, where every insert can evict: list sizes vary
// so entries straddle the boundary, one list is bigger than a whole
// shard and must never be admitted, and some goroutines refresh the
// same hot terms with different sizes. Afterwards every shard must
// satisfy its structural invariants exactly (run with -race).
func TestCacheConcurrentBudgetBoundary(t *testing.T) {
	const shards = 4
	// Budget: about 6 ten-entry lists per shard, so the working set of
	// 64 terms cannot fit and evictions run continuously.
	c := NewPostingsCache(shards, shards*6*ListBytes(listOfLen(10)))
	perShard := c.shards[0].maxBytes
	oversize := listOfLen(int(perShard)) // > perShard bytes by construction

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				switch term := fmt.Sprintf("t%d", (g*17+i)%64); i % 5 {
				case 0:
					c.Put(term, listOfLen(1+i%20)) // straddles the boundary
				case 1:
					c.Put("hot", listOfLen(1+i%30)) // same-term refresh, varying size
				case 2:
					c.Put("giant", oversize) // must be rejected, never evict others
				case 3:
					c.Get(term)
					c.Get("giant")
				case 4:
					c.Stats() // walks every shard while others mutate
				}
			}
		}(g)
	}
	wg.Wait()

	if _, ok := c.Get("giant"); ok {
		t.Error("oversize list was admitted")
	}
	var wantBytes int64
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		if s.bytes > s.maxBytes {
			t.Errorf("shard %d over budget: %d > %d", i, s.bytes, s.maxBytes)
		}
		if len(s.entries) != s.lru.Len() {
			t.Errorf("shard %d map/LRU out of sync: %d entries, %d LRU nodes",
				i, len(s.entries), s.lru.Len())
		}
		var sum int64
		for el := s.lru.Front(); el != nil; el = el.Next() {
			e := el.Value.(*cacheEntry)
			sum += e.size
			if s.entries[e.term] != el {
				t.Errorf("shard %d: LRU node for %q not indexed by the map", i, e.term)
			}
		}
		if sum != s.bytes {
			t.Errorf("shard %d byte accounting drifted: tracked %d, actual %d", i, s.bytes, sum)
		}
		wantBytes += s.bytes
		s.mu.Unlock()
	}
	if st := c.Stats(); st.Bytes != wantBytes {
		t.Errorf("Stats.Bytes = %d, want %d", st.Bytes, wantBytes)
	}
}
