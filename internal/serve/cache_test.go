package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

// TestCacheHitMiss checks that a server reads through exactly one
// cache, its own, installed on the reader: the first read of a term
// misses once per run holding it, the repeat hits as often, and the
// reader's counters are the server's.
func TestCacheHitMiss(t *testing.T) {
	idx := buildIndex(t)
	srv := New(idx, Config{CacheBytes: 1 << 20})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	word := indexedWord(t, idx)
	getJSON(t, ts, "/postings?term="+word, http.StatusOK)
	st := srv.CacheStats()
	parts := st.Misses
	if parts == 0 || st.Hits != 0 || st.Entries != int(parts) {
		t.Fatalf("first read: %+v; want one miss and one entry per part, no hit", st)
	}
	getJSON(t, ts, "/postings?term="+word, http.StatusOK)
	st = srv.CacheStats()
	if st.Hits != parts || st.Misses != parts {
		t.Fatalf("repeat read: %+v; want %d hits, no new miss", st, parts)
	}
	if rs := idx.Stats(); rs.CacheHits != st.Hits || rs.CacheMisses != st.Misses || rs.CacheBytes != st.Bytes {
		t.Fatalf("reader counts %+v, server %+v: two caches", rs, st)
	}
}

// TestCacheRejectsOversizeList: a budget of one byte, what the
// benchmark's probes set to read uncached, admits no list worth
// caching, so repeated reads go to disk and still answer right.
func TestCacheRejectsOversizeList(t *testing.T) {
	idx := buildIndex(t)
	words := pickWords(t, idx, 8)
	want := map[string]int{}
	for _, w := range words {
		l, err := idx.Postings(w)
		if err != nil {
			t.Fatal(err)
		}
		want[w] = l.Len()
	}
	srv := New(idx, Config{CacheBytes: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var read [2]uint64
	for round := range read {
		for _, w := range words {
			res := getJSON(t, ts, "/postings?term="+w+"&limit=1", http.StatusOK)
			if df := int(res["df"].(float64)); df != want[w] {
				t.Fatalf("round %d: df(%s) = %d, want %d", round, w, df, want[w])
			}
		}
		read[round] = idx.Stats().ListBytesRead
	}
	if st := srv.CacheStats(); st.Bytes > 1 || st.Entries > 1 {
		t.Fatalf("one-byte budget holds %+v", st)
	}
	if read[1] <= read[0] {
		t.Fatal("the repeat round read nothing from disk")
	}
}

// TestCacheConcurrent hammers /postings from 16 goroutines under a
// budget a third of the lists' size, so evictions race lookups through
// the whole read path (run with -race); every answer matches the
// reader's, and the budget holds.
func TestCacheConcurrent(t *testing.T) {
	idx := buildIndex(t)
	words := pickWords(t, idx, 16)
	want := map[string]int{}
	for _, w := range words {
		l, err := idx.Postings(w)
		if err != nil {
			t.Fatal(err)
		}
		want[w] = l.Len()
	}
	// The reader's own cache holds every list read above.
	budget := idx.Stats().CacheBytes / 3
	srv := New(idx, Config{CacheBytes: budget})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				w := words[(g*7+i)%len(words)]
				resp, err := ts.Client().Get(ts.URL + "/postings?term=" + w + "&limit=1")
				if err != nil {
					errs <- err
					return
				}
				var res struct{ DF int }
				err = json.NewDecoder(resp.Body).Decode(&res)
				resp.Body.Close()
				if err != nil || res.DF != want[w] {
					errs <- fmt.Errorf("df(%s) = %d (%v), want %d", w, res.DF, err, want[w])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := srv.CacheStats()
	if st.Bytes > budget || st.Evictions == 0 || st.Hits+st.Misses == 0 {
		t.Fatalf("cache %+v: want evictions under a %d-byte budget, never above it", st, budget)
	}
}
