package serve

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestMetricsEndpoint drives a few queries and checks /metrics serves
// a Prometheus snapshot covering the query, cache, pool and index
// families the dashboard depends on.
func TestMetricsEndpoint(t *testing.T) {
	idx := buildIndex(t)
	srv := New(idx, Config{CacheShards: 4, CacheBytes: 1 << 20})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	word := indexedWord(t, idx)
	// Two searches: the repeat warms the postings cache so the hit
	// counter moves too. sent adds up the bodies /search wrote, error
	// bodies included: bytes on the wire per endpoint.
	sent := 0
	for _, path := range []string{"/search?q=" + word + "&mode=and", "/search?q=" + word + "&mode=and",
		// A bad mode is rejected before the request becomes a query, so
		// it moves neither the query nor the error counter (a query that
		// fails inside the path moves both: TestServerQueryTimeout).
		"/search?q=" + word + "&mode=bogus"} {
		_, body := getRaw(t, ts, path)
		sent += len(body)
	}
	_, postings := getRaw(t, ts, "/postings?term="+word)

	resp, body := getRaw(t, ts, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type = %q, want text exposition 0.0.4", ct)
	}
	out := string(body)

	for _, want := range []string{
		"# TYPE hetserve_queries_total counter",
		"# TYPE hetserve_query_seconds histogram",
		"hetserve_query_seconds_bucket{le=\"+Inf\"} 3",
		"hetserve_queries_total 3",
		"hetserve_query_errors_total 0",
		"hetserve_cache_hits_total",
		"hetserve_cache_misses_total",
		"hetserve_cache_evictions_total",
		"hetserve_cache_entries",
		"hetserve_pool_workers",
		"hetserve_pool_completed_total",
		"hetserve_index_terms",
		"hetserve_store_run_fallbacks_total 1", // the index is unmerged; the repeat hit the cache
		"hetserve_store_merged_read_errors_total 0",
		"hetserve_store_decode_varbyte_total",
		"hetserve_store_decode_bitpack_total",
		"hetserve_store_decode_eliasfano_total",
		"# TYPE hetserve_response_bytes_total counter",
		fmt.Sprintf("hetserve_response_bytes_total{endpoint=\"search\"} %d\n", sent),
		fmt.Sprintf("hetserve_response_bytes_total{endpoint=\"postings\"} %d\n", len(postings)),
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// The func-backed cache counters must track the shard atomics: the
	// repeated query above hit the postings cache at least once.
	if srv.cache != nil && srv.cache.Hits() == 0 {
		t.Error("repeat query did not register a cache hit")
	}
}

// TestHotPathZeroAllocs is the acceptance gate for the instrumented
// query path: recording a query into the registry-backed metrics and
// reading a cached postings list must not allocate.
func TestHotPathZeroAllocs(t *testing.T) {
	m := NewMetrics()
	if n := testing.AllocsPerRun(200, func() {
		m.Observe(3*time.Millisecond, nil)
	}); n != 0 {
		t.Errorf("Metrics.Observe allocates %.1f per call, want 0", n)
	}

	c := NewPostingsCache(4, 1<<20)
	c.Put("term", listOfLen(16))
	if n := testing.AllocsPerRun(200, func() {
		if _, ok := c.Get("term"); !ok {
			t.Fatal("cache lost its entry")
		}
	}); n != 0 {
		t.Errorf("PostingsCache.Get allocates %.1f per call, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		_ = c.Hits() + c.Misses() + c.Evictions()
	}); n != 0 {
		t.Errorf("cache counter reads allocate %.1f per call, want 0", n)
	}
}

// TestPoolStats checks the pool's gauge counters move with traffic.
func TestPoolStats(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	st := p.Stats()
	if st.Workers != 2 || st.InFlight != 0 || st.Completed != 0 {
		t.Fatalf("fresh pool stats = %+v", st)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := p.Do(context.Background(), func(context.Context) error { return nil }); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	// Do returns only after the worker bumped the completed counter.
	if got := p.Stats().Completed; got != 4 {
		t.Errorf("completed = %d, want 4", got)
	}
	if got := p.Stats().InFlight; got != 0 {
		t.Errorf("in-flight = %d, want 0 after drain", got)
	}
}
