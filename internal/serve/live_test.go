package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"fastinvert/internal/segment"
)

// newLiveServer opens a segment manager in a temp dir and mounts a
// live Server on it.
func newLiveServer(t *testing.T, opts segment.Options) (*segment.Manager, *httptest.Server) {
	t.Helper()
	m, err := segment.Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewLive(m, Config{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
		m.Close()
	})
	return m, ts
}

// post sends a POST with the given body and decodes the JSON response.
func post(t *testing.T, ts *httptest.Server, path, body string, status int) map[string]any {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+path, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != status {
		t.Fatalf("POST %s = %d, want %d; body: %s", path, resp.StatusCode, status, raw)
	}
	return decodeJSON(t, path, raw)
}

func decodeJSON(t *testing.T, path string, raw []byte) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("%s: bad JSON %v: %s", path, err, raw)
	}
	return m
}

// TestLiveServerLifecycle walks a document through the whole pipeline
// over HTTP: ingest → search from the memtable → delete → seal →
// compact → the deleted doc is gone and the survivor still answers.
func TestLiveServerLifecycle(t *testing.T) {
	_, ts := newLiveServer(t, segment.Options{})

	// Ingest three documents; docIDs are assigned in order.
	for i, text := range []string{
		"alpha beta beta",
		"alpha gamma",
		"gamma delta",
	} {
		got := post(t, ts, "/ingest", text, http.StatusOK)
		if doc := int(got["doc"].(float64)); doc != i {
			t.Fatalf("ingest #%d assigned doc %d", i, doc)
		}
	}

	// Queryable straight from the memtable.
	res := getJSON(t, ts, "/search?q=alpha&mode=and", http.StatusOK)
	if int(res["count"].(float64)) != 2 {
		t.Fatalf("and(alpha) = %v, want 2 docs", res)
	}

	// Delete doc 1; alpha drops to one hit, idempotent second delete.
	post(t, ts, "/delete?doc=1", "", http.StatusOK)
	post(t, ts, "/delete?doc=1", "", http.StatusOK)
	res = getJSON(t, ts, "/search?q=alpha&mode=and", http.StatusOK)
	if int(res["count"].(float64)) != 1 {
		t.Fatalf("and(alpha) after delete = %v, want 1 doc", res)
	}

	// Unknown doc is 404; junk doc parameter is 400.
	post(t, ts, "/delete?doc=99", "", http.StatusNotFound)
	post(t, ts, "/delete?doc=zzz", "", http.StatusBadRequest)

	// Seal, then compact: the tombstone is purged physically.
	post(t, ts, "/seal", "", http.StatusOK)
	got := post(t, ts, "/compact", "", http.StatusOK)
	if int(got["purged"].(float64)) != 1 {
		t.Fatalf("compact reported %v, want purged=1", got)
	}

	// Postings for a surviving term: gamma was in docs 1 and 2, and the
	// purge stripped doc 1. 404 for a term that never existed.
	pres := getJSON(t, ts, "/postings?term=gamma", http.StatusOK)
	if int(pres["df"].(float64)) != 1 {
		t.Fatalf("postings(gamma) = %v, want df 1", pres)
	}
	getJSON(t, ts, "/postings?term=zebra", http.StatusNotFound)

	// Health reports live mode with the post-compaction shape.
	h := getJSON(t, ts, "/healthz", http.StatusOK)
	if h["mode"] != "live" || int(h["docs"].(float64)) != 2 {
		t.Fatalf("healthz = %v, want live mode with 2 docs", h)
	}

	// GET on mutating endpoints is rejected.
	resp, err := ts.Client().Get(ts.URL + "/ingest")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /ingest = %d, want 405", resp.StatusCode)
	}
}

// TestLiveServerCacheGeneration checks that cached postings never
// survive a mutation: the cache key carries the generation, so a
// search after an ingest must see the new document even though the
// previous result was cached.
func TestLiveServerCacheGeneration(t *testing.T) {
	_, ts := newLiveServer(t, segment.Options{})

	post(t, ts, "/ingest", "omega alpha", http.StatusOK)
	for i := 0; i < 3; i++ { // populate + hit the cache
		res := getJSON(t, ts, "/search?q=omega&mode=and", http.StatusOK)
		if int(res["count"].(float64)) != 1 {
			t.Fatalf("round %d: %v, want 1 doc", i, res)
		}
	}
	post(t, ts, "/ingest", "omega beta", http.StatusOK)
	res := getJSON(t, ts, "/search?q=omega&mode=and", http.StatusOK)
	if int(res["count"].(float64)) != 2 {
		t.Fatalf("stale cache after ingest: %v, want 2 docs", res)
	}
	post(t, ts, "/delete?doc=0", "", http.StatusOK)
	res = getJSON(t, ts, "/search?q=omega&mode=and", http.StatusOK)
	if int(res["count"].(float64)) != 1 {
		t.Fatalf("stale cache after delete: %v, want 1 doc", res)
	}
}

// TestLiveServerMetrics scrapes /metrics and checks the live gauges
// are published and track the manager.
func TestLiveServerMetrics(t *testing.T) {
	m, ts := newLiveServer(t, segment.Options{SealEvery: 2})
	for i := 0; i < 5; i++ {
		post(t, ts, "/ingest", fmt.Sprintf("alpha beta w%dx", i), http.StatusOK)
	}
	// The second seal runs behind the ingest that filled its memtable.
	if err := m.WaitSeal(); err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, want := range []string{
		"hetserve_live_docs 5",
		"hetserve_live_seals_total 2",
		"hetserve_live_segments 2",
		"hetserve_live_memtable_docs 1",
		"hetserve_live_sealing 0",
		"hetserve_live_seal_seconds_count",
		"hetserve_live_seal_errors_total 0",
		"hetserve_live_seal_wait_seconds_total",
		"hetserve_cache_hits_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestLiveServerConcurrentIngestAndSearch races HTTP ingests, deletes
// and searches against background seals — the end-to-end version of
// the manager-level race tests (run with -race).
func TestLiveServerConcurrentIngestAndSearch(t *testing.T) {
	m, ts := newLiveServer(t, segment.Options{SealEvery: 4, CompactAt: 3})

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				got := post(t, ts, "/ingest",
					fmt.Sprintf("alpha g%dn%dx", g, i), http.StatusOK)
				if i%6 == 3 {
					doc := int(got["doc"].(float64))
					post(t, ts, fmt.Sprintf("/delete?doc=%d", doc), "", http.StatusOK)
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				resp, err := ts.Client().Get(ts.URL + "/search?q=alpha&mode=and")
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("search during ingest = %d", resp.StatusCode)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := m.LastCompactionError(); err != nil {
		t.Fatal(err)
	}
	res := getJSON(t, ts, "/search?q=alpha&mode=and", http.StatusOK)
	want := 4*25 - 4*4 // 4 writers × 25 docs, 4 deletes each (i%6==3)
	if got := int(res["count"].(float64)); got != want {
		t.Fatalf("final and(alpha) = %d docs, want %d", got, want)
	}
}
