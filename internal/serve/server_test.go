package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"fastinvert/internal/core"
	"fastinvert/internal/corpus"
	"fastinvert/internal/gpu"
	"fastinvert/internal/search"
	"fastinvert/internal/store"
)

// buildIndex persists a small positional index and opens it.
func buildIndex(t testing.TB) *store.IndexReader {
	t.Helper()
	p := corpus.ClueWeb09(1)
	p.VocabSize = 2000
	p.DocsPerFile = 10
	p.MeanDocTokens = 50
	src := corpus.NewMemSource(corpus.NewGenerator(p), 3)

	cfg := core.DefaultConfig()
	cfg.Parsers = 2
	cfg.CPUIndexers = 1
	cfg.GPUs = 1
	g := gpu.TeslaC1060()
	g.SMs = 4
	g.DeviceMemBytes = 64 << 20
	cfg.GPU = g
	cfg.GPUThreadBlocks = 8
	cfg.Sampling.Ratio = 0.2
	cfg.Positional = true
	cfg.OutDir = filepath.Join(t.TempDir(), "idx")
	eng, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Build(src); err != nil {
		t.Fatal(err)
	}
	idx, err := store.OpenIndex(cfg.OutDir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { idx.Close() })
	return idx
}

// pickWords returns up to n dictionary terms that survive query
// normalization unchanged (stemming is not idempotent for every term),
// so querying them is guaranteed to hit the index.
func pickWords(t testing.TB, idx *store.IndexReader, n int) []string {
	t.Helper()
	s := search.New(idx)
	var out []string
	for _, e := range idx.Dictionary() {
		if len(e.Term) < 3 {
			continue
		}
		norm, stop := s.Normalize(e.Term)
		if stop || norm != e.Term {
			continue
		}
		out = append(out, e.Term)
		if len(out) == n {
			break
		}
	}
	if len(out) == 0 {
		t.Fatal("no usable dictionary term")
	}
	return out
}

func indexedWord(t testing.TB, idx *store.IndexReader) string {
	return pickWords(t, idx, 1)[0]
}

// getRaw returns the response and body of a GET, whatever its status.
func getRaw(t *testing.T, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func getJSON(t *testing.T, ts *httptest.Server, path string, status int) map[string]any {
	t.Helper()
	resp, body := getRaw(t, ts, path)
	if resp.StatusCode != status {
		t.Fatalf("GET %s = %d, want %d; body: %s", path, resp.StatusCode, status, body)
	}
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("GET %s: bad JSON %v: %s", path, err, body)
	}
	return m
}

func TestServerEndpoints(t *testing.T) {
	idx := buildIndex(t)
	srv := New(idx, Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	word := indexedWord(t, idx)

	// /healthz
	h := getJSON(t, ts, "/healthz", http.StatusOK)
	if h["status"] != "ok" || h["terms"].(float64) <= 0 || h["merged_active"] != false {
		t.Fatalf("healthz = %v", h)
	}

	// /search in every mode
	for _, mode := range []string{"and", "or", "topk", "phrase"} {
		m := getJSON(t, ts, "/search?q="+word+"&mode="+mode+"&k=5", http.StatusOK)
		if m["mode"] != mode {
			t.Fatalf("mode = %v, want %s", m["mode"], mode)
		}
		if m["count"].(float64) <= 0 {
			t.Fatalf("mode %s found no docs for indexed word %q: %v", mode, word, m)
		}
	}

	// /search errors
	getJSON(t, ts, "/search?q=", http.StatusBadRequest)
	getJSON(t, ts, "/search?q=x&mode=bogus", http.StatusBadRequest)
	getJSON(t, ts, "/search?q=x&k=-3", http.StatusBadRequest)

	// /postings: known term, then 404s
	pm := getJSON(t, ts, "/postings?term="+word+"&limit=5", http.StatusOK)
	if pm["df"].(float64) <= 0 {
		t.Fatalf("postings df = %v", pm["df"])
	}
	if docs := pm["docs"].([]any); len(docs) > 5 {
		t.Fatalf("limit ignored: %d docs", len(docs))
	}
	getJSON(t, ts, "/postings?term=zzzzunindexedzzz", http.StatusNotFound)
	getJSON(t, ts, "/postings?term=the", http.StatusNotFound) // stop word
	getJSON(t, ts, "/postings", http.StatusBadRequest)
}

// TestServerConcurrentSearch hammers /search from 16 goroutines with
// mixed modes (race detector exercises reader, cache and metrics) and
// then checks /metrics reports the traffic.
func TestServerConcurrentSearch(t *testing.T) {
	idx := buildIndex(t)
	srv := New(idx, Config{CacheBytes: 1 << 20, Workers: 8})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	words := pickWords(t, idx, 8)
	modes := []string{"and", "or", "topk"}

	const goroutines = 16
	const perG = 25
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				w := words[(g+i)%len(words)]
				var path string
				if i%3 == 0 {
					path = "/postings?term=" + w
				} else {
					path = "/search?q=" + w + "&mode=" + modes[(g+i)%len(modes)]
				}
				resp, err := ts.Client().Get(ts.URL + path)
				if err != nil {
					errs <- err
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("%s: status %d", path, resp.StatusCode)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Repeated terms must have produced cache hits.
	st := srv.CacheStats()
	if st.Hits == 0 {
		t.Fatalf("no cache hits after %d repeated queries: %+v", goroutines*perG, st)
	}

	// /metrics reports the traffic: every request counted and timed,
	// and the cache counter the server object sees.
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		fmt.Sprintf("hetserve_queries_total %d\n", goroutines*perG),
		"hetserve_query_errors_total 0\n",
		fmt.Sprintf("hetserve_query_seconds_count %d\n", goroutines*perG),
		fmt.Sprintf("hetserve_cache_hits_total %d\n", st.Hits),
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestServerQueryTimeout forces an immediate deadline and expects 503.
func TestServerQueryTimeout(t *testing.T) {
	idx := buildIndex(t)
	srv := New(idx, Config{QueryTimeout: time.Nanosecond})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	word := indexedWord(t, idx)
	getJSON(t, ts, "/search?q="+word, http.StatusServiceUnavailable)
	// A query that fails inside the path is a query and an error.
	if q, e := srv.metrics.queries.Value(), srv.metrics.errors.Value(); q != 1 || e != 1 {
		t.Errorf("after one timed-out query: queries = %v, errors = %v, want 1 and 1", q, e)
	}
}

// TestServerAfterIndexClose verifies ErrClosed maps to 503 rather
// than a hang or crash.
func TestServerAfterIndexClose(t *testing.T) {
	idx := buildIndex(t)
	srv := New(idx, Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	word := indexedWord(t, idx)
	getJSON(t, ts, "/search?q="+word+"&mode=and", http.StatusOK)
	idx.Close()
	// The term just queried is cached, so pick a different one to force
	// a reader touch; with the whole cache bypassed the reader must
	// report ErrClosed.
	srvCold := New(idx, Config{})
	defer srvCold.Close()
	tsCold := httptest.NewServer(srvCold.Handler())
	defer tsCold.Close()
	getJSON(t, tsCold, "/search?q="+word+"&mode=and", http.StatusServiceUnavailable)
}
