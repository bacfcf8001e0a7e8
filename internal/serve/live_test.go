package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"fastinvert/internal/parser"
	"fastinvert/internal/postings"
	"fastinvert/internal/reference"
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

// TestLiveServerCacheGeneration checks that the live cache, keyed by
// segment file, never serves a state it was not read from while still
// paying off across generations:
//   - an ingest into the memtable is counted at once, and the repeat
//     query hits the cache on every sealed part;
//   - a delete of a sealed document whose list is cached hides it,
//     since tombstones apply after the cache;
//   - after a compaction every answer equals a serial rebuild of the
//     survivors, and no entry of a compacted-away file is hit again.
func TestLiveServerCacheGeneration(t *testing.T) {
	m, err := segment.Open(t.TempDir(), segment.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	srv := NewLive(m, Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	survivors := map[uint32]string{}
	ingest := func(text string) {
		t.Helper()
		got := post(t, ts, "/ingest", text, http.StatusOK)
		survivors[uint32(got["doc"].(float64))] = text
	}
	omega := func() []uint32 {
		t.Helper()
		res := getJSON(t, ts, "/search?q=omega&mode=and", http.StatusOK)
		var docs []uint32
		for _, d := range res["docs"].([]any) {
			docs = append(docs, uint32(d.(float64)))
		}
		return docs
	}

	// Two sealed segments hold omega; the first query reads both.
	ingest("omega alpha")
	ingest("omega beta")
	post(t, ts, "/seal", "", http.StatusOK)
	ingest("omega gamma")
	post(t, ts, "/seal", "", http.StatusOK)
	if got := omega(); len(got) != 3 {
		t.Fatalf("omega = %v, want 3 docs", got)
	}

	st0 := srv.CacheStats()
	ingest("omega delta") // doc 3, in the memtable
	if got := omega(); len(got) != 4 || got[3] != 3 {
		t.Fatalf("after ingest: omega = %v, want docs 0-3", got)
	}
	if st := srv.CacheStats(); st.Hits-st0.Hits != 2 || st.Misses != st0.Misses {
		t.Fatalf("after ingest: cache %+v, before %+v; want a hit on each of 2 sealed parts", st, st0)
	}

	post(t, ts, "/delete?doc=0", "", http.StatusOK)
	delete(survivors, 0)
	if got := omega(); len(got) != 3 || got[0] == 0 {
		t.Fatalf("after deleting sealed doc 0: omega = %v, want docs 1-3", got)
	}

	post(t, ts, "/compact", "", http.StatusOK)
	st1 := srv.CacheStats()
	if got := omega(); len(got) != 3 || got[0] == 0 {
		t.Fatalf("after compaction: omega = %v, want docs 1-3", got)
	}
	if st := srv.CacheStats(); st.Hits != st1.Hits || st.Misses-st1.Misses != 1 {
		t.Fatalf("first read after compaction: cache %+v, before %+v; want one miss on the new segment, no hit", st, st1)
	}

	p := parser.New(nil)
	ref := &reference.Index{Lists: map[string]*postings.List{}}
	for doc := uint32(0); doc < 4; doc++ { // in docID order, as AddBlock needs
		text, ok := survivors[doc]
		if !ok {
			continue
		}
		blk := parser.NewBlock(0)
		p.ParseDoc(0, []byte(text), blk)
		if err := ref.AddBlock(blk, doc); err != nil {
			t.Fatal(err)
		}
	}
	for _, term := range []string{"omega", "alpha", "beta", "gamma", "delta"} {
		want, ok := ref.Lists[term]
		if !ok {
			getJSON(t, ts, "/postings?term="+term, http.StatusNotFound)
			continue
		}
		res := getJSON(t, ts, "/postings?term="+term, http.StatusOK)
		var got []uint32
		for _, d := range res["docs"].([]any) {
			got = append(got, uint32(d.(float64)))
		}
		if !reflect.DeepEqual(got, want.DocIDs) {
			t.Errorf("postings(%s) = %v, serial rebuild of the survivors has %v", term, got, want.DocIDs)
		}
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
