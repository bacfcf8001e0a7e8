package serve

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"fastinvert/internal/search"
)

// TestServerBlockRankedPath checks the static server serves /search
// topk through the block evaluators once the index is merged: results
// agree with the exhaustive scorer, the rank counters advance, and a
// re-query resolved from the postings cache (after exhaustive scoring
// populated it) still answers through pseudo-blocks.
func TestServerBlockRankedPath(t *testing.T) {
	idx := buildIndex(t)
	if _, err := idx.Merge(); err != nil {
		t.Fatal(err)
	}
	srv := New(idx, Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	words := pickWords(t, idx, 3)
	q := strings.Join(words, "+")

	got := getJSON(t, ts, "/search?mode=topk&k=5&q="+q, 200)
	st := srv.searcher.RankStats()
	if st.BlockQueries != 1 {
		t.Fatalf("block queries = %d, want 1 (stats %+v)", st.BlockQueries, st)
	}

	// The exhaustive scorer must agree exactly (it also warms the cache).
	srv.searcher.SetRankMode(search.RankExhaustive)
	want := getJSON(t, ts, "/search?mode=topk&k=5&q="+q, 200)
	if fmt.Sprint(got["ranked"]) != fmt.Sprint(want["ranked"]) {
		t.Fatalf("block ranked = %v\nexhaustive = %v", got["ranked"], want["ranked"])
	}

	// Back to auto: cached lists serve as exact pseudo-blocks.
	srv.searcher.SetRankMode(search.RankAuto)
	again := getJSON(t, ts, "/search?mode=topk&k=5&q="+q, 200)
	if fmt.Sprint(again["ranked"]) != fmt.Sprint(want["ranked"]) {
		t.Fatalf("cached block ranked = %v\nexhaustive = %v", again["ranked"], want["ranked"])
	}
	if st := srv.searcher.RankStats(); st.BlockQueries != 2 {
		t.Fatalf("block queries after cache warm = %d, want 2 (%+v)", st.BlockQueries, st)
	}
}

// TestServerRankParam checks the per-request evaluator override: both
// rank= values answer identically on the same query, auto advances the
// block counters, exhaustive does not, and anything else is a 400 —
// answered, like a bad mode or k, before the request is a query: no
// pool slot taken, nothing counted.
func TestServerRankParam(t *testing.T) {
	idx := buildIndex(t)
	if _, err := idx.Merge(); err != nil {
		t.Fatal(err)
	}
	srv := New(idx, Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	words := pickWords(t, idx, 3)
	q := strings.Join(words, "+")

	want := getJSON(t, ts, "/search?mode=topk&k=5&rank=exhaustive&q="+q, 200)
	if st := srv.searcher.RankStats(); st.BlockQueries != 0 {
		t.Fatalf("exhaustive override ran a block evaluator (%+v)", st)
	}
	got := getJSON(t, ts, "/search?mode=topk&k=5&rank=auto&q="+q, 200)
	if fmt.Sprint(got["ranked"]) != fmt.Sprint(want["ranked"]) {
		t.Fatalf("rank=auto: %v\nexhaustive: %v", got["ranked"], want["ranked"])
	}
	if st := srv.searcher.RankStats(); st.BlockQueries != 1 {
		t.Fatalf("rank=auto: block queries = %d, want 1", st.BlockQueries)
	}
	// A bad rank (the two evaluators folded into auto are no longer
	// values), mode or k is rejected before anything is counted.
	queries := srv.metrics.queries.Value()
	completed := srv.pool.Stats().Completed
	for _, params := range []string{
		"mode=topk&k=5&rank=wand", "mode=topk&k=5&rank=maxscore", "mode=topk&k=5&rank=bmw",
		"mode=bogus", "mode=AND", "mode=topk,and", "mode=bogus&rank=auto&k=5",
		"mode=topk&k=abc", "mode=and&k=0",
	} {
		m := getJSON(t, ts, "/search?"+params+"&q="+q, 400)
		if m["status"] != float64(400) || m["error"] == "" {
			t.Errorf("%s: error body = %v", params, m)
		}
	}
	if got := srv.metrics.queries.Value(); got != queries {
		t.Errorf("rejected parameters were counted as %v queries", got-queries)
	}
	if got := srv.metrics.errors.Value(); got != 0 {
		t.Errorf("rejected parameters were counted as %v query errors", got)
	}
	if got := srv.metrics.latency.Count(); float64(got) != queries {
		t.Errorf("hetserve_query_seconds holds %d observations after %v queries", got, queries)
	}
	if got := srv.pool.Stats().Completed; got != completed {
		t.Errorf("rejected parameters took %d pool slots", got-completed)
	}
}
