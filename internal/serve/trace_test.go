package serve

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"fastinvert/internal/segment"
	"fastinvert/internal/telemetry"
)

// TestServerRequestTracing drives a live server with tracing fully on
// (sample everything, treat everything as slow) and checks the whole
// observability surface: the trace stream validates, a /search trace
// covers the five query stages, /debug/trace serves span trees,
// /debug/slowlog carries stage breakdowns, and background seal and
// compaction operations land in the same trace stream.
func TestServerRequestTracing(t *testing.T) {
	dir := t.TempDir()
	m, err := segment.Open(filepath.Join(dir, "seg"), segment.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	tracePath := filepath.Join(dir, "req.jsonl")
	tw, err := telemetry.CreateReqTraceFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewLive(m, Config{
		SampleEvery: 1,
		SlowQuery:   -1,
		ReqTraces:   tw,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	for _, text := range []string{
		"alpha beta gamma",
		"alpha delta",
		"beta gamma epsilon",
	} {
		post(t, ts, "/ingest", text, http.StatusOK)
	}
	post(t, ts, "/delete?doc=1", "", http.StatusOK)
	post(t, ts, "/seal", "", http.StatusOK)
	post(t, ts, "/compact", "", http.StatusOK)

	// Sealed-segment search: the cache miss fans out to the segment
	// (dict, pread, decode under a merge span) plus the memtable.
	res := getJSON(t, ts, "/search?q=alpha+beta&mode=and", http.StatusOK)
	if int(res["count"].(float64)) != 1 {
		t.Fatalf("and(alpha beta) = %v, want 1 doc", res)
	}
	getJSON(t, ts, "/search?q=gamma&mode=topk&k=3", http.StatusOK)
	getJSON(t, ts, "/postings?term=beta", http.StatusOK)

	// /debug/trace with no id lists retained traces; every request above
	// was sampled, and the seal and compaction ops joined the ring.
	dump := getJSON(t, ts, "/debug/trace", http.StatusOK)
	list := dump["traces"].([]any)
	endpoints := map[string]bool{}
	var searchID string
	for _, v := range list {
		rec := v.(map[string]any)
		endpoints[rec["endpoint"].(string)] = true
		if rec["endpoint"] == "search" && searchID == "" {
			searchID = rec["id"].(string)
		}
	}
	for _, want := range []string{"ingest", "seal", "compact", "search", "postings"} {
		if !endpoints[want] {
			t.Errorf("no retained trace for endpoint %q (got %v)", want, endpoints)
		}
	}
	if searchID == "" {
		t.Fatal("no search trace retained")
	}

	// The full span dump for one search trace.
	full := getJSON(t, ts, "/debug/trace?id="+searchID, http.StatusOK)
	spans := full["spans"].([]any)
	if len(spans) < 6 {
		t.Fatalf("search trace has %d spans, want >= 6: %v", len(spans), full)
	}
	if root := spans[0].(map[string]any); root["stage"] != "handler" || root["par"].(float64) != -1 {
		t.Fatalf("span 0 = %v, want root handler", root)
	}
	getJSON(t, ts, "/debug/trace?id=nosuchtrace", http.StatusNotFound)

	// Slow log: with SlowQuery < 0 every request is logged, with stage
	// breakdowns because they were also sampled.
	slow := getJSON(t, ts, "/debug/slowlog", http.StatusOK)
	if slow["total"].(float64) == 0 {
		t.Fatalf("slowlog empty under log-everything threshold: %v", slow)
	}
	foundStages := false
	for _, v := range slow["entries"].([]any) {
		e := v.(map[string]any)
		if e["endpoint"] == "search" {
			if st, ok := e["stages"].(map[string]any); ok && len(st) >= 5 {
				foundStages = true
			}
		}
	}
	if !foundStages {
		t.Errorf("no search slowlog entry with >= 5 stages: %v", slow["entries"])
	}

	// The JSONL stream must pass the same validator cmd/tracecheck runs
	// in CI — including the span-sum invariant — and must show a search
	// covering at least five distinct query stages.
	srv.Close()
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	stats, err := telemetry.ValidateRequestTraceFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if stats.MaxQueryStages < 5 {
		t.Errorf("max query stages = %d, want >= 5 (stage ms: %v)",
			stats.MaxQueryStages, stats.StageMs)
	}
	for _, ep := range []string{"search", "postings", "ingest", "seal", "compact"} {
		if stats.Endpoints[ep] == 0 {
			t.Errorf("trace stream has no %q traces: %v", ep, stats.Endpoints)
		}
	}
}

// TestServerMetricsLiveGolden is the schema-drift gate for live-mode
// /metrics: after traced traffic, the set of hetserve_* families the
// endpoint renders must match the golden list exactly — a missing
// family is a broken dashboard, an unexpected one is an unreviewed
// schema change.
func TestServerMetricsLiveGolden(t *testing.T) {
	m, err := segment.Open(t.TempDir(), segment.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	srv := NewLive(m, Config{SampleEvery: 1, SlowQuery: -1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post(t, ts, "/ingest", "alpha beta", http.StatusOK)
	post(t, ts, "/seal", "", http.StatusOK)
	// Sampled searches populate the per-stage histograms (lazily
	// registered); the repeat warms the cache.
	getJSON(t, ts, "/search?q=alpha&mode=and", http.StatusOK)
	getJSON(t, ts, "/search?q=alpha&mode=and", http.StatusOK)

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)

	got := map[string]bool{}
	for _, line := range strings.Split(string(body), "\n") {
		if !strings.HasPrefix(line, "# TYPE hetserve_") {
			continue
		}
		got[strings.Fields(line)[2]] = true
	}

	golden, err := os.ReadFile(filepath.Join("testdata", "metrics_live_families.golden"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, name := range strings.Fields(string(golden)) {
		want[name] = true
	}
	var missing, extra []string
	for name := range want {
		if !got[name] {
			missing = append(missing, name)
		}
	}
	for name := range got {
		if !want[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(missing)
	sort.Strings(extra)
	if len(missing) > 0 {
		t.Errorf("/metrics missing families %v", missing)
	}
	if len(extra) > 0 {
		t.Errorf("/metrics renders families not in golden (update testdata/metrics_live_families.golden): %v", extra)
	}

	// Spot-check the series the families stand for actually carry data.
	text := string(body)
	for _, want := range []string{
		`hetserve_endpoint_seconds_bucket{endpoint="search",le="+Inf"} 2`,
		`hetserve_stage_seconds_bucket{endpoint="search",stage="cache",le="+Inf"} 2`,
		`hetserve_stage_seconds_bucket{endpoint="search",stage="pread"`,
		`hetserve_stage_seconds_bucket{endpoint="search",stage="decode"`,
		"hetserve_store_decode_", // at least one per-codec counter
		"hetserve_slow_queries_total 4",
		"hetserve_inflight_requests 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestServerShutdownDrain closes the server under 16-goroutine load
// (run with -race): every response must be a clean 200 or a 503 —
// never a hang or a torn write — and once Close returns no request is
// inside a handler.
func TestServerShutdownDrain(t *testing.T) {
	m, err := segment.Open(t.TempDir(), segment.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	srv := NewLive(m, Config{Workers: 4, DrainTimeout: 2 * time.Second})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post(t, ts, "/ingest", "alpha beta gamma", http.StatusOK)

	const goroutines = 16
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				resp, err := ts.Client().Get(ts.URL + "/search?q=alpha&mode=and")
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK &&
					resp.StatusCode != http.StatusServiceUnavailable {
					errs <- &httpStatusError{resp.StatusCode}
					return
				}
			}
		}()
	}
	time.Sleep(5 * time.Millisecond) // let the load ramp up
	srv.Close()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := srv.Inflight(); n != 0 {
		t.Errorf("inflight = %d after Close, want 0", n)
	}
	// The closing gate refuses new work outright.
	getJSON(t, ts, "/search?q=alpha&mode=and", http.StatusServiceUnavailable)
}

type httpStatusError struct{ status int }

func (e *httpStatusError) Error() string {
	return "unexpected status " + http.StatusText(e.status)
}

// TestTracingZeroAllocFastPath is the acceptance gate for unsampled
// requests: with sampling off, the full instrumentation wrapper and
// the context-aware cache read path must not allocate.
func TestTracingZeroAllocFastPath(t *testing.T) {
	cfg := Config{}
	cfg.fill()
	s := newServer(cfg)
	defer s.pool.Close()
	h := s.instrument("bench", func(w http.ResponseWriter, r *http.Request) {})
	req := httptest.NewRequest(http.MethodGet, "/bench?q=x", nil)
	w := &nopResponseWriter{hdr: make(http.Header)}
	if n := testing.AllocsPerRun(500, func() { h(w, req) }); n != 0 {
		t.Errorf("unsampled instrumented request allocates %.1f per call, want 0", n)
	}

	cs := &cachedSource{cache: NewPostingsCache(2, 1<<20)}
	cs.cache.Put("term", listOfLen(16))
	ctx := context.Background()
	if n := testing.AllocsPerRun(500, func() {
		if _, err := cs.PostingsCtx(ctx, "term"); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("untraced warm PostingsCtx allocates %.1f per call, want 0", n)
	}
}

// nopResponseWriter discards the response, keeping its status and the
// number of body bytes.
type nopResponseWriter struct {
	hdr    http.Header
	status int
	bytes  int
}

func (w *nopResponseWriter) Header() http.Header { return w.hdr }
func (w *nopResponseWriter) Write(b []byte) (int, error) {
	w.bytes += len(b)
	return len(b), nil
}
func (w *nopResponseWriter) WriteHeader(status int) { w.status = status }
