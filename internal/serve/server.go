// Package serve is the query-serving layer: it makes an opened index
// fast and safe under concurrent traffic. One size-bounded LRU of
// decoded postings (store.ListCache) is installed on the index it
// serves, a bounded worker pool executes queries under per-query
// deadlines, and Server exposes the whole thing over HTTP/JSON with
// Prometheus metrics at /metrics.
//
// The construction pipeline (internal/core) optimizes for build
// throughput; this package optimizes for the other half of the
// paper's story — the index being read "by a large number of users"
// — where the bottleneck is concurrent in-memory postings access.
package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fastinvert/internal/encoding"
	"fastinvert/internal/search"
	"fastinvert/internal/segment"
	"fastinvert/internal/store"
	"fastinvert/internal/telemetry"
)

// Config tunes a Server. The zero value selects sensible defaults.
type Config struct {
	// CacheBytes bounds the postings cache, charged the encoded
	// (on-disk) bytes of the lists it holds (default 64 MiB).
	CacheBytes int64
	// Workers bounds concurrent query execution (default GOMAXPROCS).
	Workers int
	// QueryTimeout is the per-query deadline applied on top of the
	// request context (default 2s).
	QueryTimeout time.Duration
	// MaxK caps the k parameter of ranked queries (default 1000).
	MaxK int
	// EnablePprof mounts net/http/pprof under /debug/pprof/ and labels
	// query goroutines with pprof labels (endpoint, generation).
	EnablePprof bool
	// SampleEvery head-samples one request in N into a full request
	// trace (span tree, per-stage histograms, /debug/trace retention).
	// 0 disables request tracing; 1 traces everything.
	SampleEvery int
	// SlowQuery is the tail-sampling latency threshold: requests at or
	// above it enter the slow-query log (and, when also head-sampled,
	// their traces are pinned against ring eviction). 0 selects 250ms;
	// negative treats every request as slow — useful for trace-capture
	// harnesses.
	SlowQuery time.Duration
	// TraceBufferSize bounds the in-memory trace retention ring served
	// by /debug/trace (default 256).
	TraceBufferSize int
	// SlowLogSize bounds the slow-query ring served by /debug/slowlog
	// (default 128).
	SlowLogSize int
	// DrainTimeout bounds how long Close waits for in-flight requests
	// to finish before closing the worker pool (default 5s).
	DrainTimeout time.Duration
	// ReqTraces, when non-nil, additionally streams every sampled trace
	// as a JSON line — the format cmd/tracecheck validates. The writer's
	// lifetime belongs to the caller.
	ReqTraces *telemetry.TraceWriter
	// Registry receives the server's metric families and is served at
	// /metrics in Prometheus text format. nil allocates a private one;
	// pass a shared registry to co-publish with other subsystems. Cache
	// and pool series are func-backed — they read the existing atomic
	// counters at scrape time, adding nothing to the query hot path.
	Registry *telemetry.Registry
}

func (c *Config) fill() {
	if c.CacheBytes <= 0 {
		c.CacheBytes = 64 << 20
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueryTimeout <= 0 {
		c.QueryTimeout = 2 * time.Second
	}
	if c.MaxK <= 0 {
		c.MaxK = 1000
	}
	if c.SlowQuery == 0 {
		c.SlowQuery = 250 * time.Millisecond
	}
	if c.TraceBufferSize <= 0 {
		c.TraceBufferSize = 256
	}
	if c.SlowLogSize <= 0 {
		c.SlowLogSize = 128
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 5 * time.Second
	}
	if c.Registry == nil {
		c.Registry = telemetry.NewRegistry()
	}
}

// Server serves Boolean, phrase and ranked queries over one opened
// index. Construct with New, mount Handler on an http.Server, and
// Close on shutdown (the index itself stays open; its lifetime belongs
// to the caller).
type Server struct {
	idx      *store.IndexReader // nil in live mode
	live     *segment.Manager   // nil in static mode
	cache    *store.ListCache
	searcher *search.Searcher
	pool     *Pool
	metrics  *Metrics
	cfg      Config
	mux      *http.ServeMux

	// Observability layer (see trace.go): head/tail sampler, retained
	// traces, the slow-query ring, and lazily-registered per-stage
	// histograms. inflight/closing implement drain-on-Close.
	sampler     *telemetry.Sampler
	traces      *telemetry.TraceBuffer
	slowlog     *telemetry.SlowLog
	slowQueries atomic.Uint64
	inflight    atomic.Int64
	closing     atomic.Bool
	stageMu     sync.Mutex
	stageHists  map[stageKey]*telemetry.Histogram
}

// newServer builds the parts common to both modes.
func newServer(cfg Config) *Server {
	return &Server{
		cache:      store.NewListCache(cfg.CacheBytes),
		pool:       NewPool(cfg.Workers),
		metrics:    NewMetricsOn(cfg.Registry),
		cfg:        cfg,
		mux:        http.NewServeMux(),
		sampler:    telemetry.NewSampler(cfg.SampleEvery, cfg.SlowQuery),
		traces:     telemetry.NewTraceBuffer(cfg.TraceBufferSize),
		slowlog:    telemetry.NewSlowLog(cfg.SlowLogSize),
		stageHists: make(map[stageKey]*telemetry.Histogram),
	}
}

// New wires the cache, worker pool and HTTP routes around an opened
// index. The server's cache replaces the reader's own, so every query
// path, /search and /postings alike, reads through this one.
func New(idx *store.IndexReader, cfg Config) *Server {
	cfg.fill()
	s := newServer(cfg)
	s.idx = idx
	idx.SetCache(s.cache)
	s.searcher = search.NewWithSource(idx)
	s.registerCommonMetrics(cfg.Registry, func() map[string]uint64 { return idx.Stats().CodecDecodes })
	s.registerStaticMetrics(cfg.Registry)
	s.registerRoutes()
	return s
}

// NewLive wires the same cache, pool and HTTP surface around a
// segment.Manager, adding the ingestion endpoints: documents stream in
// over /ingest while /search and /postings answer from the live
// segment views. The server's cache is installed on the manager's
// sealed segments; the memtables are read uncached. The manager's
// lifetime belongs to the caller, exactly like the static reader's.
func NewLive(mgr *segment.Manager, cfg Config) *Server {
	cfg.fill()
	s := newServer(cfg)
	s.live = mgr
	mgr.SetCache(s.cache)
	s.searcher = search.NewWithSource(mgr)
	s.registerCommonMetrics(cfg.Registry, mgr.CodecDecodes)
	s.registerLiveMetrics(cfg.Registry)
	s.registerRoutes()
	s.mux.HandleFunc("/ingest", s.instrument("ingest", s.handleIngest))
	s.mux.HandleFunc("/delete", s.instrument("delete", s.handleDelete))
	s.mux.HandleFunc("/seal", s.instrument("seal", s.handleSeal))
	s.mux.HandleFunc("/compact", s.instrument("compact", s.handleCompact))
	if s.sampler.Enabled() {
		// Background seals and compactions report their own operation
		// traces through the same retention ring and trace stream, so a
		// slow query can be correlated with the maintenance work that
		// ran beside it.
		mgr.SetTraceSink(func(t *telemetry.RequestTrace) {
			s.traces.Add(t)
			s.cfg.ReqTraces.Write(t)
		})
	}
	return s
}

func (s *Server) registerRoutes() {
	s.mux.HandleFunc("/search", s.instrument("search", s.handleSearch))
	s.mux.HandleFunc("/postings", s.instrument("postings", s.handlePostings))
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/debug/slowlog", s.handleSlowlog)
	s.mux.HandleFunc("/debug/trace", s.handleTraceDump)
	s.mux.Handle("/metrics", s.cfg.Registry.Handler())
	if s.cfg.EnablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
}

// registerCommonMetrics publishes the cache, pool, ranking and
// per-codec read series shared by both modes as func-backed metrics:
// values are read from the subsystems' own atomic counters only when
// /metrics is scraped. fetched reports the lists the index read from
// disk by codec name (store.ReadPath.ListsByCodec).
func (s *Server) registerCommonMetrics(reg *telemetry.Registry, fetched func() map[string]uint64) {
	reg.CounterFunc("hetserve_cache_hits_total",
		"Postings cache hits, one lookup per file part of a term.",
		func() float64 { return float64(s.cache.Stats().Hits) })
	reg.CounterFunc("hetserve_cache_misses_total",
		"Postings cache misses, one lookup per file part of a term.",
		func() float64 { return float64(s.cache.Stats().Misses) })
	reg.CounterFunc("hetserve_cache_evictions_total",
		"Postings cache LRU evictions.",
		func() float64 { return float64(s.cache.Stats().Evictions) })
	reg.GaugeFunc("hetserve_cache_entries",
		"Cached postings lists currently resident.",
		func() float64 { return float64(s.cache.Stats().Entries) })
	reg.GaugeFunc("hetserve_cache_bytes",
		"Encoded (on-disk) bytes of the postings lists currently cached.",
		func() float64 { return float64(s.cache.Stats().Bytes) })
	reg.Gauge("hetserve_pool_workers",
		"Size of the bounded query worker pool.").Set(float64(s.cfg.Workers))
	reg.GaugeFunc("hetserve_pool_in_flight",
		"Queries executing on pool workers right now.",
		func() float64 { return float64(s.pool.Stats().InFlight) })
	reg.CounterFunc("hetserve_pool_completed_total",
		"Queries completed by the worker pool.",
		func() float64 { return float64(s.pool.Stats().Completed) })
	reg.CounterFunc("hetserve_cache_evicted_bytes_total",
		"Bytes charged for entries evicted from the postings cache.",
		func() float64 { return float64(s.cache.Stats().EvictedBytes) })
	// Resident-entry shape, walked under the cache lock only when
	// /metrics is scraped: how old and how large the cached lists are.
	ageBounds := telemetry.ExpBuckets(1, 4, 8)
	reg.HistogramFunc("hetserve_cache_entry_age_seconds",
		"Age distribution of resident postings-cache entries.",
		ageBounds, func() telemetry.HistSnapshot { return s.cache.AgeHist(ageBounds) })
	sizeBounds := telemetry.ExpBuckets(64, 4, 8)
	reg.HistogramFunc("hetserve_cache_entry_bytes",
		"Charged-size distribution of resident postings-cache entries.",
		sizeBounds, func() telemetry.HistSnapshot { return s.cache.SizeHist(sizeBounds) })
	// Ranked-retrieval counters, read off the searcher's atomics at
	// scrape time: how many TopK calls the block evaluator served versus
	// fell back from, and how effective block skipping is.
	reg.CounterFunc("hetserve_rank_block_queries_total",
		"Ranked queries served by the block evaluator (block-max MaxScore).",
		func() float64 { return float64(s.searcher.RankStats().BlockQueries) })
	reg.CounterFunc("hetserve_rank_fallback_queries_total",
		"Ranked queries that fell back to the exhaustive scorer.",
		func() float64 { return float64(s.searcher.RankStats().FallbackQueries) })
	reg.CounterFunc("hetserve_rank_blocks_decoded_total",
		"Postings blocks decoded by the block evaluator.",
		func() float64 { return float64(s.searcher.RankStats().BlocksDecoded) })
	reg.CounterFunc("hetserve_rank_blocks_skipped_total",
		"Postings blocks the block evaluator left undecoded: passed by skip entry, or inside a window skipped because its block bounds could not beat the k-th score.",
		func() float64 { return float64(s.searcher.RankStats().BlocksSkipped) })
	reg.GaugeFunc("hetserve_inflight_requests",
		"HTTP requests currently inside an instrumented handler.",
		func() float64 { return float64(s.inflight.Load()) })
	reg.CounterFunc("hetserve_slow_queries_total",
		"Requests at or above the slow-query threshold.",
		func() float64 { return float64(s.slowQueries.Load()) })
	// Which registered postings codecs the read path actually exercised:
	// one count per list fetched from disk, whole or as blocks, in both
	// modes. A self-tuned index shows a mix.
	for _, c := range encoding.Codecs() {
		name := c.Name()
		reg.CounterFunc("hetserve_store_decode_"+name+"_total",
			"Postings lists fetched from disk that the "+name+" codec encoded.",
			func() float64 { return float64(fetched()[name]) })
	}
}

// registerStaticMetrics publishes the static reader's index-shape and
// store read-path series.
func (s *Server) registerStaticMetrics(reg *telemetry.Registry) {
	reg.GaugeFunc("hetserve_index_terms",
		"Distinct terms in the served index.",
		func() float64 { return float64(s.idx.Terms()) })
	reg.GaugeFunc("hetserve_index_runs",
		"Run files in the served index.",
		func() float64 { return float64(len(s.idx.Runs())) })
	// Store read-path series: whether lookups hit the monolithic merged
	// file or fell back to per-run assembly, and the raw list I/O both
	// paths performed. These come from the reader's own atomic counters;
	// a lookup counts whether its lists then came from the cache or disk.
	reg.GaugeFunc("hetserve_store_merged_active",
		"1 when term lookups are served from a validated merged.post, else 0.",
		func() float64 {
			if s.idx.MergedActive() {
				return 1
			}
			return 0
		})
	reg.CounterFunc("hetserve_store_merged_hits_total",
		"Term lookups answered from the merged postings file.",
		func() float64 { return float64(s.idx.Stats().MergedHits) })
	reg.CounterFunc("hetserve_store_run_fallbacks_total",
		"Term lookups assembled from per-run partial lists, for either reason.",
		func() float64 { return float64(s.idx.Stats().RunFallbacks) })
	reg.CounterFunc("hetserve_store_merged_read_errors_total",
		"Run fallbacks taken because a read of the active merged.post failed (the rest found none).",
		func() float64 { return float64(s.idx.Stats().MergedReadErrors) })
	reg.CounterFunc("hetserve_store_list_bytes_read_total",
		"Compressed postings bytes fetched from disk by the reader.",
		func() float64 { return float64(s.idx.Stats().ListBytesRead) })
}

// registerLiveMetrics publishes the segment manager's shape and
// lifecycle series, all func-backed off its atomic counters.
func (s *Server) registerLiveMetrics(reg *telemetry.Registry) {
	reg.GaugeFunc("hetserve_live_docs",
		"Non-deleted documents in the live index.",
		func() float64 { return float64(s.live.NumDocs()) })
	reg.GaugeFunc("hetserve_live_deleted",
		"Documents currently tombstoned (not yet purged).",
		func() float64 { return float64(s.live.Stats().Deleted) })
	reg.GaugeFunc("hetserve_live_segments",
		"Sealed immutable segments on disk.",
		func() float64 { return float64(s.live.Stats().Segments) })
	reg.GaugeFunc("hetserve_live_segment_bytes",
		"Total run-file bytes across sealed segments.",
		func() float64 { return float64(s.live.Stats().SegmentBytes) })
	reg.GaugeFunc("hetserve_live_memtable_docs",
		"Documents buffered in the live memtable, not counting a frozen one being sealed (hetserve_live_sealing).",
		func() float64 { return float64(s.live.Stats().MemtableDocs) })
	reg.GaugeFunc("hetserve_live_sealing",
		"Documents of the frozen memtable whose seal has not committed yet.",
		func() float64 { return float64(s.live.Stats().Sealing) })
	sealHist := reg.Histogram("hetserve_live_seal_seconds",
		"Seal duration from memtable freeze to commit.", nil)
	s.live.SetSealObserver(func(d time.Duration) { sealHist.Observe(d.Seconds()) })
	reg.CounterFunc("hetserve_live_seal_wait_seconds_total",
		"Time writers spent waiting for a previous seal before freezing a full memtable.",
		func() float64 { return s.live.Stats().SealWait.Seconds() })
	reg.CounterFunc("hetserve_live_seal_errors_total",
		"Seals that failed; their documents stay searchable until a retry commits them.",
		func() float64 { return float64(s.live.Stats().SealErrors) })
	reg.GaugeFunc("hetserve_live_memtable_terms",
		"Distinct terms in the in-memory write segment.",
		func() float64 { return float64(s.live.Stats().MemtableTerms) })
	reg.CounterFunc("hetserve_live_seals_total",
		"Memtable seals since the manager opened.",
		func() float64 { return float64(s.live.Stats().Seals) })
	reg.CounterFunc("hetserve_live_compactions_total",
		"Segment compactions since the manager opened.",
		func() float64 { return float64(s.live.Stats().Compactions) })
	reg.GaugeFunc("hetserve_live_generation",
		"Current index generation (advances on every visible mutation).",
		func() float64 { return float64(s.live.Gen()) })
}

// Handler returns the route multiplexer.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry returns the server's metrics registry (the one passed in
// Config.Registry, or the private default).
func (s *Server) Registry() *telemetry.Registry { return s.cfg.Registry }

// CacheStats exposes the postings-cache counters.
func (s *Server) CacheStats() store.CacheStats { return s.cache.Stats() }

// Close shuts the server down gracefully: new requests are refused
// with 503, in-flight ones get up to DrainTimeout to finish, then the
// worker pool closes (which itself lets running queries complete).
// Idempotent; concurrent calls all wait for the pool to drain.
func (s *Server) Close() {
	if !s.closing.Swap(true) {
		deadline := time.Now().Add(s.cfg.DrainTimeout)
		for s.inflight.Load() > 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
	s.pool.Close()
}

// Inflight reports the requests currently inside instrumented handlers.
func (s *Server) Inflight() int64 { return s.inflight.Load() }

// searchResponse is the /search JSON shape.
type searchResponse struct {
	Query  string      `json:"query"`
	Mode   string      `json:"mode"`
	K      int         `json:"k,omitempty"`
	Count  int         `json:"count"`
	Docs   []uint32    `json:"docs,omitempty"`
	Ranked []rankedDoc `json:"ranked,omitempty"`
	TookMs float64     `json:"took_ms"`
}

type rankedDoc struct {
	Doc   uint32  `json:"doc"`
	Score float64 `json:"score"`
}

// handleSearch evaluates q under the configured mode:
//
//	GET /search?q=parallel+inverted&mode=and|or|phrase|topk&k=10
//	    [&rank=auto|exhaustive]   topk evaluator override
//
// Every parameter is checked before the query costs anything: a bad
// mode, k or rank is a 400 that takes no pool slot and is not counted
// as a query. The query runs on a pool worker under the per-query
// deadline; a saturated pool makes callers wait here (backpressure),
// and an expired deadline aborts with 503.
func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	params := r.URL.Query()
	q := strings.TrimSpace(params.Get("q"))
	if q == "" {
		httpError(w, http.StatusBadRequest, "missing q parameter")
		return
	}
	mode := params.Get("mode")
	switch mode {
	case "":
		mode = "topk"
	case "and", "or", "phrase", "topk":
	default:
		httpError(w, http.StatusBadRequest, "serve: mode must be one of and, or, phrase, topk")
		return
	}
	k := 10
	if ks := params.Get("k"); ks != "" {
		v, err := strconv.Atoi(ks)
		if err != nil || v <= 0 {
			httpError(w, http.StatusBadRequest, "k must be a positive integer")
			return
		}
		k = v
	}
	if k > s.cfg.MaxK {
		k = s.cfg.MaxK
	}
	rankMode := s.searcher.GetRankMode()
	if v := params.Get("rank"); v != "" {
		m, ok := parseRankMode(v)
		if !ok {
			httpError(w, http.StatusBadRequest, "rank must be one of auto, exhaustive")
			return
		}
		rankMode = m
	}
	words := strings.Fields(q)

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.QueryTimeout)
	defer cancel()

	resp := searchResponse{Query: q, Mode: mode}
	t0 := time.Now()
	// The wait span measures time spent queued behind the bounded pool:
	// it opens before submission and the worker's first act is to close
	// it, so everything after nests as its siblings.
	wsp := telemetry.TraceFrom(ctx).StartSpan(telemetry.ReqStageWait)
	err := s.pool.Do(ctx, func(ctx context.Context) error {
		wsp.End()
		var err error
		switch mode {
		case "and":
			resp.Docs, err = s.searcher.AndCtx(ctx, words...)
		case "or":
			resp.Docs, err = s.searcher.OrCtx(ctx, words...)
		case "phrase":
			resp.Docs, err = s.searcher.PhraseCtx(ctx, words...)
		default: // topk: mode was validated above
			resp.K = k
			var ranked []search.ScoredDoc
			ranked, err = s.searcher.TopKModeCtx(ctx, rankMode, k, words...)
			resp.Ranked = make([]rankedDoc, len(ranked))
			for i, d := range ranked {
				resp.Ranked[i] = rankedDoc{Doc: d.Doc, Score: d.Score}
			}
		}
		resp.Count = len(resp.Docs) + len(resp.Ranked) // a mode fills one of the two
		return err
	})
	took := time.Since(t0)
	s.metrics.Observe(took, err)
	if err != nil {
		writeQueryError(w, err)
		return
	}
	resp.TookMs = float64(took) / float64(time.Millisecond)
	writeJSON(w, http.StatusOK, &resp)
}

// parseRankMode maps a non-empty rank query parameter onto the topk
// evaluation strategy (an absent parameter defers to the searcher's
// configured mode instead). Auto means the pruned evaluator whenever
// the index state can serve blocks, exhaustive otherwise.
func parseRankMode(v string) (search.RankMode, bool) {
	switch v {
	case "auto":
		return search.RankAuto, true
	case "exhaustive":
		return search.RankExhaustive, true
	}
	return 0, false
}

// postingsResponse is the /postings JSON shape.
type postingsResponse struct {
	Term       string   `json:"term"`
	Normalized string   `json:"normalized"`
	DF         int      `json:"df"`
	Docs       []uint32 `json:"docs"`
	TFs        []uint32 `json:"tfs"`
	Truncated  bool     `json:"truncated,omitempty"`
}

// handlePostings returns one term's postings, 404 for unknown terms:
//
//	GET /postings?term=parallel&limit=100
func (s *Server) handlePostings(w http.ResponseWriter, r *http.Request) {
	params := r.URL.Query()
	word := params.Get("term")
	if word == "" {
		httpError(w, http.StatusBadRequest, "missing term parameter")
		return
	}
	limit := 100
	if ls := params.Get("limit"); ls != "" {
		v, err := strconv.Atoi(ls)
		if err != nil || v <= 0 {
			httpError(w, http.StatusBadRequest, "limit must be a positive integer")
			return
		}
		limit = v
	}
	norm, stop := s.searcher.Normalize(word)
	if stop || norm == "" {
		httpError(w, http.StatusNotFound, fmt.Sprintf("%q is a stop word", word))
		return
	}
	// The static reader can reject unknown terms before scheduling any
	// work; the live index has no stable dictionary to pre-check against
	// (a concurrent ingest could add the term mid-request), so there an
	// empty result below becomes the 404.
	if s.idx != nil {
		if _, err := s.idx.LookupTerm(norm); err != nil {
			if errors.Is(err, store.ErrTermNotFound) {
				httpError(w, http.StatusNotFound, err.Error())
				return
			}
			writeQueryError(w, err)
			return
		}
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.QueryTimeout)
	defer cancel()
	resp := postingsResponse{Term: word, Normalized: norm}
	t0 := time.Now()
	wsp := telemetry.TraceFrom(ctx).StartSpan(telemetry.ReqStageWait)
	err := s.pool.Do(ctx, func(ctx context.Context) error {
		wsp.End()
		l, err := s.searcher.PostingsCtx(ctx, word)
		if err != nil {
			return err
		}
		resp.DF = l.Len()
		n := l.Len()
		if n > limit {
			n, resp.Truncated = limit, true
		}
		resp.Docs = l.DocIDs[:n]
		resp.TFs = l.TFs[:n]
		return nil
	})
	s.metrics.Observe(time.Since(t0), err)
	if err != nil {
		writeQueryError(w, err)
		return
	}
	if s.live != nil && resp.DF == 0 {
		httpError(w, http.StatusNotFound,
			fmt.Sprintf("store: term %q not found", norm))
		return
	}
	writeJSON(w, http.StatusOK, &resp)
}

// handleHealthz reports liveness plus basic index shape.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.live != nil {
		st := s.live.Stats()
		writeJSON(w, http.StatusOK, map[string]any{
			"status":        "ok",
			"mode":          "live",
			"docs":          s.live.NumDocs(),
			"deleted":       st.Deleted,
			"segments":      st.Segments,
			"memtable_docs": st.MemtableDocs,
			"generation":    st.Generation,
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":        "ok",
		"mode":          "static",
		"terms":         s.idx.Terms(),
		"docs":          s.searcher.NumDocs(),
		"runs":          len(s.idx.Runs()),
		"merged_active": s.idx.MergedActive(),
	})
}

// writeQueryError maps query failures to HTTP statuses.
func writeQueryError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		httpError(w, http.StatusServiceUnavailable, "query deadline exceeded")
	case errors.Is(err, context.Canceled):
		httpError(w, http.StatusServiceUnavailable, "query canceled")
	case errors.Is(err, ErrPoolClosed), errors.Is(err, store.ErrClosed):
		httpError(w, http.StatusServiceUnavailable, err.Error())
	case errors.Is(err, search.ErrInvalidK), errors.Is(err, search.ErrNotPositional):
		httpError(w, http.StatusBadRequest, err.Error())
	case errors.Is(err, store.ErrCorruptIndex):
		httpError(w, http.StatusInternalServerError, err.Error())
	default:
		httpError(w, http.StatusInternalServerError, err.Error())
	}
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]any{"error": msg, "status": status})
}
