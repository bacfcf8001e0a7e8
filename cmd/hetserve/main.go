// Command hetserve serves queries over a built index via HTTP/JSON:
//
//	hetserve -index ./index -addr :8080
//
// With -live the directory holds an LSM-style live index (created if
// empty) that accepts documents and deletions over HTTP while serving
// queries:
//
//	hetserve -live -index ./segments -addr :8080
//
// Endpoints:
//
//	/search?q=parallel+inverted&mode=topk&k=10   ranked / Boolean / phrase queries
//	/postings?term=parallel&limit=50             one term's postings (404 if absent)
//	/healthz                                     liveness + index shape
//	/metrics                                     Prometheus text exposition: query counters,
//	                                             latency histogram, cache hit/miss/eviction,
//	                                             pool in-flight, index shape
//	/debug/slowlog                               ring-buffered slow-query log (see -slow-ms)
//	/debug/trace                                 retained request traces; ?id=X dumps one span tree
//	/debug/pprof/                                net/http/pprof (behind -pprof; query goroutines
//	                                             carry endpoint and generation pprof labels)
//
// Live mode adds (POST only):
//
//	/ingest          body = document text; returns the assigned docID
//	/delete?doc=42   tombstone one document (idempotent; 404 if never assigned)
//	/seal            force the memtable into an on-disk segment
//	/compact         fold all segments into one, purging tombstones
//
// Queries execute on a bounded worker pool under a per-query deadline,
// reading postings through a sharded LRU cache; see internal/serve and
// internal/segment.
//
// Request tracing: -sample N head-samples one request in N into a full
// span tree (dictionary, cache, pread, decode, merge, memtable stages),
// retained at /debug/trace, broken down per stage on /metrics, and —
// with -trace-requests — streamed as JSON lines that cmd/tracecheck
// -requests validates. Requests at or over -slow-ms always land in
// /debug/slowlog, traced or not.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"fastinvert/internal/segment"
	"fastinvert/internal/serve"
	"fastinvert/internal/store"
	"fastinvert/internal/telemetry"
)

func main() {
	var (
		indexDir = flag.String("index", "", "built index directory (required; see cmd/hetindex)")
		addr     = flag.String("addr", ":8080", "listen address")
		cacheMB  = flag.Int64("cache-mb", 64, "postings cache budget in MiB")
		shards   = flag.Int("cache-shards", 16, "postings cache shard count")
		workers  = flag.Int("workers", 0, "query worker pool size (0 = GOMAXPROCS)")
		timeout  = flag.Duration("timeout", 2*time.Second, "per-query deadline")
		pprofOn  = flag.Bool("pprof", false, "mount /debug/pprof/ handlers")

		sample   = flag.Int("sample", 64, "head-sample one request in N into a full trace (0 disables tracing)")
		slowMS   = flag.Int("slow-ms", 250, "slow-query log threshold in milliseconds (negative logs every request)")
		traceReq = flag.String("trace-requests", "", "stream sampled request traces as JSON lines to this file")

		live       = flag.Bool("live", false, "serve a live LSM-style index from -index (created if empty)")
		positional = flag.Bool("positional", false, "live mode: index token positions (phrase queries)")
		sealEvery  = flag.Int("seal-every", 10000, "live mode: auto-seal the memtable every N documents (0 = manual)")
		compactAt  = flag.Int("compact-at", 4, "live mode: background-compact at N segments (0 = manual)")
		codec      = flag.String("codec", "auto", "live mode: postings codec for sealed segments")
		selfcheck  = flag.Bool("selfcheck", false, "live mode: drive a seeded ingest+query load against the server, then exit (CI trace harness)")
	)
	flag.Parse()
	if *indexDir == "" {
		fmt.Fprintln(os.Stderr, "hetserve: -index is required")
		flag.Usage()
		os.Exit(2)
	}

	// Registered before every closer below, so it runs after them: a
	// selfcheck failure must still seal the memtable and flush the trace
	// stream before the process reports it.
	failed := false
	defer func() {
		if failed {
			os.Exit(1)
		}
	}()

	cfg := serve.Config{
		CacheBytes:   *cacheMB << 20,
		CacheShards:  *shards,
		Workers:      *workers,
		QueryTimeout: *timeout,
		EnablePprof:  *pprofOn,
		SampleEvery:  *sample,
		SlowQuery:    time.Duration(*slowMS) * time.Millisecond,
	}
	if *traceReq != "" {
		tw, err := telemetry.CreateReqTraceFile(*traceReq)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hetserve: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			if err := tw.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "hetserve: request trace: %v\n", err)
			}
		}()
		cfg.ReqTraces = tw
	}
	if *selfcheck && !*live {
		fmt.Fprintln(os.Stderr, "hetserve: -selfcheck requires -live")
		os.Exit(2)
	}
	var srv *serve.Server
	if *live {
		mgr, err := segment.Open(*indexDir, segment.Options{
			Codec:      *codec,
			Positional: *positional,
			SealEvery:  *sealEvery,
			CompactAt:  *compactAt,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "hetserve: open live index: %v\n", err)
			os.Exit(1)
		}
		defer mgr.Close() // seals the memtable so every ingested doc persists
		srv = serve.NewLive(mgr, cfg)
		st := mgr.Stats()
		where := *addr
		if *selfcheck {
			where = "a loopback selfcheck port"
		}
		fmt.Printf("hetserve: live index, %d docs in %d segments — listening on %s\n",
			mgr.NumDocs(), st.Segments, where)
	} else {
		idx, err := store.OpenIndex(*indexDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hetserve: open index: %v\n", err)
			os.Exit(1)
		}
		defer idx.Close()
		srv = serve.New(idx, cfg)
		fmt.Printf("hetserve: %d terms, %d runs — listening on %s\n",
			idx.Terms(), len(idx.Runs()), *addr)
	}
	defer srv.Close()

	if *selfcheck {
		if err := runSelfCheck(srv.Handler(), *positional); err != nil {
			fmt.Fprintf(os.Stderr, "hetserve: selfcheck: %v\n", err)
			failed = true
			return
		}
		fmt.Println("hetserve: selfcheck passed")
		return
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "hetserve: %v\n", err)
			os.Exit(1)
		}
	case <-sig:
		fmt.Println("hetserve: shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "hetserve: shutdown: %v\n", err)
		}
	}
}
