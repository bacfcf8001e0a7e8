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
//	/search?q=parallel+inverted&mode=topk&k=10   ranked / Boolean / phrase queries  } one compact line of
//	/postings?term=parallel&limit=50             one term's postings (404 if absent) } JSON each: | jq .
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
	"io"
	"log"
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
	log.SetFlags(0)
	log.SetPrefix("hetserve: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the command: it parses args, opens the index they name, and
// serves it until interrupted — or, with -selfcheck, until the seeded
// load has run — printing its status lines to w. Whatever it returns,
// the closers have run first: the memtable is sealed and the trace
// stream flushed before a failure is reported.
func run(args []string, w io.Writer) (err error) {
	fs := flag.NewFlagSet("hetserve", flag.ExitOnError)
	var (
		indexDir = fs.String("index", "", "built index directory (required; see cmd/hetindex)")
		addr     = fs.String("addr", ":8080", "listen address")
		cacheMB  = fs.Int64("cache-mb", 64, "postings cache budget in MiB")
		shards   = fs.Int("cache-shards", 16, "postings cache shard count")
		workers  = fs.Int("workers", 0, "query worker pool size (0 = GOMAXPROCS)")
		timeout  = fs.Duration("timeout", 2*time.Second, "per-query deadline")
		pprofOn  = fs.Bool("pprof", false, "mount /debug/pprof/ handlers")

		sample   = fs.Int("sample", 64, "head-sample one request in N into a full trace (0 disables tracing)")
		slowMS   = fs.Int("slow-ms", 250, "slow-query log threshold in milliseconds (negative logs every request)")
		traceReq = fs.String("trace-requests", "", "stream sampled request traces as JSON lines to this file")

		live       = fs.Bool("live", false, "serve a live LSM-style index from -index (created if empty)")
		positional = fs.Bool("positional", false, "live mode: index token positions (phrase queries)")
		sealEvery  = fs.Int("seal-every", 10000, "live mode: auto-seal the memtable every N documents (0 = manual)")
		compactAt  = fs.Int("compact-at", 4, "live mode: background-compact at N segments (0 = manual)")
		codec      = fs.String("codec", "auto", "live mode: postings codec for sealed segments")
		selfcheck  = fs.Bool("selfcheck", false, "live mode: drive a seeded ingest+query load against the server, then exit (CI trace harness)")
	)
	fs.Parse(args)
	if *indexDir == "" {
		fs.Usage()
		return errors.New("-index is required")
	}
	if *selfcheck && !*live {
		return errors.New("-selfcheck requires -live")
	}

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
			return err
		}
		defer func() {
			if cerr := tw.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("request trace: %w", cerr)
			}
		}()
		cfg.ReqTraces = tw
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
			return fmt.Errorf("open live index: %w", err)
		}
		defer mgr.Close() // seals the memtable so every ingested doc persists
		srv = serve.NewLive(mgr, cfg)
		st := mgr.Stats()
		where := *addr
		if *selfcheck {
			where = "a loopback selfcheck port"
		}
		fmt.Fprintf(w, "hetserve: live index, %d docs in %d segments — listening on %s\n",
			mgr.NumDocs(), st.Segments, where)
	} else {
		idx, err := store.OpenIndex(*indexDir)
		if err != nil {
			return fmt.Errorf("open index: %w", err)
		}
		defer idx.Close()
		srv = serve.New(idx, cfg)
		fmt.Fprintf(w, "hetserve: %d terms, %d runs — listening on %s\n",
			idx.Terms(), len(idx.Runs()), *addr)
	}
	defer srv.Close()

	if *selfcheck {
		if err := runSelfCheck(srv.Handler(), *positional); err != nil {
			return fmt.Errorf("selfcheck: %w", err)
		}
		fmt.Fprintln(w, "hetserve: selfcheck passed")
		return nil
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	select {
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			return err
		}
	case <-sig:
		fmt.Fprintln(w, "hetserve: shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
	}
	return nil
}
