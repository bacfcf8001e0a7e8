package probe

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"fastinvert"
	"fastinvert/internal/encoding"
	"fastinvert/internal/search"
	"fastinvert/internal/serve"
)

// Query is one request of a serve workload, as the replay needs it.
type Query struct {
	Kind  string // "topk", "and" or "postings"
	Words []string
	Path  string // the HTTP request line's path and query
}

// replayHandler sends every query through h single-threaded and times
// each; with a recorder the timings become spans under parent.
func replayHandler(rec *Recorder, parent int64, h http.Handler, qs []Query) ([]time.Duration, error) {
	out := make([]time.Duration, len(qs))
	for i, q := range qs {
		req := httptest.NewRequest("GET", q.Path, nil)
		w := httptest.NewRecorder()
		t := time.Now()
		h.ServeHTTP(w, req)
		out[i] = time.Since(t)
		if rec != nil {
			rec.Add(parent, "serve.request", "main", t, out[i])
		}
		if w.Code != 200 && !(q.Kind == "postings" && w.Code == 404) {
			return nil, fmt.Errorf("replay %s: status %d: %.200s", q.Path, w.Code, w.Body.String())
		}
	}
	return out, nil
}

// searchOne evaluates q on the Searcher the way the handler does.
func searchOne(ctx context.Context, s *fastinvert.Searcher, mode search.RankMode, q Query) error {
	var err error
	switch q.Kind {
	case "topk":
		_, err = s.TopKModeCtx(ctx, mode, 10, q.Words...)
	case "and":
		_, err = s.AndCtx(ctx, q.Words...)
	default:
		_, err = s.PostingsCtx(ctx, q.Words[0])
	}
	return err
}

// chunk is how many requests one level replays before the next level
// takes the same ones. The levels alternate this often so that a slow
// spell of the machine hits all of them alike, and a difference between
// two levels is a difference in work. Whichever level goes first on a
// chunk finds its lists cold in the CPU's caches and the later ones
// find them warm (a tenth faster on serve_bool), so the order rotates
// from chunk to chunk and every level goes first equally often.
const chunk = 25

// Serve is the traced run of a static serve workload: the request list
// replayed in process, single-threaded, through each level in turn on
// a reader and a server without caches, so that a level's self time is
// its time minus the level below on the same inputs. gate is told
// whether each self time came out non-negative.
func Serve(rec *Recorder, parent int64, indexDir string, qs []Query, gate func(bool, string, ...any), logf func(string, ...any)) (map[string]float64, error) {
	m := map[string]float64{}
	ctx := context.Background()
	idx, err := fastinvert.OpenWith(indexDir, fastinvert.ReaderOptions{CacheBytes: 1})
	if err != nil {
		return nil, err
	}
	defer idx.Close()
	// Level 1 is the handler, with request tracing off and, for the
	// tracing overhead, on; level 2 the Searcher; level 3 the Index.
	plain := serve.New(idx, serve.Config{CacheBytes: 1, SampleEvery: 0})
	defer plain.Close()
	sampled := serve.New(idx, serve.Config{CacheBytes: 1, SampleEvery: 1})
	defer sampled.Close()
	s := fastinvert.NewSearcher(idx)
	if _, err := replayHandler(nil, 0, plain.Handler(), qs[:min(len(qs), 200)]); err != nil {
		return nil, err
	}

	var handler, on, srch, topk, and, exh, store, read []time.Duration
	var lookup time.Duration
	var lookups int
	var terms []string // distinct, in order of first use
	seen := map[string]bool{}
	passes := []func(part []Query) error{
		func(part []Query) error { // level 1
			id := rec.Begin(parent, "replay.handler", "main")
			d, err := replayHandler(rec, id, plain.Handler(), part)
			rec.End(id)
			handler = append(handler, d...)
			return err
		},
		func(part []Query) error { // level 1 with request tracing
			d, err := replayHandler(nil, 0, sampled.Handler(), part)
			on = append(on, d...)
			return err
		},
		func(part []Query) error { // level 2
			id := rec.Begin(parent, "replay.search", "main")
			defer rec.End(id)
			for _, q := range part {
				t := time.Now()
				if err := searchOne(ctx, s, search.RankAuto, q); err != nil {
					return err
				}
				d := time.Since(t)
				rec.Add(id, "search."+q.Kind, "main", t, d)
				srch = append(srch, d)
				switch q.Kind {
				case "topk":
					topk = append(topk, d)
				case "and":
					and = append(and, d)
				}
			}
			return nil
		},
		func(part []Query) error { // level 2, ranked queries scored exhaustively
			for _, q := range part {
				if q.Kind != "topk" {
					continue
				}
				t := time.Now()
				if err := searchOne(ctx, s, search.RankExhaustive, q); err != nil {
					return err
				}
				exh = append(exh, time.Since(t))
			}
			return nil
		},
		func(part []Query) error { // level 3: what the Searcher asks the store for
			id := rec.Begin(parent, "replay.store", "main")
			defer rec.End(id)
			for _, q := range part {
				var perQuery time.Duration
				for _, w := range q.Words {
					term, stop := s.Normalize(w)
					if stop || term == "" {
						continue
					}
					if !seen[term] {
						seen[term] = true
						terms = append(terms, term)
					}
					t := time.Now()
					_, lerr := idx.LookupTerm(term)
					lookup += time.Since(t)
					lookups++
					if lerr != nil {
						continue // a word the index does not hold costs the store nothing more
					}
					var err error
					t = time.Now()
					if q.Kind == "topk" {
						_, err = idx.BlockPostingsCtx(ctx, term)
					} else {
						_, _, err = idx.PostingsEncodedCtx(ctx, term)
					}
					d := time.Since(t)
					if err != nil {
						return err
					}
					rec.Add(id, "store.list", "main", t, d)
					perQuery += d
					if q.Kind != "topk" {
						read = append(read, d)
					}
				}
				store = append(store, perQuery)
			}
			return nil
		},
	}
	for lo, first := 0, 0; lo < len(qs); lo, first = lo+chunk, first+1 {
		part := qs[lo:min(lo+chunk, len(qs))]
		for k := range passes {
			if err := passes[(first+k)%len(passes)](part); err != nil {
				return nil, err
			}
		}
	}
	m["serve.handler_us_p50"] = p50(handler, time.Microsecond)
	// The tracing overhead is the median over requests of what the same
	// request took longer with tracing on; a mean would be decided by
	// where the collector happened to run among the few heavy requests.
	extra := make([]time.Duration, len(on))
	for i := range on {
		extra[i] = on[i] - handler[i]
	}
	m["telemetry.reqtrace_overhead_pct"] = 100 * p50(extra, time.Microsecond) / m["serve.handler_us_p50"]
	m["search.topk_us_p50"] = p50(topk, time.Microsecond)
	m["search.and_us_p50"] = p50(and, time.Microsecond)
	m["search.topk_exhaustive_us_p50"] = p50(exh, time.Microsecond)
	next := 0
	m["search.allocs_per_query"] = testing.AllocsPerRun(min(len(qs), 300)-1, func() {
		searchOne(ctx, s, search.RankAuto, qs[next%len(qs)])
		next++
	})
	if lookups > 0 {
		m["store.dict_lookup_ns"] = float64(lookup.Nanoseconds()) / float64(lookups)
	}
	m["store.read_decode_us_p50"] = p50(read, time.Microsecond)
	selfTimes(m, handler, srch, store, gate, logf)

	return m, probeDecode(idx, indexDir, terms, m)
}

// selfTimes turns three levels' timings of the same requests into each
// level's self time, per request: a level's time minus the level
// below. The three sum to the handler's mean by construction; that
// each is at least zero is not, and is gated.
func selfTimes(m map[string]float64, handler, srch, store []time.Duration, gate func(bool, string, ...any), logf func(string, ...any)) {
	n := float64(len(handler))
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 / n }
	m["serve.self_us"] = us(total(handler) - total(srch))
	m["search.self_us"] = us(total(srch) - total(store))
	m["store.self_us"] = us(total(store))
	for _, name := range []string{"serve.self_us", "search.self_us", "store.self_us"} {
		gate(m[name] >= 0, "%s is %.1f us: a lower level took longer than the level above it on the same requests", name, m[name])
	}
	logf("layers: serve self %.1f + search self %.1f + store self %.1f = %.1f us of handler mean %.1f us (p50 %.1f us)",
		m["serve.self_us"], m["search.self_us"], m["store.self_us"],
		m["serve.self_us"]+m["search.self_us"]+m["store.self_us"], us(total(handler)), m["serve.handler_us_p50"])
}

// probeDecode times block decode on the query terms' stored blocks, and
// whole-list decode on the same lists re-encoded with each codec the
// index actually chose.
func probeDecode(idx *fastinvert.Index, indexDir string, terms []string, m map[string]float64) error {
	ctx := context.Background()
	vr, err := fastinvert.VerifyIndex(indexDir)
	if err != nil {
		return err
	}
	var blockNS, blockPostings int64
	codecNS, codecPostings := map[string]int64{}, map[string]int64{}
	for _, term := range terms[:min(len(terms), 400)] {
		tb, err := idx.BlockPostingsCtx(ctx, term)
		if err != nil {
			return err
		}
		if tb != nil {
			for _, bl := range tb.Lists {
				for i := 0; i < bl.NumBlocks(); i++ {
					t := time.Now()
					docs, _, err := bl.DecodeBlock(i)
					blockNS += time.Since(t).Nanoseconds()
					if err != nil {
						return err
					}
					blockPostings += int64(len(docs))
				}
			}
		}
		l, _, err := idx.PostingsEncodedCtx(ctx, term)
		if err != nil {
			return err
		}
		if l.Len() == 0 {
			continue
		}
		for _, name := range []string{"varbyte", "bitpack", "eliasfano"} {
			if vr.MergedCodecs[name] == 0 {
				continue
			}
			c, err := encoding.ByName(name)
			if err != nil {
				return err
			}
			blob, err := c.Encode(nil, l.DocIDs, l.TFs, nil)
			if err != nil {
				return err
			}
			t := time.Now()
			_, _, _, err = c.Decode(blob, l.Len(), false)
			codecNS[name] += time.Since(t).Nanoseconds()
			if err != nil {
				return err
			}
			codecPostings[name] += int64(l.Len())
		}
	}
	if blockPostings > 0 {
		m["store.block_decode_ns_per_posting"] = float64(blockNS) / float64(blockPostings)
	}
	for name, n := range codecPostings {
		m["encoding.decode_ns_per_posting."+name] = float64(codecNS[name]) / float64(n)
	}
	return nil
}
