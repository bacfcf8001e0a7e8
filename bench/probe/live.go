package probe

import (
	"context"
	"fmt"
	"net/url"
	"os"
	"strings"
	"time"

	"fastinvert/internal/search"
	"fastinvert/internal/segment"
	"fastinvert/internal/serve"
)

// LiveOp is one step of the live workload's schedule.
type LiveOp struct {
	Kind  string // "add", "delete" or "query"
	Doc   int    // add: index into docs; delete: the docID
	Words []string
}

// Live is the traced run of live_mixed: the operation schedule replayed
// in process on one thread, with seals and compactions called at the
// schedule's fixed points instead of by the manager's own triggers, so
// their counts and the bytes they write repeat exactly.
func Live(rec *Recorder, parent int64, dir string, docs [][]byte, ops []LiveOp, sealEvery, compactAt int, gate func(bool, string, ...any), logf func(string, ...any)) (map[string]float64, error) {
	m := map[string]float64{}
	ctx := context.Background()
	mgr, err := segment.Open(dir, segment.Options{Codec: "auto"})
	if err != nil {
		return nil, err
	}
	defer mgr.Close()
	srv := serve.NewLive(mgr, serve.Config{CacheBytes: 1})
	defer srv.Close()
	srch := search.NewWithSource(mgr)

	var add, seal, compact, handler, srchD, post, postPerQuery []time.Duration
	var text, written, compactedBytes int64
	known := map[string]bool{}
	// account charges every segment file created since the last call.
	account := func() error {
		entries, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		for _, e := range entries {
			name := e.Name()
			if known[name] || !(strings.HasSuffix(name, ".post") || strings.HasSuffix(name, ".dict")) {
				continue
			}
			known[name] = true
			info, err := e.Info()
			if err != nil {
				return err
			}
			written += info.Size()
		}
		return nil
	}

	id := rec.Begin(parent, "replay.live", "main")
	defer rec.End(id)
	added := 0
	for _, o := range ops {
		switch o.Kind {
		case "add":
			t := time.Now()
			_, err := mgr.AddDocument(docs[o.Doc])
			d := time.Since(t)
			if err != nil {
				return nil, err
			}
			rec.Add(id, "segment.add", "main", t, d)
			add = append(add, d)
			text += int64(len(docs[o.Doc]))
			if added++; added%sealEvery != 0 {
				continue
			}
			t = time.Now()
			if err := mgr.Seal(); err != nil {
				return nil, err
			}
			d = time.Since(t)
			rec.Add(id, "segment.seal", "main", t, d)
			seal = append(seal, d)
			if err := account(); err != nil {
				return nil, err
			}
			if st := mgr.Stats(); st.Segments >= compactAt {
				t = time.Now()
				if err := mgr.Compact(ctx); err != nil {
					return nil, err
				}
				d = time.Since(t)
				rec.Add(id, "segment.compact", "main", t, d)
				compact = append(compact, d)
				compactedBytes += st.SegmentBytes
				if err := account(); err != nil {
					return nil, err
				}
			}
		case "delete":
			if err := mgr.Delete(uint32(o.Doc)); err != nil {
				return nil, err
			}
		case "query":
			q := Query{Kind: "topk", Words: o.Words,
				Path: "/search?mode=topk&k=10&q=" + url.QueryEscape(strings.Join(o.Words, " "))}
			qid := rec.Begin(id, "query", "main")
			d, err := replayHandler(rec, qid, srv.Handler(), []Query{q})
			if err != nil {
				return nil, err
			}
			handler = append(handler, d[0])
			t := time.Now()
			if _, err := srch.TopKModeCtx(ctx, search.RankAuto, 10, o.Words...); err != nil {
				return nil, err
			}
			sd := time.Since(t)
			rec.Add(qid, "search.topk", "main", t, sd)
			srchD = append(srchD, sd)
			var perQuery time.Duration
			for _, w := range o.Words {
				term, stop := srch.Normalize(w)
				if stop || term == "" {
					continue
				}
				t = time.Now()
				if _, _, err := mgr.PostingsSizedCtx(ctx, term); err != nil {
					return nil, err
				}
				pd := time.Since(t)
				rec.Add(qid, "segment.postings", "main", t, pd)
				post = append(post, pd)
				perQuery += pd
			}
			postPerQuery = append(postPerQuery, perQuery)
			rec.End(qid)
		default:
			return nil, fmt.Errorf("live op %q", o.Kind)
		}
	}
	m["segment.add_us_p50"] = p50(add, time.Microsecond)
	m["segment.postings_us_p50"] = p50(post, time.Microsecond)
	m["segment.seal_ms_p50"] = p50(seal, time.Microsecond) / 1e3
	m["segment.seals"] = float64(len(seal))
	m["segment.compact_ms_p50"] = p50(compact, time.Microsecond) / 1e3
	m["segment.compactions"] = float64(len(compact))
	if c := total(compact); c > 0 {
		m["segment.compact_mb_s"] = float64(compactedBytes) / (1 << 20) / c.Seconds()
	}
	m["segment.write_amp"] = float64(written) / float64(text)
	m["serve.handler_us_p50"] = p50(handler, time.Microsecond)
	m["search.topk_us_p50"] = p50(srchD, time.Microsecond)
	if len(handler) > 0 {
		selfTimes(m, handler, srchD, postPerQuery, gate, logf)
	}
	return m, nil
}
