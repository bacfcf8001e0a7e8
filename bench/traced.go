package main

import (
	"path/filepath"
	"time"

	"fastinvert/bench/probe"
)

// tracedRun is the separate run that gives a workload's per-layer
// numbers: a short end-to-end pass for the counters /metrics exposes,
// then the in-process replays and probes of package probe, recorded as
// spans and written to tracePath when the run ends.
func tracedRun(e *env, workload, tracePath string) (map[string]float64, error) {
	e.sz.setupReps = 1
	rec := probe.NewRecorder()
	root := rec.Begin(0, workload, "main")
	var m map[string]float64
	var err error
	switch workload {
	case "build_web":
		m, err = tracedBuild(e, rec, root)
	case "live_mixed":
		m, err = tracedLive(e, rec, root)
	default:
		m, err = tracedServe(e, workload, rec, root)
	}
	rec.End(root)
	if err != nil {
		return nil, err
	}
	verr := probe.Validate(rec.Spans())
	e.gate(verr == nil, "span tree: %v", verr)
	return m, rec.WriteJSONL(tracePath)
}

// layerGate is the gate on how a traced run's layer timings add up.
func (e *env) layerGate(ok bool, format string, args ...any) {
	if e.sz.layerGates {
		e.gate(ok, format, args...)
	} else if !ok {
		e.logf("not gated at these sizes: "+format, args...)
	}
}

func tracedBuild(e *env, rec *probe.Recorder, root int64) (map[string]float64, error) {
	st, err := setupWeb(e, samples{})
	if err != nil {
		return nil, err
	}
	return probe.Build(rec, root, st.corpusDir, e.work, e.layerGate, e.logf)
}

// counterMetrics turns /metrics deltas over n requests into the
// per-layer numbers both serving modes share.
func counterMetrics(m, c map[string]float64, n float64) {
	if lookups := c["hetserve_cache_hits_total"] + c["hetserve_cache_misses_total"]; lookups > 0 {
		m["serve.cache_hit_ratio"] = c["hetserve_cache_hits_total"] / lookups
	}
	m["serve.cache_evictions"] = c["hetserve_cache_evictions_total"]
	m["search.blocks_decoded_per_query"] = c["hetserve_rank_blocks_decoded_total"] / n
	m["search.blocks_skipped_per_query"] = c["hetserve_rank_blocks_skipped_total"] / n
	if ranked := c["hetserve_rank_block_queries_total"] + c["hetserve_rank_fallback_queries_total"]; ranked > 0 {
		m["search.fallback_share"] = c["hetserve_rank_fallback_queries_total"] / ranked
	}
	m["store.bytes_read_per_query"] = c["hetserve_store_list_bytes_read_total"] / n
}

func tracedServe(e *env, kind string, rec *probe.Recorder, root int64) (map[string]float64, error) {
	st, err := setupServe(e, kind, samples{})
	if err != nil {
		return nil, err
	}
	r, err := serveOnce(e, st, time.Duration(e.sz.tracedSecs*float64(time.Second)))
	if err != nil {
		return nil, err
	}
	qs := make([]probe.Query, e.sz.tracedReqs)
	for i := range qs {
		qs[i] = probe.Query{Kind: st.reqs[i].kind, Words: st.reqs[i].words, Path: st.reqs[i].path}
	}
	m, err := probe.Serve(rec, root, st.indexDir, qs, e.layerGate, e.logf)
	if err != nil {
		return nil, err
	}
	l := summarize(lats(r.reqs))
	counterMetrics(m, r.counters, float64(l.n))
	m["serve.start_ms"] = r.startMS
	m["serve.cpu_ms_per_query"] = ms(r.cpu) / float64(l.n)
	m["serve.http_overhead_us"] = l.p50*1e3 - m["serve.handler_us_p50"]
	return m, nil
}

func tracedLive(e *env, rec *probe.Recorder, root int64) (map[string]float64, error) {
	_, res, err := runLive(e)
	if err != nil {
		return nil, err
	}
	ops := make([]probe.LiveOp, len(res.sched))
	queries := 0.0
	for i, o := range res.sched {
		ops[i] = probe.LiveOp{Kind: o.kind, Doc: o.doc, Words: o.words}
		if o.kind == "query" {
			queries++
		}
	}
	m, err := probe.Live(rec, root, filepath.Join(e.work, "live-replay"), res.docs.docs, ops, e.sz.sealEvery, 4, e.layerGate, e.logf)
	if err != nil {
		return nil, err
	}
	counterMetrics(m, res.counters, queries)
	il := summarize(lats(res.ingestLat))
	m["segment.ingest_p50_ms"], m["segment.ingest_p99_ms"], m["segment.ingest_max_ms"] = il.p50, il.p99, il.max
	m["serve.late_ms_p99"] = summarize(res.late).p99
	m["serve.start_ms"] = res.startMS
	m["serve.cpu_ms_per_query"] = res.cpuPerOp
	m["serve.http_overhead_us"] = res.searchP50*1e3 - m["serve.handler_us_p50"]
	return m, nil
}
