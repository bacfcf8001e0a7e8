package core

import (
	"strconv"
	"time"

	"fastinvert/internal/parser"
	"fastinvert/internal/sampling"
	"fastinvert/internal/telemetry"
)

// spanObserver is the engine's nil-safe view of Config.Observer: every
// method is a no-op when no observer is installed, so the uninstrumented
// build pays only a nil check per stage boundary. It generalizes the
// Hooks seam — Hooks inject faults at stage boundaries, the observer
// reports what actually happened at the same boundaries.
//
// All durations passed through are real wall-clock (time.Since), never
// scaled by CPUThroughputScale: telemetry answers "where did this build
// spend its time on this host", while Report keeps answering "what
// would the paper's platform have done".
type spanObserver struct {
	o telemetry.Observer
}

func (s spanObserver) active() bool { return s.o != nil }

func (s spanObserver) buildStart(files int, attrs map[string]any) {
	if s.o != nil {
		s.o.BuildStart(files, attrs)
	}
}

// span reports a stage busy span that started at t0 and ends now.
func (s spanObserver) span(stage string, worker, file int, t0 time.Time,
	bytes, tokens, docs int64) {
	if s.o != nil {
		s.o.StageSpan(stage, worker, file, t0, time.Since(t0), bytes, tokens, docs)
	}
}

func (s spanObserver) sample(name string, worker int, value float64) {
	if s.o != nil {
		s.o.Sample(name, worker, value)
	}
}

func (s spanObserver) total(name string, labels map[string]string, value float64) {
	if s.o != nil {
		s.o.Total(name, labels, value)
	}
}

func (s spanObserver) buildEnd(attrs map[string]any) {
	if s.o != nil {
		s.o.BuildEnd(attrs)
	}
}

// buildAttrs describes the pipeline shape for the build trace's attrs.
func (e *Engine) buildAttrs(files int, concurrent bool) map[string]any {
	return map[string]any{
		"files":      files,
		"parsers":    e.cfg.Parsers,
		"cpu":        e.cfg.CPUIndexers,
		"gpu":        e.cfg.GPUs,
		"concurrent": concurrent,
		"positional": e.cfg.Positional,
	}
}

// beginObserve arms the observer for one build.
func (e *Engine) beginObserve(files int, concurrent bool) {
	e.obs = spanObserver{e.cfg.Observer}
	e.collTokens = nil
	if e.obs.active() {
		e.collTokens = make(map[int]int64)
		e.obs.buildStart(files, e.buildAttrs(files, concurrent))
	}
}

// accountShares records per-trie-collection token counts while the
// sequencer splits a block, feeding the CPU/GPU split-skew totals.
// Called from the (serialized) sequencer only.
func (e *Engine) accountShares(blk *parser.Block) {
	if e.collTokens == nil {
		return
	}
	for gi, g := range blk.Groups {
		e.collTokens[gi] += int64(g.Tokens)
	}
}

// shareTokens sums the token count of one indexer's share of a block.
func shareTokens(groups []*parser.Group) int64 {
	var n int64
	for _, g := range groups {
		n += int64(g.Tokens)
	}
	return n
}

// endObserve emits the split-skew totals and the build summary, or
// the error a failed build returned.
func (e *Engine) endObserve(rep *Report, err error) {
	if !e.obs.active() {
		return
	}
	if err != nil {
		e.obs.buildEnd(map[string]any{"err": err.Error()})
		return
	}
	for coll, tokens := range e.collTokens {
		kind := "cpu"
		if k, _ := e.assign.Owner(coll); k == sampling.KindGPU {
			kind = "gpu"
		}
		e.obs.total("collection_tokens", map[string]string{
			"coll": strconv.Itoa(coll),
			"kind": kind,
		}, float64(tokens))
	}
	e.obs.buildEnd(map[string]any{
		"files":              rep.Files,
		"docs":               rep.Docs,
		"tokens":             rep.Tokens,
		"terms":              rep.Terms,
		"uncompressed_bytes": rep.UncompressedBytes,
		"postings_bytes":     rep.PostingsBytes,
		"dictionary_bytes":   rep.DictionaryBytes,
		"token_cache_hits":   rep.TokenCacheHits,
		"token_cache_misses": rep.TokenCacheMisses,
	})
}
