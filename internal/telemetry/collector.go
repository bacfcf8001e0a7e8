package telemetry

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Observer receives stage-level telemetry from the build pipeline. It
// generalizes the core.Hooks fault-injection seam into a read-only
// observation seam: the engine reports what happened at each stage
// boundary and the observer decides what to do with it. Implementations
// must be safe for concurrent use — spans arrive from parser, disk and
// indexer goroutines in the concurrent executor.
//
// A nil Observer everywhere means zero overhead: the engine guards
// every call site.
type Observer interface {
	// BuildStart opens the observation window. totalFiles sizes ETA
	// math; attrs carries config shape (parsers, cpu, gpu, ...).
	BuildStart(totalFiles int, attrs map[string]any)

	// StageSpan reports one completed busy span of a stage. worker is
	// the parser/indexer index (-1 for singleton stages), file the
	// container file (-1 if n/a). start/dur are real wall-clock, never
	// model-scaled.
	StageSpan(stage string, worker, file int, start time.Time, dur time.Duration,
		bytes, tokens, docs int64)

	// Sample reports a point-in-time measurement, e.g. pipeline buffer
	// occupancy observed by the sequencer.
	Sample(name string, worker int, value float64)

	// Total reports a final named total with labels, e.g. the
	// per-trie-collection token counts split by cpu/gpu ownership.
	Total(name string, labels map[string]string, value float64)

	// BuildEnd closes the window; attrs carries the summary totals.
	BuildEnd(attrs map[string]any)
}

// Collector is the standard Observer: it derives per-worker stall
// spans from the gaps between busy spans, maintains registry metrics
// (stage seconds, span histograms, byte/doc/token totals), forwards
// everything to an optional TraceWriter, and serves live Progress
// snapshots for CLI tickers. Both Registry and Trace may be nil.
type Collector struct {
	reg   *Registry
	trace *TraceWriter

	mu         sync.Mutex
	epoch      time.Time
	started    bool
	totalFiles int
	lastEnd    map[string]float64 // "stage/worker" -> end of last busy/stall span
	stageBusy  map[string]float64 // busy seconds per stage (stalls under "stall:<of>")
	workers    map[string]int     // stage -> max worker index + 1

	filesDone   atomic.Int64
	docs        atomic.Int64
	tokens      atomic.Int64
	readBytes   atomic.Int64
	parsedBytes atomic.Int64
}

// NewCollector wires a collector onto a registry and an optional trace
// writer.
func NewCollector(reg *Registry, trace *TraceWriter) *Collector {
	return &Collector{
		reg:       reg,
		trace:     trace,
		lastEnd:   make(map[string]float64),
		stageBusy: make(map[string]float64),
		workers:   make(map[string]int),
	}
}

// Registry returns the collector's registry (may be nil).
func (c *Collector) Registry() *Registry { return c.reg }

// BuildStart implements Observer.
func (c *Collector) BuildStart(totalFiles int, attrs map[string]any) {
	c.mu.Lock()
	c.epoch = time.Now()
	c.started = true
	c.totalFiles = totalFiles
	c.mu.Unlock()
	if c.reg != nil {
		c.reg.Gauge("fastinvert_build_files_total",
			"Container files in the collection being built.").Set(float64(totalFiles))
	}
	if c.trace != nil {
		c.trace.Meta(attrs)
	}
}

// streamKey identifies one worker's busy/stall timeline.
func streamKey(stage string, worker int) string {
	return fmt.Sprintf("%s/%d", stage, worker)
}

// stalledStages are the stages whose workers get derived stall spans:
// the pipeline's parallel actors, whose idle time is the backpressure
// signal the trace exists to expose.
func stalled(stage string) bool { return stage == StageParse || stage == StageIndex }

// StageSpan implements Observer.
func (c *Collector) StageSpan(stage string, worker, file int, start time.Time,
	dur time.Duration, bytes, tokens, docs int64) {
	c.mu.Lock()
	if !c.started {
		c.epoch = start
		c.started = true
	}
	rel := start.Sub(c.epoch).Seconds()
	if rel < 0 {
		rel = 0
	}
	d := dur.Seconds()
	var stallSpan *Span
	if stalled(stage) {
		key := streamKey(stage, worker)
		if gap := rel - c.lastEnd[key]; gap > 1e-6 {
			stallSpan = &Span{
				Stage: StageStall, Of: stage, Worker: worker, File: -1,
				Start: c.lastEnd[key], Dur: gap,
			}
			c.stageBusy["stall:"+stage] += gap
		}
		if end := rel + d; end > c.lastEnd[key] {
			c.lastEnd[key] = end
		}
		if worker+1 > c.workers[stage] {
			c.workers[stage] = worker + 1
		}
	}
	c.stageBusy[stage] += d
	c.mu.Unlock()

	switch stage {
	case StageRead:
		c.readBytes.Add(bytes)
	case StageParse:
		c.parsedBytes.Add(bytes)
		c.docs.Add(docs)
		c.tokens.Add(tokens)
	case StageFlush:
		c.filesDone.Add(1)
	}

	if c.reg != nil {
		lbl := L("stage", stage)
		c.reg.Counter("fastinvert_build_stage_seconds_total",
			"Busy seconds per pipeline stage (stall rows are derived idle gaps).", lbl).Add(d)
		c.reg.Counter("fastinvert_build_stage_spans_total",
			"Completed spans per pipeline stage.", lbl).Inc()
		c.reg.Histogram("fastinvert_build_span_seconds",
			"Distribution of per-span durations by stage.", DefBuckets, lbl).Observe(d)
		if bytes > 0 {
			c.reg.Counter("fastinvert_build_stage_bytes_total",
				"Input bytes processed per stage.", lbl).Add(float64(bytes))
		}
		if stallSpan != nil {
			c.reg.Counter("fastinvert_build_stage_seconds_total",
				"Busy seconds per pipeline stage (stall rows are derived idle gaps).",
				L("stage", "stall_"+stage)).Add(stallSpan.Dur)
		}
		// Doc/token totals count the parse stage only: index spans carry
		// the same tokens again (each occurrence is parsed once, then
		// indexed once) and must not double the counters.
		if stage == StageParse {
			if docs > 0 {
				c.reg.Counter("fastinvert_build_docs_total",
					"Documents parsed.").Add(float64(docs))
			}
			if tokens > 0 {
				c.reg.Counter("fastinvert_build_tokens_total",
					"Term occurrences parsed (after stop-word removal).").Add(float64(tokens))
			}
		}
		// The sampling span carries the size of the sample it took; its
		// bytes are in stage_bytes_total{stage="sampling"} above.
		if stage == StageSampling {
			c.reg.Counter("fastinvert_build_sampled_docs_total",
				"Documents parsed by the sampling phase.").Add(float64(docs))
			c.reg.Counter("fastinvert_build_sampled_tokens_total",
				"Term occurrences counted by the sampling phase.").Add(float64(tokens))
		}
		if stage == StageFlush {
			c.reg.Gauge("fastinvert_build_files_done",
				"Container files fully indexed and flushed.").Set(float64(c.filesDone.Load()))
		}
	}
	if c.trace != nil {
		if stallSpan != nil {
			c.trace.Span(*stallSpan)
		}
		c.trace.Span(Span{
			Stage: stage, Worker: worker, File: file,
			Start: rel, Dur: d, Bytes: bytes, Tokens: tokens, Docs: docs,
		})
	}
}

// Sample implements Observer.
func (c *Collector) Sample(name string, worker int, value float64) {
	if c.reg != nil {
		c.reg.Gauge("fastinvert_build_"+name,
			"Point-in-time pipeline sample.", L("worker", fmt.Sprintf("%d", worker))).Set(value)
	}
	if c.trace != nil {
		c.trace.Sample(name, worker, value)
	}
}

// Total implements Observer. The trace keeps the full label set (one
// counter line per trie collection); the registry drops the
// high-cardinality "coll" label and aggregates, so the Prometheus
// snapshot stays a handful of series per total.
func (c *Collector) Total(name string, labels map[string]string, value float64) {
	if c.reg != nil {
		ls := make([]Label, 0, len(labels))
		for k, v := range labels {
			if k == "coll" {
				continue
			}
			ls = append(ls, L(k, v))
		}
		c.reg.Counter("fastinvert_build_"+name, "Final build total.", ls...).Add(value)
	}
	if c.trace != nil {
		c.trace.Counter(name, labels, value)
	}
}

// BuildEnd implements Observer: closes every stalled worker's timeline
// with a tail stall span so busy+stall tiles the whole build window,
// then emits the trace summary.
func (c *Collector) BuildEnd(attrs map[string]any) {
	c.mu.Lock()
	wall := time.Since(c.epoch).Seconds()
	type tail struct {
		stage  string
		worker int
		start  float64
		dur    float64
	}
	var tails []tail
	for stage, n := range c.workers {
		for w := 0; w < n; w++ {
			key := streamKey(stage, w)
			if gap := wall - c.lastEnd[key]; gap > 1e-6 {
				tails = append(tails, tail{stage, w, c.lastEnd[key], gap})
				c.stageBusy["stall:"+stage] += gap
				c.lastEnd[key] = wall
			}
		}
	}
	c.mu.Unlock()
	for _, t := range tails {
		if c.reg != nil {
			c.reg.Counter("fastinvert_build_stage_seconds_total",
				"Busy seconds per pipeline stage (stall rows are derived idle gaps).",
				L("stage", "stall_"+t.stage)).Add(t.dur)
		}
		if c.trace != nil {
			c.trace.Span(Span{Stage: StageStall, Of: t.stage, Worker: t.worker,
				File: -1, Start: t.start, Dur: t.dur})
		}
	}
	if c.reg != nil {
		c.reg.Gauge("fastinvert_build_wall_seconds",
			"Wall-clock seconds of the completed build.").Set(wall)
	}
	if c.trace != nil {
		if attrs == nil {
			attrs = map[string]any{}
		}
		attrs["wall_sec"] = wall
		c.trace.Summary(attrs)
	}
}

// StageSeconds returns the accumulated busy seconds per stage (stall
// time under "stall:<stage>" keys) — the per-stage breakdown exported
// by benchrunner's JSON output.
func (c *Collector) StageSeconds() map[string]float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]float64, len(c.stageBusy))
	for k, v := range c.stageBusy {
		out[k] = v
	}
	return out
}

// Progress is a live snapshot for CLI tickers.
type Progress struct {
	Elapsed     time.Duration
	FilesDone   int
	FilesTotal  int
	Docs        int64
	Tokens      int64
	ReadBytes   int64
	ParsedBytes int64
	DocsPerSec  float64
	MBPerSec    float64 // parsed (uncompressed) MB/s
	ETA         time.Duration
	// StageUtil is busy-seconds / (elapsed × workers) per parallel
	// stage — the live utilization of the parser and indexer banks.
	StageUtil map[string]float64
}

// Progress computes a snapshot; safe to call from a ticker goroutine
// while the build runs.
func (c *Collector) Progress() Progress {
	c.mu.Lock()
	epoch, started, total := c.epoch, c.started, c.totalFiles
	util := make(map[string]float64, len(c.workers))
	elapsed := time.Since(epoch)
	if started && elapsed > 0 {
		for stage, n := range c.workers {
			if n > 0 {
				util[stage] = c.stageBusy[stage] / (elapsed.Seconds() * float64(n))
			}
		}
	}
	c.mu.Unlock()
	if !started {
		return Progress{StageUtil: util}
	}
	p := Progress{
		Elapsed:     elapsed,
		FilesDone:   int(c.filesDone.Load()),
		FilesTotal:  total,
		Docs:        c.docs.Load(),
		Tokens:      c.tokens.Load(),
		ReadBytes:   c.readBytes.Load(),
		ParsedBytes: c.parsedBytes.Load(),
		StageUtil:   util,
	}
	sec := elapsed.Seconds()
	if sec > 0 {
		p.DocsPerSec = float64(p.Docs) / sec
		p.MBPerSec = float64(p.ParsedBytes) / (1 << 20) / sec
		if p.FilesDone > 0 && total > p.FilesDone {
			perFile := sec / float64(p.FilesDone)
			p.ETA = time.Duration(perFile * float64(total-p.FilesDone) * float64(time.Second))
		}
	}
	return p
}
